"""ParallelEVMatcher: the cluster-backed end-to-end pipeline.

The distributed counterpart of :class:`repro.core.matcher.EVMatcher`:
the E stage runs Algorithm 3's iterated jobs (SS) or one-mapper-per-EID
(EDP), the V stage runs the extraction + comparison jobs, and the
reported times are the *scheduled makespans* on the simulated cluster —
the numbers Figs. 8/9 plot for a 14-node, 4-core deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.edp import EDPConfig
from repro.core.matcher import record_report_provenance, report_args
from repro.core.set_splitting import SplitConfig
from repro.core.vid_filtering import FilterConfig, MatchResult
from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.failures import FailurePolicy
from repro.metrics.accuracy import AccuracyReport, accuracy_of
from repro.obs import get_tracer
from repro.metrics.timing import CostModel, StageTimes
from repro.parallel.edp_job import ParallelEDP
from repro.parallel.filter_job import ParallelFilterStats, ParallelVIDFilter
from repro.parallel.split_job import ParallelSetSplitter, ParallelSplitStats
from repro.sensing.scenarios import ScenarioStore
from repro.world.entities import EID, VID


@dataclass
class ParallelMatchReport:
    """One distributed matching run's outputs and scheduled costs."""

    algorithm: str
    targets: Tuple[EID, ...]
    results: Dict[EID, MatchResult]
    num_selected: int
    avg_scenarios_per_eid: float
    scenarios_examined: int
    times: StageTimes
    split_stats: Optional[ParallelSplitStats] = None
    filter_stats: Optional[ParallelFilterStats] = None

    def chosen_per_eid(self):
        return {eid: r.chosen for eid, r in self.results.items()}

    def score(self, truth: Mapping[EID, VID]) -> AccuracyReport:
        return accuracy_of(self.chosen_per_eid(), truth, targets=list(self.targets))


class ParallelEVMatcher:
    """Single / multiple / universal matching on the simulated cluster.

    The stages are the serial ones run as MapReduce jobs: the V stage's
    results equal :class:`~repro.core.vid_filtering.VIDFilter`'s for
    the same ``filter_config`` (topology included), and the SS split
    equals :class:`~repro.core.set_splitting.SetSplitter`'s with the
    ``RANDOM_TICK`` strategy — the MapReduce split always examines
    scenarios in Algorithm 3's random-tick order, whatever
    ``split_config.strategy`` says.
    """

    def __init__(
        self,
        store: ScenarioStore,
        cluster: Optional[ClusterConfig] = None,
        split_config: Optional[SplitConfig] = None,
        filter_config: Optional[FilterConfig] = None,
        edp_config: Optional[EDPConfig] = None,
        cost_model: Optional[CostModel] = None,
        failure_policy: Optional[FailurePolicy] = None,
    ) -> None:
        self.store = store
        cluster_config = cluster if cluster is not None else ClusterConfig()
        self.cluster = SimulatedCluster(cluster_config)
        self.split_config = split_config if split_config is not None else SplitConfig()
        self.filter_config = (
            filter_config if filter_config is not None else FilterConfig()
        )
        self.edp_config = edp_config if edp_config is not None else EDPConfig()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.failure_policy = failure_policy

    def _engine(self) -> MapReduceEngine:
        """A fresh engine (and DFS) per run keeps runs independent."""
        return MapReduceEngine(
            cluster=self.cluster, failure_policy=self.failure_policy
        )

    def match(
        self,
        targets: Sequence[EID],
        universe: Optional[Sequence[EID]] = None,
    ) -> ParallelMatchReport:
        """Distributed set splitting + VID filtering."""
        engine = self._engine()
        with get_tracer().span(
            "match", algorithm="ss", engine="mapreduce", targets=len(targets)
        ) as span:
            splitter = ParallelSetSplitter(
                self.store, engine, self.split_config, self.cost_model
            )
            split, split_stats = splitter.run(targets, universe=universe)
            vid_filter = ParallelVIDFilter(
                self.store, engine, self.filter_config, self.cost_model
            )
            results, filter_stats = vid_filter.match(split.evidence)
            report = ParallelMatchReport(
                algorithm="ss",
                targets=tuple(targets),
                results=results,
                num_selected=split.num_selected,
                avg_scenarios_per_eid=split.avg_scenarios_per_eid,
                scenarios_examined=split.scenarios_examined,
                times=StageTimes(
                    e_time=split_stats.simulated_time,
                    v_time=filter_stats.simulated_time,
                ),
                split_stats=split_stats,
                filter_stats=filter_stats,
            )
            span.set(**report_args(report))
        record_report_provenance(
            report,
            store=self.store,
            candidates={
                eid: len(members) for eid, members in split.candidates.items()
            },
        )
        return report

    def match_edp(
        self,
        targets: Sequence[EID],
        universe: Optional[Sequence[EID]] = None,
    ) -> ParallelMatchReport:
        """Distributed EDP baseline (one mapper per EID) + shared V stage."""
        engine = self._engine()
        with get_tracer().span(
            "match", algorithm="edp", engine="mapreduce", targets=len(targets)
        ) as span:
            with get_tracer().span("e.edp", targets=len(targets)):
                edp = ParallelEDP(
                    self.store, engine, self.edp_config, self.cost_model
                )
                e_result, edp_stats = edp.run(targets, universe=universe)
            vid_filter = ParallelVIDFilter(
                self.store, engine, self.filter_config, self.cost_model
            )
            results, filter_stats = vid_filter.match(e_result.evidence)
            report = ParallelMatchReport(
                algorithm="edp",
                targets=tuple(targets),
                results=results,
                num_selected=e_result.num_selected,
                avg_scenarios_per_eid=e_result.avg_scenarios_per_eid,
                scenarios_examined=e_result.scenarios_examined,
                times=StageTimes(
                    e_time=edp_stats.simulated_time,
                    v_time=filter_stats.simulated_time,
                ),
                filter_stats=filter_stats,
            )
            span.set(**report_args(report))
        record_report_provenance(report, store=self.store)
        return report
