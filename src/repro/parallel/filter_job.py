"""Parallel VID filtering — paper Sec. V-C.

Two MapReduce jobs:

1. **Extraction** (map-only): "we use MapReduce to parallelize human
   detection and feature extraction by processing different V-Scenarios
   on different mappers.  Because these visual operations require no
   data dependency."  The input is the *distinct* set of planned
   scenario keys — a scenario shared by many EIDs is extracted once,
   which is where set splitting's reuse pays off.  Each map task is
   charged the per-detection extraction cost; the stage makespan is the
   dominant term of the parallel V time.

2. **Comparison**: "the V-Scenarios in the selected list of one EID
   will be conveyed to the same mapper to do feature comparison."  The
   input records are the target EIDs, one per map task; each mapper
   decides its target with the serial
   :class:`~repro.core.vid_filtering.VIDFilter`'s own ``_decide``
   (planning, topology pruning and prior, Eq. 1 scoring and choice) and
   is charged the pairwise comparison cost of its planned evidence.

The filter plans every target and fills its pair table once, exactly as
:meth:`VIDFilter.match` does, so the MapReduce results are bit-identical
to the serial ones; the jobs model where that work runs and what it
costs on the cluster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.vid_filtering import FilterConfig, MatchResult, VIDFilter
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import JobMetrics, MapReduceJob
from repro.metrics.timing import CostModel
from repro.obs import get_tracer
from repro.sensing.scenarios import ScenarioKey, ScenarioStore
from repro.world.entities import EID


@dataclass
class ParallelFilterStats:
    """Job metrics of the two V-stage jobs."""

    extract_metrics: Optional[JobMetrics] = None
    compare_metrics: Optional[JobMetrics] = None
    scenarios_extracted: int = 0
    detections_extracted: int = 0

    @property
    def simulated_time(self) -> float:
        total = 0.0
        if self.extract_metrics is not None:
            total += self.extract_metrics.simulated_time
        if self.compare_metrics is not None:
            total += self.compare_metrics.simulated_time
        return total


class ParallelVIDFilter:
    """The V stage as extraction + comparison MapReduce jobs."""

    def __init__(
        self,
        store: ScenarioStore,
        engine: MapReduceEngine,
        config: Optional[FilterConfig] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.store = store
        self.engine = engine
        self.config = config if config is not None else FilterConfig()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self._name_counter = itertools.count()

    def match(
        self, evidence: Mapping[EID, Sequence[ScenarioKey]]
    ) -> Tuple[Dict[EID, MatchResult], ParallelFilterStats]:
        """Run both jobs for every target in ``evidence`` under a
        ``v.filter`` span carrying the serial filter's work."""
        stats = ParallelFilterStats()
        vid_filter = VIDFilter(self.store, self.config)
        with get_tracer().span("v.filter", targets=len(evidence)) as span:
            plans = {
                eid: vid_filter._evidence(keys) for eid, keys in evidence.items()
            }
            ids = {eid: vid_filter._ids_of(plan[0]) for eid, plan in plans.items()}
            vid_filter._fill(ids.values())
            distinct = sorted({key for plan in plans.values() for key in plan[0]})
            self._extraction_job(distinct, stats)
            results = self._comparison_job(vid_filter, plans, ids, stats)
            span.set(**vid_filter.work())
        return results, stats

    # ------------------------------------------------------------------
    def _extraction_job(
        self,
        distinct: Sequence[ScenarioKey],
        stats: ParallelFilterStats,
    ) -> None:
        """Map-only fan-out: one record per distinct planned scenario."""
        if not distinct:
            return
        input_name = self._fresh("extract-in")
        # "Processing different V-Scenarios on different mappers": one
        # scenario per map task, so the stage balances itself.
        self.engine.dfs.write_records(input_name, list(distinct), len(distinct))
        store = self.store
        extraction_cost = self.cost_model.v_extraction_cost

        def mapper(key: ScenarioKey):
            yield (key, len(store.v_scenario(key)))

        job = MapReduceJob(
            name=self._fresh("extract"),
            mapper=mapper,
            map_cost=lambda key: extraction_cost * len(store.v_scenario(key)),
        )
        handle, metrics = self.engine.run(
            job, input_name, self._fresh("extract-out")
        )
        stats.extract_metrics = metrics
        stats.scenarios_extracted = len(distinct)
        stats.detections_extracted = sum(
            count for _key, count in self.engine.dfs.read_all(handle.name)
        )

    def _comparison_job(
        self,
        vid_filter: VIDFilter,
        plans: Mapping[EID, Tuple[List[ScenarioKey], ...]],
        ids: Mapping[EID, List[int]],
        stats: ParallelFilterStats,
    ) -> Dict[EID, MatchResult]:
        """Per-EID comparison: one record per target, decided on a mapper
        from the filled pair table."""
        records = sorted(plans)
        if not records:
            return {}
        input_name = self._fresh("compare-in")
        # "The V-Scenarios in the selected list of one EID will be
        # conveyed to the same mapper": one EID per map task.
        self.engine.dfs.write_records(input_name, records, len(records))
        store = self.store
        comparison_cost = self.cost_model.v_comparison_cost

        def comparisons_of(eid: EID) -> int:
            sizes = [len(store.v_scenario(k)) for k in plans[eid][0]]
            return sum(
                a * b for i, a in enumerate(sizes) for j, b in enumerate(sizes) if i != j
            )

        def mapper(eid: EID):
            yield (eid, vid_filter._decide(eid, plans[eid], ids[eid]))

        job = MapReduceJob(
            name=self._fresh("compare"),
            mapper=mapper,
            map_cost=lambda eid: comparison_cost * comparisons_of(eid),
        )
        handle, metrics = self.engine.run(
            job, input_name, self._fresh("compare-out")
        )
        stats.compare_metrics = metrics
        return dict(self.engine.dfs.read_all(handle.name))

    def _fresh(self, prefix: str) -> str:
        return f"{prefix}-{next(self._name_counter)}"
