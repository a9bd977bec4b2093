"""Parallel EDP — the paper's fair-comparison baseline adaptation.

"However, EDP can only handle one EID at one time.  For fair comparison
with our parallelized method, we adapt EDP to MapReduce framework by
assigning each mapper one EID matching task" (Sec. VI-B).

The E stage here is a single map-only job whose input has **one record
per target EID**; each mapper runs the serial per-EID E-filtering.
There is no shuffle — EDP's selections are independent by construction,
which is exactly why it cannot reuse scenarios across EIDs.  The V
stage then reuses :class:`~repro.parallel.filter_job.ParallelVIDFilter`
(extraction is still deduplicated across EIDs — being generous to the
baseline, as the paper's "reused scenario is only counted once" is).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.edp import EDPConfig, EDPMatcher, EDPResult
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import JobMetrics, MapReduceJob
from repro.metrics.timing import CostModel
from repro.sensing.scenarios import ScenarioStore
from repro.world.entities import EID


@dataclass
class ParallelEDPStats:
    """E-stage job metrics of the parallel baseline."""

    e_metrics: Optional[JobMetrics] = None

    @property
    def simulated_time(self) -> float:
        return self.e_metrics.simulated_time if self.e_metrics else 0.0


class ParallelEDP:
    """One mapper per EID, each running serial EDP E-filtering."""

    def __init__(
        self,
        store: ScenarioStore,
        engine: MapReduceEngine,
        config: Optional[EDPConfig] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.store = store
        self.engine = engine
        self.config = config if config is not None else EDPConfig()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self._name_counter = itertools.count()

    def run(
        self,
        targets: Sequence[EID],
        universe: Optional[Sequence[EID]] = None,
    ) -> Tuple[EDPResult, ParallelEDPStats]:
        """E-filter every target, one map task each."""
        if not targets:
            raise ValueError("targets must not be empty")
        stats = ParallelEDPStats()
        # Mappers call into one EDPMatcher's per-target filter, which
        # reads the store's EID index; the engine charges each task's
        # simulated cost from its examined count.
        matcher = EDPMatcher(self.store, self.config)
        universe_set = matcher._universe_of(targets, universe)

        seed_seq = np.random.SeedSequence(self.config.seed)
        children = seed_seq.spawn(len(targets))
        rng_of = {
            target: child for target, child in zip(targets, children)
        }

        input_name = self._fresh("edp-in")
        # One record per EID and one record per partition: "assigning
        # each mapper one EID matching task".
        self.engine.dfs.write_records(
            input_name, list(targets), num_partitions=len(targets)
        )
        e_cost = self.cost_model.e_scenario_cost

        examined_of: Dict[EID, int] = {}

        def mapper(target: EID):
            evidence, candidates, examined = matcher._filter_one(
                target, universe_set, np.random.default_rng(rng_of[target])
            )
            examined_of[target] = examined
            yield (target, (evidence, candidates, examined))

        def cost_of(target: EID) -> float:
            # The engine evaluates map_cost right after mapping the
            # record, so the mapper has already recorded how many
            # scenarios this target's filtering examined.
            return e_cost * examined_of[target]

        job = MapReduceJob(
            name=self._fresh("edp"),
            mapper=mapper,
            map_cost=cost_of,
        )
        handle, metrics = self.engine.run(job, input_name, self._fresh("edp-out"))
        stats.e_metrics = metrics

        result = EDPResult(targets=tuple(targets))
        for target, (evidence, candidates, examined) in self.engine.dfs.read_all(
            handle.name
        ):
            result.evidence[target] = list(evidence)
            result.candidates[target] = candidates
            result.scenarios_examined += examined
        return result, stats

    def _fresh(self, prefix: str) -> str:
        return f"{prefix}-{next(self._name_counter)}"
