"""Parallel VID filtering — paper Sec. V-C.

Two MapReduce jobs:

1. **Extraction** (map-only): "we use MapReduce to parallelize human
   detection and feature extraction by processing different V-Scenarios
   on different mappers.  Because these visual operations require no
   data dependency."  The input is the *distinct* set of selected
   scenario keys — a scenario shared by many EIDs is extracted once,
   which is where set splitting's reuse pays off.  Each map task is
   charged the per-detection extraction cost; the stage makespan is the
   dominant term of the parallel V time.

2. **Comparison**: "the V-Scenarios in the selected list of one EID
   will be conveyed to the same mapper to do feature comparison."  The
   input records are ``(eid, scenario-key list)``; each mapper scores
   and chooses detections with the exact same logic as the serial
   :class:`~repro.core.vid_filtering.VIDFilter` (it *is* that filter,
   run against a pre-extracted feature store) and is charged the
   pairwise comparison cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.vid_filtering import (
    FilterConfig,
    MatchResult,
    agreement_of,
    membership_vector,
)
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import JobMetrics, MapReduceJob
from repro.metrics.timing import CostModel
from repro.sensing.scenarios import Detection, ScenarioKey, ScenarioStore
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
        num_input_partitions: int = 56,
    ) -> None:
        if num_input_partitions <= 0:
            raise ValueError(
                f"num_input_partitions must be positive, got {num_input_partitions}"
            )
        self.store = store
        self.engine = engine
        self.config = config if config is not None else FilterConfig()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.num_input_partitions = num_input_partitions
        self._name_counter = itertools.count()

    def match(
        self, evidence: Mapping[EID, Sequence[ScenarioKey]]
    ) -> Tuple[Dict[EID, MatchResult], ParallelFilterStats]:
        """Run both jobs for every target in ``evidence``."""
        stats = ParallelFilterStats()
        usable = {
            eid: self._usable_keys(keys) for eid, keys in evidence.items()
        }
        distinct: List[ScenarioKey] = sorted(
            {key for keys in usable.values() for key in keys}
        )
        features = self._extraction_job(distinct, stats)
        results = self._comparison_job(usable, features, stats)
        return results, stats

    # ------------------------------------------------------------------
    def _usable_keys(self, keys: Sequence[ScenarioKey]) -> List[ScenarioKey]:
        """Same evidence hygiene as the serial filter."""
        seen = set()
        out: List[ScenarioKey] = []
        for key in keys:
            if key in seen:
                continue
            seen.add(key)
            if len(self.store.v_scenario(key)) > 0:
                out.append(key)
        if self.config.max_evidence is not None:
            out = out[: self.config.max_evidence]
        return out

    def _extraction_job(
        self,
        distinct: Sequence[ScenarioKey],
        stats: ParallelFilterStats,
    ) -> Dict[ScenarioKey, np.ndarray]:
        """Map-only fan-out: one record per distinct selected scenario."""
        if not distinct:
            return {}
        input_name = self._fresh("extract-in")
        # "Processing different V-Scenarios on different mappers": one
        # scenario per map task, so the stage balances itself.
        self.engine.dfs.write_records(input_name, list(distinct), len(distinct))
        store = self.store
        extraction_cost = self.cost_model.v_extraction_cost

        def mapper(key: ScenarioKey):
            scenario = store.v_scenario(key)
            yield (key, scenario.feature_matrix())

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
            len(store.v_scenario(k)) for k in distinct
        )
        return dict(self.engine.dfs.read_all(handle.name))

    def _comparison_job(
        self,
        usable: Mapping[EID, Sequence[ScenarioKey]],
        features: Mapping[ScenarioKey, np.ndarray],
        stats: ParallelFilterStats,
    ) -> Dict[EID, MatchResult]:
        """Per-EID comparison: one record per target, scored on a mapper."""
        records = [
            (eid, tuple(keys)) for eid, keys in sorted(usable.items())
        ]
        if not records:
            return {}
        input_name = self._fresh("compare-in")
        # "The V-Scenarios in the selected list of one EID will be
        # conveyed to the same mapper": one EID per map task.
        self.engine.dfs.write_records(input_name, records, len(records))
        store = self.store
        comparison_cost = self.cost_model.v_comparison_cost
        agreement_threshold = self.config.agreement_threshold

        def comparisons_of(record) -> int:
            _eid, keys = record
            sizes = [len(store.v_scenario(k)) for k in keys]
            return sum(
                a * b for i, a in enumerate(sizes) for j, b in enumerate(sizes) if i != j
            )

        def mapper(record):
            eid, keys = record
            yield (eid, _score_target(eid, keys, store, features, agreement_threshold))

        job = MapReduceJob(
            name=self._fresh("compare"),
            mapper=mapper,
            map_cost=lambda record: comparison_cost * comparisons_of(record),
        )
        handle, metrics = self.engine.run(
            job, input_name, self._fresh("compare-out")
        )
        stats.compare_metrics = metrics
        return dict(self.engine.dfs.read_all(handle.name))

    def _fresh(self, prefix: str) -> str:
        return f"{prefix}-{next(self._name_counter)}"


def _score_target(
    eid: EID,
    keys: Sequence[ScenarioKey],
    store: ScenarioStore,
    features: Mapping[ScenarioKey, np.ndarray],
    agreement_threshold: float,
) -> MatchResult:
    """One mapper's work: the serial scoring logic for one EID."""
    if not keys:
        return MatchResult(
            eid=eid, scenario_keys=(), chosen=(), scores=(), agreement=0.0
        )
    chosen: List[Detection] = []
    scores: List[float] = []
    for key_a in keys:
        scenario = store.v_scenario(key_a)
        score_vec = np.ones(len(scenario))
        for key_b in keys:
            if key_b == key_a:
                continue
            score_vec = score_vec * membership_vector(
                features[key_a], features[key_b]
            )
        winner = int(np.argmax(score_vec))
        chosen.append(scenario.detections[winner])
        scores.append(float(score_vec[winner]))
    return MatchResult(
        eid=eid,
        scenario_keys=tuple(keys),
        chosen=tuple(chosen),
        scores=tuple(scores),
        agreement=agreement_of(chosen, agreement_threshold),
    )

