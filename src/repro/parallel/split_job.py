"""Parallel EID set splitting — Algorithm 3 / Fig. 4 of the paper.

One iteration is a pair of MapReduce jobs over the union of the current
EID partition and a batch of E-Scenarios:

* **Preprocess** (driver): "randomly choose a timestamp and select all
  the E-Scenarios with this timestamp", drop the ones containing none
  of the EIDs still to be matched, and bundle them with the current
  partition's sets (each set — partition or scenario — carries a
  unique set id).
* **Map**: for each set, "use the element of the EID set as the key and
  the set ID as the value", emitting ``(eid, set_id)`` pairs.
* **Reduce**: the shuffle delivers every set id containing a given EID
  to one reducer, which emits ``(sorted set-id list, eid)`` — the EID's
  *signature*.
* **Merge** (second job): group EIDs by signature; each group is the
  intersection of exactly those sets, i.e. one set of the refined
  partition.

The per-target candidate/evidence bookkeeping is the serial
:class:`~repro.core.set_splitting.SetSplitter`'s own
``_apply_scenario``, applied to each round's batch in tick order, so
the split equals ``SetSplitter`` run with the ``RANDOM_TICK`` strategy:
same evidence, recorded scenarios and candidate sets.  The driver
iterates until every target is distinguished or the ticks run out.

Vague attributes: Algorithm 3 is stated for the ideal setting.  The
bookkeeping applies the serial vague rule — only inclusive sightings
make a target eligible, and vague EIDs are never ruled out of candidate
sets — while the signature jobs operate on the inclusive sets, so the
MapReduce dataflow stays exactly the paper's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.set_splitting import (
    EvidenceDiversity,
    SelectionStrategy,
    SetSplitter,
    SplitConfig,
    SplitResult,
    observe_candidates,
)
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import JobMetrics, MapReduceJob
from repro.metrics.timing import CostModel
from repro.obs import get_tracer
from repro.sensing.scenarios import ScenarioKey, ScenarioStore
from repro.world.entities import EID

# Set ids distinguish partition sets ``("P", n)`` from scenario sets
# ``("S", cell, tick)``; only scenario sets are charged map cost.
PartitionSetId = Tuple[str, int]

# Input partitions (= map tasks) and reducers of every split/merge job.
NUM_PARTITIONS = 16


@dataclass
class ParallelSplitStats:
    """What the iterated jobs did (beyond the shared SplitResult)."""

    iterations: int = 0
    job_metrics: List[JobMetrics] = field(default_factory=list)
    partition_sets: int = 1

    @property
    def simulated_time(self) -> float:
        """Summed stage makespans of every job — the parallel E time."""
        return sum(m.simulated_time for m in self.job_metrics)

    @property
    def total_pairs_shuffled(self) -> int:
        return sum(m.pairs_shuffled for m in self.job_metrics)


class ParallelSetSplitter:
    """Algorithm 3 on the MapReduce engine.

    Scenarios are always examined in Algorithm 3's order — one random
    tick's scenarios per round, ticks shuffled by ``config.seed`` —
    whatever ``config.strategy`` says.  ``config.max_scenarios`` has
    no counterpart in that dataflow and is rejected.
    """

    def __init__(
        self,
        store: ScenarioStore,
        engine: MapReduceEngine,
        config: Optional[SplitConfig] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.store = store
        self.engine = engine
        self.config = config if config is not None else SplitConfig()
        if self.config.max_scenarios is not None:
            raise ValueError(
                "the MapReduce split has no examination budget; "
                f"max_scenarios must be None, got {self.config.max_scenarios}"
            )
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self._name_counter = itertools.count()

    def run(
        self,
        targets: Sequence[EID],
        universe: Optional[Sequence[EID]] = None,
    ) -> Tuple[SplitResult, ParallelSplitStats]:
        """Iterate map/reduce/merge until all ``targets`` stand alone.

        Its ``e.split`` span publishes the serial splitter's ``ev_e_*``
        counters and events, labelled ``backend="mapreduce"``.
        """
        if not targets:
            raise ValueError("targets must not be empty")
        splitter = SetSplitter(self.store, self.config)
        universe_set = (
            frozenset(universe)
            if universe is not None
            else splitter._observed_universe()
        )
        missing = [t for t in targets if t not in universe_set]
        if missing:
            raise ValueError(
                f"targets not in universe: {sorted(e.index for e in missing)}"
            )

        result = SplitResult(targets=tuple(targets))
        stats = ParallelSplitStats()
        diversity = EvidenceDiversity(self.config.min_gap_ticks)
        candidates: Dict[EID, FrozenSet[EID]] = dict.fromkeys(
            targets, universe_set
        )
        for t in targets:
            result.evidence[t] = []
        active: Set[EID] = set(targets)

        # Current partition: set id -> members.  Starts as {U_eid}.
        partition: Dict[PartitionSetId, FrozenSet[EID]] = {("P", 0): universe_set}
        next_partition_id = 1

        rng = np.random.default_rng(self.config.seed)
        ticks = list(self.store.ticks)
        rng.shuffle(ticks)  # type: ignore[arg-type]

        tracer = get_tracer()
        with tracer.span(
            "e.split",
            backend="mapreduce",
            strategy=SelectionStrategy.RANDOM_TICK.value,
            targets=len(targets),
            universe=len(universe_set),
        ) as span:
            for tick in ticks:
                if not active:
                    break
                batch = self._preprocess(splitter, tick, active, result)
                if not batch:
                    continue
                stats.iterations += 1
                with tracer.span(
                    "e.split.round",
                    round=stats.iterations - 1,
                    tick=tick,
                    batch=len(batch),
                    active=len(active),
                ) as round_span:
                    signatures = self._signature_job(partition, batch, stats)
                    partition, next_partition_id = self._merge_job(
                        signatures, partition, next_partition_id, stats
                    )
                    for key, _inclusive in batch:
                        splitter._apply_scenario(
                            self.store.e_scenario(key),
                            result,
                            candidates,
                            active,
                            diversity,
                        )
                    stats.partition_sets = len(partition)
                    round_span.set(
                        partition_sets=len(partition), undistinguished=len(active)
                    )

            result.candidates = candidates
            span.set(**result.outcome())
        observe_candidates(result)
        return result, stats

    # ------------------------------------------------------------------
    def _preprocess(
        self,
        splitter: SetSplitter,
        tick: int,
        active: Set[EID],
        result: SplitResult,
    ) -> List[Tuple[ScenarioKey, FrozenSet[EID]]]:
        """One iteration's scenario batch: this tick's scenarios that
        contain at least one still-active target (inclusive)."""
        batch = []
        for key in self.store.keys_at_tick(tick):
            result.scenarios_examined += 1
            inclusive, _allowed = splitter._scenario_sides(
                self.store.e_scenario(key)
            )
            if inclusive & active:
                batch.append((key, inclusive))
        return batch

    def _signature_job(
        self,
        partition: Dict[PartitionSetId, FrozenSet[EID]],
        batch: Sequence[Tuple[ScenarioKey, FrozenSet[EID]]],
        stats: ParallelSplitStats,
    ) -> List[Tuple[Tuple, EID]]:
        """Map + reduce of Algorithm 3: EIDs to their set-id signatures."""
        records: List[Tuple[Tuple, FrozenSet[EID]]] = [
            (set_id, members) for set_id, members in partition.items()
        ]
        records.extend(
            (("S", key.cell_id, key.tick), inclusive) for key, inclusive in batch
        )
        input_name = self._fresh("split-in")
        self.engine.dfs.write_records(
            input_name, records, min(NUM_PARTITIONS, len(records))
        )

        e_cost = self.cost_model.e_scenario_cost

        def mapper(record):
            set_id, members = record
            for eid in members:
                yield (eid, set_id)

        def reducer(eid, set_ids):
            yield (tuple(sorted(set_ids)), eid)

        job = MapReduceJob(
            name=self._fresh("split"),
            mapper=mapper,
            reducer=reducer,
            num_reducers=NUM_PARTITIONS,
            map_cost=lambda record: e_cost if record[0][0] == "S" else 0.0,
        )
        handle, metrics = self.engine.run(job, input_name, self._fresh("split-out"))
        stats.job_metrics.append(metrics)
        return self.engine.dfs.read_all(handle.name)

    def _merge_job(
        self,
        signatures: Sequence[Tuple[Tuple, EID]],
        partition: Dict[PartitionSetId, FrozenSet[EID]],
        next_partition_id: int,
        stats: ParallelSplitStats,
    ) -> Tuple[Dict[PartitionSetId, FrozenSet[EID]], int]:
        """Merge step: group EIDs by signature into the refined partition."""
        input_name = self._fresh("merge-in")
        self.engine.dfs.write_records(
            input_name,
            list(signatures),
            min(NUM_PARTITIONS, max(len(signatures), 1)),
        )

        def mapper(record):
            signature, eid = record
            yield (signature, eid)

        def reducer(signature, eids):
            yield (signature, frozenset(eids))

        job = MapReduceJob(
            name=self._fresh("merge"),
            mapper=mapper,
            reducer=reducer,
            num_reducers=NUM_PARTITIONS,
        )
        handle, metrics = self.engine.run(job, input_name, self._fresh("merge-out"))
        stats.job_metrics.append(metrics)

        new_partition: Dict[PartitionSetId, FrozenSet[EID]] = {}
        next_id = next_partition_id
        for _signature, members in self.engine.dfs.read_all(handle.name):
            new_partition[("P", next_id)] = members
            next_id += 1
        return new_partition, next_id

    def _fresh(self, prefix: str) -> str:
        return f"{prefix}-{next(self._name_counter)}"
