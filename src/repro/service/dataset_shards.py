"""Region-keyed sharding of a standing dataset's indexes.

A serving process answering investigations against a city-scale store
cannot afford one monolithic inverted index: every lookup would walk
(and every ingest would lock) the whole thing.  SLIM-style serving
partitions the spatiotemporal indexes so a query touches only the
shards its region of interest maps to.

:class:`ShardedDataset` splits the cell decomposition into ``N``
contiguous spatial bands (cells sorted by center, or by id when no
grid is available) and gives each band its own :class:`DatasetShard`
holding the scenario keys and the per-EID inverted index for its
cells only.  Per-EID lookups read the shards' own indexes, one dict
probe per shard, so ingest keeps no second per-EID table.  Only the
shards the EID was ever seen in count as probed — the
``shards_touched`` number surfaced in investigate responses and
asserted on by the tests.

Ingest routes each new scenario to its owning shard; cells never seen
at build time are assigned round-robin by ``cell_id % N`` so a growing
deployment keeps balancing.

Co-traveler counts read the store's own inclusive sets over the EID's
routed scenarios (:func:`~repro.sensing.scenarios.co_travelers`), so
ingest maintains the shards' key lists and nothing else.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.obs import get_event_log
from repro.obs import events as ev
from repro.sensing.scenarios import (
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    co_travelers,
)
from repro.world.cells import CellGrid, HexCellGrid
from repro.world.entities import EID

CellDecomposition = "CellGrid | HexCellGrid"


class DatasetShard:
    """One band of cells: its scenario keys and per-EID index."""

    def __init__(self, shard_id: int, cell_ids: Iterable[int]) -> None:
        self.shard_id = shard_id
        self.cell_ids: Set[int] = set(cell_ids)
        self._keys: List[ScenarioKey] = []
        self._by_eid: Dict[EID, List[ScenarioKey]] = {}

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def eids(self) -> FrozenSet[EID]:
        return frozenset(self._by_eid.keys())

    def add(self, key: ScenarioKey, eids: Iterable[EID]) -> None:
        if key.cell_id not in self.cell_ids:
            raise ValueError(
                f"scenario {key} does not belong to shard {self.shard_id}"
            )
        self._keys.append(key)
        by_eid = self._by_eid
        for eid in eids:
            by_eid.setdefault(eid, []).append(key)

    def scenarios_of(self, eid: EID) -> Sequence[ScenarioKey]:
        return tuple(self._by_eid.get(eid, ()))


class ShardedDataset:
    """N spatial shards over one store, with EID routing.

    Args:
        store: the scenario store to index (kept as the authority for
            E-Scenario contents; shards hold keys only).
        grid: the cell decomposition; when given, shards are contiguous
            spatial bands (cells sorted by center).  Without it, cells
            are banded by id — same contiguity for the row-major
            default grid.
        num_shards: how many shards to build (clamped to the cell
            count).
    """

    def __init__(
        self,
        store: ScenarioStore,
        grid: Optional["CellGrid | HexCellGrid"] = None,
        num_shards: int = 4,
    ) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.store = store
        self._lock = threading.Lock()
        cell_ids = self._known_cells(store, grid)
        num_shards = max(1, min(num_shards, len(cell_ids) or 1))
        bands = _band(cell_ids, num_shards)
        self._shards: List[DatasetShard] = [
            DatasetShard(i, band) for i, band in enumerate(bands)
        ]
        self._cell_to_shard: Dict[int, int] = {
            cell_id: shard.shard_id
            for shard in self._shards
            for cell_id in shard.cell_ids
        }
        #: Lookup telemetry: total per-EID probes and shard visits.
        self.lookups = 0
        self.shard_probes = 0
        for key in store.keys:
            self._route(key, store.e_scenario(key).eids)

    @staticmethod
    def _known_cells(
        store: ScenarioStore, grid: Optional["CellGrid | HexCellGrid"]
    ) -> List[int]:
        if grid is not None:
            cells = sorted(
                grid.cells, key=lambda c: (c.center.y, c.center.x, c.cell_id)
            )
            return [c.cell_id for c in cells]
        return sorted({key.cell_id for key in store.keys})

    # -- construction / ingest -------------------------------------------
    def _route(self, key: ScenarioKey, eids: Iterable[EID]) -> None:
        shard_id = self._cell_to_shard.get(key.cell_id)
        if shard_id is None:
            # A cell no band claims (grid-less store, or a camera that
            # came online after shard layout): round-robin fallback.
            shard_id = key.cell_id % len(self._shards)
            self._cell_to_shard[key.cell_id] = shard_id
            self._shards[shard_id].cell_ids.add(key.cell_id)
            log = get_event_log()
            if log.enabled:
                log.emit(
                    ev.SERVICE_SHARD_ASSIGNED,
                    cell_id=key.cell_id,
                    shard=shard_id,
                    reason="unbanded_cell",
                )
        self._shards[shard_id].add(key, eids)

    def add_scenario(self, scenario: EVScenario) -> int:
        """Index one newly-ingested scenario; returns its shard id."""
        with self._lock:
            self._route(scenario.key, scenario.e.eids)
            return self._cell_to_shard[scenario.key.cell_id]

    # -- topology ---------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> Sequence[DatasetShard]:
        return tuple(self._shards)

    def shard_of_cell(self, cell_id: int) -> Optional[int]:
        return self._cell_to_shard.get(cell_id)

    def shards_of_eid(self, eid: EID) -> FrozenSet[int]:
        """Which shards hold scenarios mentioning ``eid``."""
        return frozenset(
            shard.shard_id for shard in self._shards if eid in shard._by_eid
        )

    def __contains__(self, eid: EID) -> bool:
        return any(eid in shard._by_eid for shard in self._shards)

    # -- lookups ----------------------------------------------------------
    def scenarios_of(self, eid: EID) -> Tuple[ScenarioKey, ...]:
        """All scenarios containing ``eid``; only the shards that hold
        it count as probed."""
        self.lookups += 1
        keys: List[ScenarioKey] = []
        for shard in self._shards:
            found = shard._by_eid.get(eid)
            if found:
                self.shard_probes += 1
                keys.extend(found)
        return tuple(sorted(keys))

    def presence_windows(self, eid: EID) -> List[Tuple[int, int, int]]:
        """Dwell intervals ``(cell, first, last)`` for one EID."""
        by_cell: Dict[int, List[int]] = {}
        for key in self.scenarios_of(eid):
            by_cell.setdefault(key.cell_id, []).append(key.tick)
        runs: List[Tuple[int, int, int]] = []
        for cell_id, ticks in by_cell.items():
            ticks.sort()
            start = prev = ticks[0]
            for tick in ticks[1:]:
                if tick == prev + 1:
                    prev = tick
                    continue
                runs.append((cell_id, start, prev))
                start = prev = tick
            runs.append((cell_id, start, prev))
        runs.sort(key=lambda run: (run[1], run[0]))
        return runs

    def co_travelers(
        self, eid: EID, min_shared: int = 3
    ) -> List[Tuple[EID, int]]:
        """EIDs confidently co-occurring with ``eid``, most-shared first:
        the one count (:func:`~repro.sensing.scenarios.co_travelers`)
        over the scenarios the shards route ``eid`` to."""
        return co_travelers(self.store, eid, self.scenarios_of(eid), min_shared)

    def balance(self) -> Dict[int, int]:
        """Scenario count per shard (load-balance diagnostic)."""
        return {shard.shard_id: len(shard) for shard in self._shards}


def _band(ordered_cells: Sequence[int], num_shards: int) -> List[List[int]]:
    """Split an ordered cell list into ``num_shards`` contiguous bands
    of near-equal size (the first ``len % num_shards`` bands get one
    extra cell)."""
    if not ordered_cells:
        return [[] for _ in range(num_shards)]
    base, extra = divmod(len(ordered_cells), num_shards)
    bands: List[List[int]] = []
    start = 0
    for i in range(num_shards):
        size = base + (1 if i < extra else 0)
        bands.append(list(ordered_cells[start : start + size]))
        start += size
    return bands
