"""The packed co-occurrence index over a store's E-Scenarios.

* :class:`EIDInterner` maps the observed EID universe to dense integer
  indices once per store;
* :class:`ScenarioMatrix` holds every scenario's *inclusive* EID set as
  one packed ``uint64`` bitset row, kept incrementally up to date on
  :meth:`~repro.sensing.scenarios.ScenarioStore.add` (the live-ingest
  path) via the store's arrival log.

Its readers are the investigate path's co-traveler query
(:meth:`~repro.service.dataset_shards.ShardedDataset.co_travelers`) and
convoy mining (:mod:`repro.fusion.convoys`): both need "how many
scenarios does every EID share with this one", which is one column sum
over packed rows (:meth:`ScenarioMatrix.co_occurrence_counts`).  The E
stage itself runs on plain candidate sets in
:class:`~repro.core.set_splitting.SetSplitter`.

Concurrency: a matrix is shared by every query over one store (see
:func:`matrix_for`); :meth:`ScenarioMatrix.sync` is the only mutator
and takes an internal lock, matching the serving layer's
one-writer/many-readers shape.
"""

from __future__ import annotations

import threading
import weakref
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Optional

import numpy as np

from repro.core.set_splitting import SplitConfig
from repro.obs import get_registry
from repro.sensing.scenarios import EScenario, ScenarioKey, ScenarioStore
from repro.world.entities import EID

WORD_BITS = 64

#: Sort key for EIDs: their index, the order the dataclass comparison
#: gives, without its per-comparison field tuples.
_BY_INDEX = attrgetter("index")


def resolve_backend(backend: str) -> str:
    """The E-stage implementation a configured ``backend`` runs as.

    There is one — :class:`~repro.core.set_splitting.SetSplitter`'s
    candidate-set path, named by ``SplitConfig.backend`` — so this
    returns that name; run labels (spans, metrics, worker stats) carry
    it.
    """
    if backend != SplitConfig.backend:
        raise ValueError(
            f"unknown E-stage backend {backend!r}; "
            f"the only one is {SplitConfig.backend!r}"
        )
    return backend


def popcount(rows: np.ndarray) -> np.ndarray:
    """Set bits per row of a ``(..., words)`` packed bitset array."""
    bits = np.unpackbits(np.ascontiguousarray(rows).view(np.uint8), axis=-1)
    return bits.sum(axis=-1, dtype=np.int64)


def pack_ids(ids: Iterable[int], num_words: int) -> np.ndarray:
    """Pack dense integer ids into one ``uint64`` bitset row."""
    words = [0] * num_words
    for i in ids:
        i = int(i)
        words[i >> 6] |= 1 << (i & 63)
    return np.array(words, dtype=np.uint64)


def unpack_ids(row: np.ndarray) -> np.ndarray:
    """The set bit positions of one bitset row, ascending."""
    bits = np.unpackbits(
        np.ascontiguousarray(row).view(np.uint8), bitorder="little"
    )
    return np.nonzero(bits)[0]


class EIDInterner:
    """Dense integer ids for an EID universe, growable for live ingest.

    Ids are assigned in first-intern order; building from a sorted
    universe therefore gives deterministic ids, and EIDs first seen by
    a live ``add`` append at the end without renumbering anyone.
    """

    def __init__(self, eids: Iterable[EID] = ()) -> None:
        self._ids: Dict[EID, int] = {}
        self._eids: List[EID] = []
        for eid in eids:
            self.intern(eid)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, eid: EID) -> bool:
        return eid in self._ids

    def intern(self, eid: EID) -> int:
        """The id of ``eid``, assigning the next dense id if new."""
        existing = self._ids.get(eid)
        if existing is not None:
            return existing
        new_id = len(self._eids)
        self._ids[eid] = new_id
        self._eids.append(eid)
        return new_id

    def id_of(self, eid: EID) -> Optional[int]:
        return self._ids.get(eid)

    def eid_of(self, index: int) -> EID:
        return self._eids[index]

    @property
    def num_words(self) -> int:
        """Words needed to hold one bit per interned EID (min 1)."""
        return max(1, -(-len(self._eids) // WORD_BITS))

    def pack(self, eids: Iterable[EID], num_words: Optional[int] = None) -> np.ndarray:
        """Bitset row for ``eids``; unknown EIDs are silently skipped."""
        ids = [i for i in map(self._ids.get, eids) if i is not None]
        return pack_ids(ids, num_words if num_words is not None else self.num_words)

    def unpack(self, row: np.ndarray) -> FrozenSet[EID]:
        """The EID set a bitset row represents."""
        eids = self._eids
        return frozenset(eids[int(i)] for i in unpack_ids(row))


class ScenarioMatrix:
    """Columnar packed-bitset rows of a store's inclusive EID sets.

    One row-major ``uint64`` array holds, per scenario, the inclusive
    EID bits.  Row order is the store's arrival order; :meth:`sync`
    consumes the store's append-only arrival log, so a live
    ``ScenarioStore.add`` costs one packed row, never a rebuild.
    Vague EIDs get interner ids too (so ids stay stable as sightings
    firm up) but no bits.  The store is held weakly, so a matrix never
    outlives it (see :func:`matrix_for`).
    """

    _INITIAL_ROWS = 64

    def __init__(self, store: ScenarioStore) -> None:
        self._store = weakref.ref(store)
        self.interner = EIDInterner(sorted(store.eid_universe, key=_BY_INDEX))
        self._lock = threading.Lock()
        self._row_of: Dict[ScenarioKey, int] = {}
        self._num_rows = 0
        self._words = self.interner.num_words
        self._inclusive = np.zeros(
            (self._INITIAL_ROWS, self._words), dtype=np.uint64
        )
        self._cursor = 0  # consumed prefix of the store's arrival log
        self.sync()
        self._publish_nbytes()

    @property
    def store(self) -> Optional[ScenarioStore]:
        """The indexed store, or ``None`` once it has been freed."""
        return self._store()

    # -- growth --------------------------------------------------------
    def _ensure_capacity(self, rows: int, words: int) -> None:
        cap_rows, cap_words = self._inclusive.shape
        if rows <= cap_rows and words <= cap_words:
            return
        new_rows = max(rows, 2 * cap_rows) if rows > cap_rows else cap_rows
        grown = np.zeros((new_rows, max(cap_words, words)), dtype=np.uint64)
        grown[: self._num_rows, :cap_words] = self._inclusive[: self._num_rows]
        self._inclusive = grown

    def _append(self, e_scenario: EScenario) -> None:
        interner = self.interner
        inclusive = sorted(e_scenario.inclusive, key=_BY_INDEX)
        ids = [interner.intern(e) for e in inclusive]
        for eid in sorted(e_scenario.vague, key=_BY_INDEX):
            interner.intern(eid)
        self._words = max(self._words, interner.num_words)
        self._ensure_capacity(self._num_rows + 1, self._words)
        row = self._num_rows
        self._inclusive[row] = pack_ids(ids, self._inclusive.shape[1])
        self._row_of[e_scenario.key] = row
        self._num_rows += 1

    def sync(self) -> int:
        """Index every scenario added to the store since the last sync.

        Returns the number of rows appended.  Cheap when nothing
        changed (one length comparison), so callers sync once at the
        top of each query.
        """
        store = self._store()
        if store is None or self._cursor >= len(store):
            return 0
        with self._lock:
            fresh = store.keys_since(self._cursor)
            for key in fresh:
                self._append(store.e_scenario(key))
            self._cursor += len(fresh)
            if fresh:
                self._publish_nbytes()
            return len(fresh)

    def _publish_nbytes(self) -> None:
        get_registry().gauge(
            "ev_accel_matrix_bytes",
            "footprint of the packed scenario bitset rows",
        ).set(self.nbytes)

    # -- row access ----------------------------------------------------
    def __len__(self) -> int:
        return self._num_rows

    def __contains__(self, key: ScenarioKey) -> bool:
        return key in self._row_of

    @property
    def num_words(self) -> int:
        return self._words

    @property
    def nbytes(self) -> int:
        """Footprint of the packed rows (diagnostics)."""
        return self._inclusive.nbytes

    def inclusive_row(self, key: ScenarioKey) -> np.ndarray:
        return self._inclusive[self._row_of[key]]

    def co_occurrence_counts(self, keys: Iterable[ScenarioKey]) -> np.ndarray:
        """Per-EID inclusive co-occurrence counts over ``keys``.

        One unpack + column sum instead of a Python loop over EID
        sets — the investigate path's co-traveler kernel.
        """
        rows = [self._row_of[k] for k in keys]
        if not rows:
            return np.zeros(len(self.interner), dtype=np.int64)
        packed = self._inclusive[np.asarray(rows, dtype=np.int64)]
        bits = np.unpackbits(
            np.ascontiguousarray(packed).view(np.uint8),
            axis=1,
            bitorder="little",
        )
        return bits[:, : len(self.interner)].sum(axis=0, dtype=np.int64)


#: Shared per-store matrices: every query over one store (the serving
#: layer's shards, convoy mining, repeated CLI runs) reuses one matrix
#: instead of re-packing the dataset per query.  Matrices hold their
#: store weakly, so an entry dies with its store.
_MATRICES: "weakref.WeakKeyDictionary[ScenarioStore, ScenarioMatrix]" = (
    weakref.WeakKeyDictionary()
)
_MATRICES_LOCK = threading.Lock()


def matrix_for(store: ScenarioStore) -> ScenarioMatrix:
    """The shared :class:`ScenarioMatrix` of ``store`` (built once,
    synced lazily; dropped automatically with the store)."""
    with _MATRICES_LOCK:
        matrix = _MATRICES.get(store)
        if matrix is None:
            matrix = ScenarioMatrix(store)
            _MATRICES[store] = matrix
        return matrix
