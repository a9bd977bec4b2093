"""EV-Scenario data model (paper Definition 1).

An *EV-Scenario* is "a snapshot of the EID and VID sets appearing in a
specific spatial region at a single time point", comprising an
E-Scenario (EIDs only) and a V-Scenario (VIDs only).  For the practical
setting the snapshot is taken over a short time window and each EID
carries an *inclusive* or *vague* attribute (Sec. IV-C.2).

On the V side the unit of data is a detection: one human figure found
in the scenario's video, carrying the extracted appearance feature
vector.  A :class:`VScenario` holds its detections as columns (ids,
ground-truth VID indices and the feature block); a :class:`Detection`
object is only a view built when a caller asks for one.  Crucially the
matcher never sees which VID a detection belongs to — the VID column is
ground truth reserved for the accuracy metric — because linking
detections across scenarios by appearance *is* the problem VID
filtering solves.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.world.entities import EID, VID

#: The columns of a detection-less V-Scenario (shared; never written).
_NO_IDS = np.empty(0, dtype=np.int64)
_NO_FEATURES = np.empty((0, 0))

#: An EID's index, read at C level (an E-Scenario's index column).
_INDEX = attrgetter("index")

#: One shared :class:`EID` per index for the co-occurrence count's
#: answers, which result caches hold: a fresh object per answered pair
#: would cost about 100 bytes each.  Bounded, because indices arrive
#: from outside.
_eid = lru_cache(maxsize=1 << 16)(EID)

#: One shared :class:`VID` per index for the detection views, so equal
#: VIDs are one object (dict and set lookups short-cut on identity).
_vid = lru_cache(maxsize=None)(VID)


class ScenarioKey(NamedTuple):
    """Identifies one scenario: a cell at a sampling instant (or window).

    A named tuple, so a key hashes, compares and sorts in C, in
    ``(cell_id, tick)`` order: keys are dict and set members on every
    matching path.

    Attributes:
        cell_id: which cell of the decomposition.
        tick: index of the sampling instant (ideal setting) or of the
            aggregation window (practical setting).
    """

    cell_id: int
    tick: int

    def __str__(self) -> str:
        return f"S(c{self.cell_id}@t{self.tick})"


@dataclass(frozen=True)
class EScenario:
    """The electronic half of an EV-Scenario.

    Attributes:
        key: which cell/instant this snapshot covers.
        inclusive: EIDs confidently inside the cell.
        vague: EIDs near the border (practical setting only; empty in
            the ideal setting).
    """

    key: ScenarioKey
    inclusive: FrozenSet[EID]
    vague: FrozenSet[EID] = frozenset()

    def __post_init__(self) -> None:
        overlap = self.inclusive & self.vague
        if overlap:
            raise ValueError(
                f"EIDs cannot be both inclusive and vague in {self.key}: "
                f"{sorted(e.index for e in overlap)}"
            )

    @cached_property
    def inclusive_ids(self) -> np.ndarray:
        """The inclusive EIDs' indices, sorted, as one int64 column:
        the co-occurrence count concatenates these instead of reading
        EIDs one by one.  Derived on first use and kept, so only the
        scenarios such counts read pay for it."""
        ids = np.fromiter(
            map(_INDEX, self.inclusive), dtype=np.int64, count=len(self.inclusive)
        )
        ids.sort()
        return ids

    @property
    def eids(self) -> FrozenSet[EID]:
        """All EIDs captured in this scenario, regardless of attribute."""
        return self.inclusive | self.vague

    def __contains__(self, eid: EID) -> bool:
        return eid in self.inclusive or eid in self.vague

    def __len__(self) -> int:
        return len(self.inclusive) + len(self.vague)


@dataclass(frozen=True)
class Detection:
    """One human figure extracted from a V-Scenario's video: a view of
    one row of a :class:`VScenario`'s columns, built on demand.

    Attributes:
        detection_id: unique id across the whole dataset, used to track
            a specific figure through the filtering pipeline.
        feature: the extracted appearance feature vector (unit norm).
        true_vid: ground truth — which person this figure actually is.
            Only the accuracy metric may read it.
    """

    detection_id: int
    feature: np.ndarray = field(repr=False, compare=False)
    true_vid: VID = field(compare=False)

    def __hash__(self) -> int:
        return hash(self.detection_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Detection):
            return NotImplemented
        return self.detection_id == other.detection_id


def detection_columns(
    detections: Sequence[Detection],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``detections`` as the three columns a :class:`VScenario` holds:
    ids, VID indices and the stacked feature block (empty, with
    ``size == 0``, for no detections)."""
    if not detections:
        return _NO_IDS, _NO_IDS, _NO_FEATURES
    return (
        np.array([d.detection_id for d in detections], dtype=np.int64),
        np.array([d.true_vid.index for d in detections], dtype=np.int64),
        np.stack([d.feature for d in detections]),
    )


@dataclass(frozen=True, eq=False)
class VScenario:
    """The visual half of an EV-Scenario: the detections in one cell,
    held as three aligned columns.

    The scenario stores already-extracted features so dataset generation
    is deterministic and cheap to replay; the *cost* of the extraction
    is charged by the matcher through the simulated clock when the
    scenario is first processed, reproducing where the paper's V-stage
    time goes.

    The matcher reads a V-Scenario only as feature rows (Eq. 1), so no
    per-detection object is stored: a :class:`Detection` is built on
    demand, by :meth:`detection` for one row (kept for the rows the V
    stage chooses) or :attr:`detections` for all of them.  The world
    build, the stream assembler and the dataset loader hand over the
    row blocks they already hold, so the columns cost no copy; callers
    must not write to them.

    Attributes:
        key: which cell/instant this snapshot covers.
        detection_ids: each detection's dataset-wide id (int64).
        vids: each detection's ground-truth VID index (int64); only the
            accuracy metric may read it.
        features: the ``(n, d)`` block whose rows are the detections'
            features.  A detection-less scenario's block is empty
            (``size == 0``), so callers can branch on ``size``.

    Two V-Scenarios are equal when their keys and detection ids are.
    """

    key: ScenarioKey
    detection_ids: np.ndarray = field(repr=False)
    vids: np.ndarray = field(repr=False)
    features: np.ndarray = field(repr=False)
    _chosen: Dict[int, Detection] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        n = len(self.detection_ids)
        if len(self.vids) != n or self.features.shape[0] != n:
            raise ValueError(
                f"misaligned detection columns in {self.key}: {n} ids, "
                f"{len(self.vids)} VIDs, {self.features.shape[0]} feature rows"
            )

    @classmethod
    def of(
        cls, key: ScenarioKey, detections: Sequence[Detection] = ()
    ) -> "VScenario":
        """The V-Scenario holding ``detections``, in order, as columns."""
        return cls(key, *detection_columns(detections))

    @property
    def num_detections(self) -> int:
        return len(self.detection_ids)

    def detection(self, i: int) -> Detection:
        """Detection ``i`` as an object (its feature is a row view),
        built on first use and kept: the V stage asks for each
        scenario's winner on every match, and a warm match then
        allocates none."""
        found = self._chosen.get(i)
        if found is None:
            found = self._chosen[i] = Detection(
                int(self.detection_ids[i]), self.features[i], _vid(int(self.vids[i]))
            )
        return found

    @property
    def detections(self) -> Tuple[Detection, ...]:
        """Every detection as an object, built on each call."""
        return tuple(
            Detection(detection_id, feature, _vid(vid))
            for detection_id, feature, vid in zip(
                self.detection_ids.tolist(), self.features, self.vids.tolist()
            )
        )

    def __len__(self) -> int:
        return len(self.detection_ids)

    def __iter__(self) -> Iterator[Detection]:
        return iter(self.detections)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VScenario):
            return NotImplemented
        return self.key == other.key and np.array_equal(
            self.detection_ids, other.detection_ids
        )

    def __hash__(self) -> int:
        return hash(self.key)


@dataclass(frozen=True)
class EVScenario:
    """An E-Scenario paired with its corresponding V-Scenario."""

    e: EScenario
    v: VScenario

    def __post_init__(self) -> None:
        if self.e.key != self.v.key:
            raise ValueError(
                f"mismatched halves: E is {self.e.key}, V is {self.v.key}"
            )

    @property
    def key(self) -> ScenarioKey:
        return self.e.key


class ScenarioStore:
    """All EV-Scenarios of one dataset, indexed for the matcher.

    The E stage walks the E-Scenarios themselves (cheap, always in
    memory), which the store keeps in key order beside the keys; the V
    stage fetches V-Scenarios by key only for the selected lists,
    which is exactly the access pattern that makes set splitting save
    visual processing.

    The store also owns the one inverted EID index
    (:meth:`scenarios_of`), which EDP, investigations, convoy mining
    and :class:`~repro.sensing.index.ScenarioIndex` all read.  It is
    built on the first read, so a batch run that never asks pays
    nothing, and once built :meth:`add` appends to it.  Reads and
    :meth:`add` must not overlap: a concurrent owner (the query
    service) reads it once up front and appends under its write lock.
    """

    def __init__(self, scenarios: Sequence[EVScenario]) -> None:
        self._by_key: Dict[ScenarioKey, EVScenario] = {}
        self._ticks: Dict[int, List[ScenarioKey]] = {}
        self._eids: Set[EID] = set()
        self._keys_cache: Optional[Tuple[ScenarioKey, ...]] = None
        self._e_cache: Optional[Tuple[EScenario, ...]] = None
        self._ticks_cache: Optional[Tuple[int, ...]] = None
        self._universe_cache: Optional[FrozenSet[EID]] = None
        #: EID -> the keys of the scenarios holding it (inclusive or
        #: vague), in arrival order; ``None`` until first read.
        self._by_eid: Optional[Dict[EID, List[ScenarioKey]]] = None
        for scenario in scenarios:
            if scenario.key in self._by_key:
                raise ValueError(f"duplicate scenario key {scenario.key}")
            self._by_key[scenario.key] = scenario
            self._ticks.setdefault(scenario.key.tick, []).append(scenario.key)
            self._eids.update(scenario.e.eids)
        for keys in self._ticks.values():
            keys.sort()
        #: Every key in (cell, tick) order, and each key's E-Scenario
        #: at the same position.
        self._sorted: List[ScenarioKey] = sorted(self._by_key)
        self._sorted_e: List[EScenario] = [
            self._by_key[key].e for key in self._sorted
        ]

    def add(self, scenario: EVScenario) -> None:
        """Append one scenario (live ingestion path).

        The serving layer grows a standing store as new windows
        arrive; the key must be new — re-observing a (cell, tick)
        snapshot is a data error, not an update.
        """
        if scenario.key in self._by_key:
            raise ValueError(f"duplicate scenario key {scenario.key}")
        self._by_key[scenario.key] = scenario
        tick_keys = self._ticks.get(scenario.key.tick)
        if tick_keys is None:
            self._ticks[scenario.key.tick] = [scenario.key]
            self._ticks_cache = None
        else:
            insort(tick_keys, scenario.key)
        at = bisect_left(self._sorted, scenario.key)
        self._sorted.insert(at, scenario.key)
        self._sorted_e.insert(at, scenario.e)
        self._keys_cache = None
        self._e_cache = None
        if not self._eids.issuperset(scenario.e.eids):
            self._eids.update(scenario.e.eids)
            self._universe_cache = None
        if self._by_eid is not None:
            _index_into(self._by_eid, scenario.e)

    @property
    def keys(self) -> Sequence[ScenarioKey]:
        """All scenario keys in deterministic (cell, tick) order."""
        if self._keys_cache is None:
            self._keys_cache = tuple(self._sorted)
        return self._keys_cache

    @property
    def ticks(self) -> Sequence[int]:
        """All sampling instants that have at least one scenario."""
        if self._ticks_cache is None:
            self._ticks_cache = tuple(sorted(self._ticks.keys()))
        return self._ticks_cache

    @property
    def eid_universe(self) -> FrozenSet[EID]:
        """Every EID observed (inclusive or vague) in any scenario.

        Maintained incrementally by :meth:`add`, so matchers asking for
        the observed universe never rescan the whole store.
        """
        if self._universe_cache is None:
            self._universe_cache = frozenset(self._eids)
        return self._universe_cache

    def scenarios_of(self, eid: EID) -> Tuple[ScenarioKey, ...]:
        """The keys of every scenario whose E side holds ``eid``
        (inclusive or vague), in (cell, tick) order; empty for an EID
        never seen.

        The lists keep arrival order and each read sorts a copy:
        keeping every list sorted on :meth:`add` (``insort``) doubled
        the cost of an add, which runs under the service's write lock,
        to save about 5 µs per read.
        """
        by_eid = self._by_eid
        if by_eid is None:
            by_eid = self._by_eid = {}
            for e_scenario in self._sorted_e:
                _index_into(by_eid, e_scenario)
        return tuple(sorted(by_eid.get(eid, ())))

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, key: ScenarioKey) -> bool:
        return key in self._by_key

    def get(self, key: ScenarioKey) -> EVScenario:
        try:
            return self._by_key[key]
        except KeyError:
            raise KeyError(f"no scenario {key}") from None

    def e_scenario(self, key: ScenarioKey) -> EScenario:
        return self.get(key).e

    def v_scenario(self, key: ScenarioKey) -> VScenario:
        return self.get(key).v

    def e_scenarios(self) -> Sequence[EScenario]:
        """All E-Scenarios in (cell, tick) order, aligned with
        :attr:`keys`."""
        if self._e_cache is None:
            self._e_cache = tuple(self._sorted_e)
        return self._e_cache

    def keys_at_tick(self, tick: int) -> Sequence[ScenarioKey]:
        """Scenario keys of one sampling instant (parallel preprocess
        filters the scenario list "by a random time stamp")."""
        return tuple(self._ticks.get(tick, ()))

    def total_detections(self) -> int:
        """Total V-side detections — the dataset's visual volume."""
        return sum(len(s.v.detection_ids) for s in self._by_key.values())


def _index_into(
    by_eid: Dict[EID, List[ScenarioKey]], e_scenario: EScenario
) -> None:
    """Append ``e_scenario``'s key under each of its EIDs: one dict
    lookup per EID, the two attributes read apart so no union set is
    built."""
    key = e_scenario.key
    for eids in (e_scenario.inclusive, e_scenario.vague):
        for eid in eids:
            by_eid.setdefault(eid, []).append(key)


def inclusive_keys(
    store: ScenarioStore, eid: EID, keys: Iterable[ScenarioKey]
) -> List[ScenarioKey]:
    """The ``keys`` whose E-Scenario holds ``eid`` as inclusive, in the
    order given: ``eid``'s confident sightings among them."""
    return [key for key in keys if eid in store.e_scenario(key).inclusive]


def co_travelers(
    store: ScenarioStore,
    eid: EID,
    keys: Iterable[ScenarioKey],
    min_shared: int,
) -> List[Tuple[EID, int]]:
    """Who shares at least ``min_shared`` of ``eid``'s confident
    sightings among ``keys``, as ``(EID, count)`` pairs, most-shared
    first (ties by EID).

    Keeps the keys where ``eid`` is inclusive and counts every EID over
    those scenarios' inclusive sets; vague sightings count on neither
    side.  The count is one ``np.unique`` over the concatenated
    :attr:`EScenario.inclusive_ids` columns, so its memory follows the
    number of sightings, never the size of an index: indices arrive
    from outside (the cluster and checkpoint codecs) and span the
    40-bit MAC range.
    """
    if min_shared <= 0:
        raise ValueError(f"min_shared must be positive, got {min_shared}")
    columns = [
        e_scenario.inclusive_ids
        for e_scenario in map(store.e_scenario, keys)
        if eid in e_scenario.inclusive
    ]
    indices = np.concatenate(columns) if columns else _NO_IDS
    ids, counts = np.unique(indices, return_counts=True)
    keep = (counts >= min_shared) & (ids != eid.index)
    ids, counts = ids[keep], counts[keep]
    order = np.argsort(-counts, kind="stable")  # ids ascend: ties by EID
    return [
        (_eid(index), n)
        for index, n in zip(ids[order].tolist(), counts[order].tolist())
    ]


def presence_windows(keys: Iterable[ScenarioKey]) -> List[Tuple[int, int, int]]:
    """Collapse sightings into contiguous dwell runs ``(cell, first,
    last)``, ordered by first tick then cell: the shape an
    investigator reads ("in cell 7 from t=40 to t=180")."""
    by_cell: Dict[int, List[int]] = {}
    for key in keys:
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
