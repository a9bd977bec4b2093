"""EV-Scenario data model (paper Definition 1).

An *EV-Scenario* is "a snapshot of the EID and VID sets appearing in a
specific spatial region at a single time point", comprising an
E-Scenario (EIDs only) and a V-Scenario (VIDs only).  For the practical
setting the snapshot is taken over a short time window and each EID
carries an *inclusive* or *vague* attribute (Sec. IV-C.2).

On the V side the unit of data is a :class:`Detection`: one human figure
found in the scenario's video, carrying the extracted appearance feature
vector.  Crucially the matcher never sees which VID a detection belongs
to — the ``true_vid`` field is ground truth reserved for the accuracy
metric — because linking detections across scenarios by appearance *is*
the problem VID filtering solves.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.world.entities import EID, VID


@dataclass(frozen=True, order=True)
class ScenarioKey:
    """Identifies one scenario: a cell at a sampling instant (or window).

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
    """One human figure extracted from a V-Scenario's video.

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


@dataclass(frozen=True)
class VScenario:
    """The visual half of an EV-Scenario: the detections in one cell.

    The scenario stores already-extracted features so dataset generation
    is deterministic and cheap to replay; the *cost* of the extraction
    is charged by the matcher through the simulated clock when the
    scenario is first processed, reproducing where the paper's V-stage
    time goes.

    ``features`` is the ``(n, d)`` matrix whose rows are the detections'
    features.  The world build, the stream assembler and the dataset
    loader hand over the row block they already hold (each
    ``Detection.feature`` is a view of one of its rows), so the matrix
    costs no copy; any other constructor leaves it ``None`` and
    :meth:`feature_matrix` stacks it once, on first use.
    """

    key: ScenarioKey
    detections: Tuple[Detection, ...]
    features: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @property
    def num_detections(self) -> int:
        return len(self.detections)

    def feature_matrix(self) -> np.ndarray:
        """All detection features stacked into an ``(n, d)`` array
        (shared, not copied: callers must not write to it).

        A detection-less scenario's matrix is empty (``size == 0``), so
        callers can branch on ``size`` without special-casing.
        """
        features = self.features
        if features is None:
            if self.detections:
                features = np.stack([d.feature for d in self.detections])
            else:
                features = np.empty((0, 0))
            object.__setattr__(self, "features", features)
        return features

    def __len__(self) -> int:
        return len(self.detections)

    def __iter__(self) -> Iterator[Detection]:
        return iter(self.detections)


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

    The E stage iterates over E-Scenarios (cheap, always in memory);
    the V stage fetches V-Scenarios by key only for the selected lists,
    which is exactly the access pattern that makes set splitting save
    visual processing.
    """

    def __init__(self, scenarios: Sequence[EVScenario]) -> None:
        self._by_key: Dict[ScenarioKey, EVScenario] = {}
        self._ticks: Dict[int, List[ScenarioKey]] = {}
        #: Keys in arrival order — the incremental-sync log consumed by
        #: :class:`repro.core.accel.ScenarioMatrix` (append-only).
        self._arrival: List[ScenarioKey] = []
        self._eids: Set[EID] = set()
        self._sorted: List[ScenarioKey] = []
        self._keys_cache: Optional[Tuple[ScenarioKey, ...]] = None
        self._ticks_cache: Optional[Tuple[int, ...]] = None
        self._universe_cache: Optional[FrozenSet[EID]] = None
        for scenario in scenarios:
            if scenario.key in self._by_key:
                raise ValueError(f"duplicate scenario key {scenario.key}")
            self._by_key[scenario.key] = scenario
            self._ticks.setdefault(scenario.key.tick, []).append(scenario.key)
            self._arrival.append(scenario.key)
            self._eids.update(scenario.e.eids)
        for keys in self._ticks.values():
            keys.sort()
        # The (cell, tick) order ScenarioKey's own comparison defines,
        # by a C-level key: far cheaper than the dataclass ``__lt__``.
        self._sorted = sorted(self._by_key, key=attrgetter("cell_id", "tick"))

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
        self._arrival.append(scenario.key)
        insort(self._sorted, scenario.key)
        self._keys_cache = None
        if not self._eids.issuperset(scenario.e.eids):
            self._eids.update(scenario.e.eids)
            self._universe_cache = None

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

    def keys_since(self, start: int) -> Sequence[ScenarioKey]:
        """Keys ingested at arrival positions ``>= start``, in arrival
        order — the append-only log incremental index structures (the
        packed :class:`~repro.core.accel.ScenarioMatrix`, shard routing)
        consume to stay in sync without rescans."""
        return tuple(self._arrival[start:])

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

    def e_scenarios(self) -> Iterator[EScenario]:
        """All E-Scenarios in deterministic order."""
        for key in self.keys:
            yield self._by_key[key].e

    def keys_at_tick(self, tick: int) -> Sequence[ScenarioKey]:
        """Scenario keys of one sampling instant (parallel preprocess
        filters the scenario list "by a random time stamp")."""
        return tuple(self._ticks.get(tick, ()))

    def total_detections(self) -> int:
        """Total V-side detections — the dataset's visual volume."""
        return sum(len(s.v) for s in self._by_key.values())
