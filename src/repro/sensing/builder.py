"""Scenario builder: assembling EV-Scenarios from traces and sensors.

This is the bridge between the ground-truth world and the matcher's
input.  Time is divided into *windows* of ``window_ticks`` consecutive
trace samples (the paper "slightly modif[ies] the definition of
EV-Scenario by extending one single time point to a certain period of
time", Sec. IV-C.2); each (cell, window) pair yields one EV-Scenario.

**E side.**  Every sampled tick inside the window produces electronic
sightings through the :class:`~repro.sensing.e_sensing.ESensingModel`
(drift + misses).  Per cell and EID the builder counts in how many of
the window's ticks the EID's *observed* position fell in the cell, and
in how many of those it fell inside the cell's spatial vague band:

* appears in at least ``inclusive_threshold`` of the ticks, mostly
  outside the vague band  -> **inclusive**;
* appears in at least ``vague_threshold`` of the ticks (or meets the
  inclusive count but mostly inside the vague band)  -> **vague**;
* otherwise (appears "occasionally")  -> excluded.

With ``window_ticks=1``, ``vague_width=0`` and a noise-free sensing
model this degenerates to the paper's ideal setting: an EID is
inclusive iff truly inside the cell at the instant.

**V side.**  Detections are taken at the window's middle tick from the
people *truly* present in the cell (cameras do not drift), thinned by
the V-sensing miss rate, with noisy appearance features.

The raw per-window sensor output is exposed as
:meth:`ScenarioBuilder.sense_window` (a :class:`WindowSensing`) so that
the streaming ingestion layer (:mod:`repro.stream`) can replay
*exactly* the events this builder would aggregate — the
batch-equivalence guarantee is structural, not coincidental.  The batch
build, the trace replay and the live source all sense through
:meth:`ScenarioBuilder.sense_positions`.

**Columnar sensing.**  A window is sensed from a ``(people, ticks, 2)``
position array.  Cell lookup and zone classification run on whole
ticks (:meth:`~repro.world.cells.CellGrid.classify_many`), the E side
stays columnar (tick, cell, EID, vague arrays) until the stream asks
for :class:`CellSighting` objects, and the V side's feature arithmetic
runs once per tick.  The random draws stay scalar, in the order of the
per-object definition: per tick the E draws in EID order, then the V
draws in cell-then-VID order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.mobility.trace import TraceSet
from repro.sensing.e_sensing import ESensingModel
from repro.sensing.scenarios import (
    Detection,
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.sensing.v_sensing import VSensingModel
from repro.world.cells import ZONE_CODE, CellGrid, HexCellGrid, ZoneKind
from repro.world.entities import EID
from repro.world.population import Population

CellDecomposition = Union[CellGrid, HexCellGrid]
K = TypeVar("K", bound=Hashable)


@dataclass(frozen=True)
class CellSighting:
    """One cell-attributed electronic sighting: the E-side unit of raw
    sensor output (and the E-side stream event of :mod:`repro.stream`).

    Attributes:
        tick: the trace sample the sighting was captured at (event time).
        cell_id: the cell the *observed* (possibly drifted) position
            fell in.
        eid: the captured electronic identity.
        vague: whether the observed position fell inside the cell's
            spatial vague band.
    """

    tick: int
    cell_id: int
    eid: EID
    vague: bool


@dataclass(frozen=True)
class VFrame:
    """One cell's camera frame for a window: the V-side unit of raw
    sensor output (and the V-side stream event of :mod:`repro.stream`).

    A frame exists for every *occupied* cell of its window — a cell
    with at least one electronic sighting or one truly-present person —
    even when every detection was missed, because the batch builder
    records a scenario for exactly those cells.

    Attributes:
        tick: the window's middle tick (event time).
        cell_id: the filming cell.
        detections: the extracted appearance detections (may be empty).
        features: their ``(n, d)`` feature block (rows are the
            detections' features), or ``None`` when the frame was built
            without one.
    """

    tick: int
    cell_id: int
    detections: Tuple[Detection, ...]
    features: Optional[np.ndarray] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class WindowSensing:
    """Raw sensor output for one window, before aggregation.

    The E side is held as parallel columns, one entry per captured
    sighting in capture order (tick, then EID index); :attr:`sightings`
    builds the :class:`CellSighting` events from them on demand.

    Attributes:
        window: the window index.
        e_ticks: each sighting's tick.
        e_cells: the cell its observed position fell in.
        e_eids: the captured EID's index.
        e_vague: whether the observed position fell in the vague band.
        frames: one camera frame per occupied cell, in cell order.
        eids: the population's EID object of each index; sightings
            carry these, so a stream holds one object per identity.
    """

    window: int
    e_ticks: np.ndarray
    e_cells: np.ndarray
    e_eids: np.ndarray
    e_vague: np.ndarray
    frames: Tuple[VFrame, ...]
    eids: Mapping[int, EID] = field(compare=False, repr=False)

    @property
    def sightings(self) -> Tuple[CellSighting, ...]:
        """Every cell-attributed E sighting of the window's ticks, in
        capture order."""
        eids = self.eids
        return tuple(
            CellSighting(tick=tick, cell_id=cell_id, eid=eids[eid], vague=vague)
            for tick, cell_id, eid, vague in zip(
                self.e_ticks.tolist(),
                self.e_cells.tolist(),
                self.e_eids.tolist(),
                self.e_vague.tolist(),
            )
        )


def attribute_eids(
    counts: Mapping[K, int],
    vague_counts: Mapping[K, int],
    window_ticks: int,
    inclusive_threshold: float,
    vague_threshold: float,
) -> Tuple[List[K], List[K]]:
    """Classify each seen EID as inclusive / vague / excluded.

    The one attribution rule shared by the batch builder and the
    streaming window assembler: an EID observed in ``counts`` of the
    window's ticks is *inclusive* when it appears in at least
    ``inclusive_threshold`` of them mostly outside the vague band,
    *vague* when it appears in at least ``vague_threshold`` of them
    (or meets the inclusive count but mostly inside the band), and
    excluded otherwise.  The keys are EIDs or EID indices.
    """
    inclusive: List[K] = []
    vague: List[K] = []
    for eid, count in counts.items():
        frac = count / window_ticks
        mostly_in_band = vague_counts.get(eid, 0) * 2 > count
        if frac >= inclusive_threshold and not mostly_in_band:
            inclusive.append(eid)
        elif frac >= vague_threshold:
            vague.append(eid)
    return inclusive, vague


@dataclass(frozen=True)
class ScenarioBuilderConfig:
    """Windowing and attribution parameters.

    Attributes:
        window_ticks: trace samples aggregated into one scenario window.
            1 reproduces the ideal single-instant snapshot.
        inclusive_threshold: minimum fraction of the window's ticks an
            EID must be observed in the cell to count as inclusive
            ("appear mostly").
        vague_threshold: minimum fraction to count as vague ("appear
            adequately"); must not exceed ``inclusive_threshold``.
        seed: randomness for sensing noise, independent from the
            mobility seed so noise sweeps reuse identical trajectories.
    """

    window_ticks: int = 1
    inclusive_threshold: float = 0.75
    vague_threshold: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window_ticks <= 0:
            raise ValueError(f"window_ticks must be positive, got {self.window_ticks}")
        if not 0.0 < self.inclusive_threshold <= 1.0:
            raise ValueError(
                f"inclusive_threshold must be in (0, 1], got {self.inclusive_threshold}"
            )
        if not 0.0 < self.vague_threshold <= self.inclusive_threshold:
            raise ValueError(
                f"vague_threshold must be in (0, inclusive_threshold], got "
                f"{self.vague_threshold}"
            )


@dataclass(frozen=True)
class _Layout:
    """Which rows of a position array carry which identities.

    Attributes:
        person_ids: the person of each row.
        eid_rows: the carrier row of every EID, in EID-index order.
        eid_index: those EIDs' indices.
        vid_index: the VID index of each row's person.
    """

    person_ids: Tuple[int, ...]
    eid_rows: np.ndarray
    eid_index: np.ndarray
    vid_index: np.ndarray


class ScenarioBuilder:
    """Builds the full :class:`ScenarioStore` for one dataset."""

    def __init__(
        self,
        population: Population,
        grid: CellDecomposition,
        e_model: ESensingModel,
        v_model: VSensingModel,
        config: Optional[ScenarioBuilderConfig] = None,
    ) -> None:
        self.population = population
        self.grid = grid
        self.e_model = e_model
        self.v_model = v_model
        self.config = config if config is not None else ScenarioBuilderConfig()
        self._eids: Dict[int, EID] = {
            eid.index: eid for person in population.people for eid in person.all_eids
        }
        self._layout_cache: Optional[_Layout] = None

    def build(self, traces: TraceSet) -> ScenarioStore:
        """Run the sensors over every window of ``traces``.

        Returns a store with one EV-Scenario per (cell, window) that
        captured at least one EID or detection; fully empty scenarios
        are dropped, as a real deployment records nothing for them.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        num_windows = traces.num_ticks // cfg.window_ticks
        if num_windows == 0:
            raise ValueError(
                f"traces have {traces.num_ticks} ticks, fewer than one "
                f"window of {cfg.window_ticks}"
            )
        scenarios: List[EVScenario] = []
        for window in range(num_windows):
            scenarios.extend(self.assemble(self.sense_window(traces, window, rng)))
        return ScenarioStore(scenarios)

    def sense_window(
        self,
        traces: TraceSet,
        window: int,
        rng: np.random.Generator,
    ) -> WindowSensing:
        """Run the sensors over one window and return the raw output.

        Consumes ``rng`` in exactly the order :meth:`build` does, so a
        fresh builder replaying windows 0..n-1 produces byte-identical
        sightings and detections to the batch run — the property the
        streaming layer's equivalence guarantee rests on.
        """
        first_tick = window * self.config.window_ticks
        ticks = slice(first_tick, first_tick + self.config.window_ticks)
        return self.sense_positions(
            traces.row_person_ids, traces.positions[:, ticks], window, rng
        )

    def sense_positions(
        self,
        person_ids: Sequence[int],
        positions: np.ndarray,
        window: int,
        rng: np.random.Generator,
    ) -> WindowSensing:
        """Sense one window from ground truth.

        Args:
            person_ids: the person of each row of ``positions``.
            positions: ``(people, window_ticks, 2)`` true positions over
                the window's ticks.
            window: the window index.
            rng: randomness source for sensing noise.
        """
        cfg = self.config
        layout = self._layout(person_ids)
        first_tick = window * cfg.window_ticks
        vague_code = ZONE_CODE[ZoneKind.VAGUE]
        columns: List[Tuple[np.ndarray, ...]] = []
        for k in range(cfg.window_ticks):
            captured, observed = self.e_model.sense(
                positions[layout.eid_rows, k], rng
            )
            cell_ids, zones = self.grid.classify_many(observed)
            columns.append(
                (
                    np.full(len(captured), first_tick + k, dtype=np.int64),
                    cell_ids,
                    layout.eid_index[captured],
                    zones == vague_code,
                )
            )
        e_ticks, e_cells, e_eids, e_vague = (
            np.concatenate(column) for column in zip(*columns)
        )

        # V side: truth at the window's middle tick, thinned by misses,
        # filmed cell by cell in VID order.
        middle = cfg.window_ticks // 2
        truth = self.grid.locate_many(positions[:, middle])
        order = np.lexsort((layout.vid_index, truth))
        present_cells = truth[order]
        present_vids = layout.vid_index[order].tolist()
        frame_cells = np.union1d(e_cells, present_cells)
        starts = np.searchsorted(present_cells, frame_cells, side="left").tolist()
        ends = np.searchsorted(present_cells, frame_cells, side="right").tolist()
        blocks = self.v_model.sense(
            [present_vids[start:end] for start, end in zip(starts, ends)], rng
        )
        frames = tuple(
            VFrame(
                tick=first_tick + middle,
                cell_id=cell_id,
                detections=found,
                features=features,
            )
            for cell_id, (found, features) in zip(frame_cells.tolist(), blocks)
        )
        return WindowSensing(
            window=window,
            e_ticks=e_ticks,
            e_cells=e_cells,
            e_eids=e_eids,
            e_vague=e_vague,
            frames=frames,
            eids=self._eids,
        )

    def _layout(self, person_ids: Sequence[int]) -> _Layout:
        """The identity layout of position rows ``person_ids`` (cached
        for the last row order seen)."""
        person_ids = tuple(person_ids)
        cached = self._layout_cache
        if cached is not None and cached.person_ids == person_ids:
            return cached
        carried = sorted(
            (eid.index, row)
            for row, pid in enumerate(person_ids)
            for eid in self.population.person(pid).all_eids
        )
        layout = _Layout(
            person_ids=person_ids,
            eid_rows=np.array([row for _e, row in carried], dtype=np.int64),
            eid_index=np.array([e for e, _row in carried], dtype=np.int64),
            vid_index=np.array(
                [self.population.person(pid).vid.index for pid in person_ids],
                dtype=np.int64,
            ),
        )
        self._layout_cache = layout
        return layout

    def assemble(self, sensing: WindowSensing) -> List[EVScenario]:
        """Aggregate one window's raw sensor output into EV-Scenarios.

        Counts per (cell, eid) how often the drifted position landed in
        the cell (and how often inside its vague band), applies the
        attribution thresholds, and pairs each occupied cell's EID sets
        with its camera frame.
        """
        cfg = self.config
        seen: Dict[int, Dict[int, int]] = {}
        seen_vague: Dict[int, Dict[int, int]] = {}
        for cell_id, eid, vague in zip(
            sensing.e_cells.tolist(), sensing.e_eids.tolist(), sensing.e_vague.tolist()
        ):
            cell_counts = seen.get(cell_id)
            if cell_counts is None:
                cell_counts = seen[cell_id] = {}
            cell_counts[eid] = cell_counts.get(eid, 0) + 1
            if vague:
                vague_counts = seen_vague.setdefault(cell_id, {})
                vague_counts[eid] = vague_counts.get(eid, 0) + 1

        eids = self._eids
        scenarios: List[EVScenario] = []
        for frame in sensing.frames:
            key = ScenarioKey(cell_id=frame.cell_id, tick=sensing.window)
            inclusive, vague = attribute_eids(
                seen.get(frame.cell_id, {}),
                seen_vague.get(frame.cell_id, {}),
                cfg.window_ticks,
                cfg.inclusive_threshold,
                cfg.vague_threshold,
            )
            scenarios.append(
                EVScenario(
                    e=EScenario(
                        key=key,
                        inclusive=frozenset([eids[e] for e in inclusive]),
                        vague=frozenset([eids[e] for e in vague]),
                    ),
                    v=VScenario(
                        key=key, detections=frame.detections, features=frame.features
                    ),
                )
            )
        return scenarios
