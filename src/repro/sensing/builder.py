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
stays columnar (a :class:`SightingBatch` of tick, cell, EID and vague
arrays) through the stream and into attribution
(:func:`attribute_columns`), and the V side's feature arithmetic runs
once per tick.  The random draws stay scalar, in the order of the
per-object definition: per tick the E draws in EID order, then the V
draws in cell-then-VID order.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
    detection_columns,
)
from repro.sensing.v_sensing import VSensingModel
from repro.world.cells import ZONE_CODE, CellGrid, HexCellGrid, ZoneKind
from repro.world.entities import EID
from repro.world.population import Population

CellDecomposition = Union[CellGrid, HexCellGrid]


@dataclass(frozen=True, eq=False)
class VFrame:
    """One cell's camera frame for a window: the V-side unit of raw
    sensor output (and the V-side stream event of :mod:`repro.stream`).

    A frame exists for every *occupied* cell of its window — a cell
    with at least one electronic sighting or one truly-present person —
    even when every detection was missed, because the batch builder
    records a scenario for exactly those cells.

    The detections are held as the columns a
    :class:`~repro.sensing.scenarios.VScenario` stores, which takes
    them over as they are.

    Attributes:
        tick: the window's middle tick (event time).
        cell_id: the filming cell.
        detection_ids: the extracted detections' ids (int64; may be
            empty).
        vids: their ground-truth VID indices (int64).
        features: their ``(n, d)`` feature block.

    Two frames are equal when their tick, cell and detection ids are.
    """

    tick: int
    cell_id: int
    detection_ids: np.ndarray = field(repr=False)
    vids: np.ndarray = field(repr=False)
    features: np.ndarray = field(repr=False)

    @classmethod
    def of(
        cls, tick: int, cell_id: int, detections: Sequence[Detection] = ()
    ) -> "VFrame":
        """The frame holding ``detections``, in order, as columns."""
        return cls(tick, cell_id, *detection_columns(detections))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VFrame):
            return NotImplemented
        return (
            self.tick == other.tick
            and self.cell_id == other.cell_id
            and np.array_equal(self.detection_ids, other.detection_ids)
        )

    def __hash__(self) -> int:
        return hash((self.tick, self.cell_id))


@dataclass(frozen=True, eq=False)
class SightingBatch:
    """An arrival-ordered run of electronic sightings, held as columns:
    the E-side unit of raw sensor output (and the E-side transport unit
    of :mod:`repro.stream`).

    Attributes:
        ticks: each sighting's trace sample (event time).
        cells: the cell its *observed* (possibly drifted) position
            fell in.
        eids: the captured EID's index.
        vague: whether the observed position fell inside the cell's
            spatial vague band.
        eid_table: the population's EID object of each index, so
            assembled scenarios hold one object per identity.
    """

    ticks: np.ndarray
    cells: np.ndarray
    eids: np.ndarray
    vague: np.ndarray
    eid_table: Mapping[int, EID] = field(repr=False)

    @classmethod
    def concat(cls, batches: Sequence["SightingBatch"]) -> "SightingBatch":
        """The sightings of ``batches`` (at least one) end to end; their
        EID tables are chained when they differ."""
        if len(batches) == 1:
            return batches[0]
        tables = list(
            {id(b.eid_table): b.eid_table for b in reversed(batches)}.values()
        )
        return cls(
            ticks=np.concatenate([b.ticks for b in batches]),
            cells=np.concatenate([b.cells for b in batches]),
            eids=np.concatenate([b.eids for b in batches]),
            vague=np.concatenate([b.vague for b in batches]),
            eid_table=tables[0] if len(tables) == 1 else ChainMap(*tables),
        )

    def __len__(self) -> int:
        return len(self.ticks)

    def __getitem__(self, rows) -> "SightingBatch":
        """The sightings at ``rows`` (a slice, mask or index array)."""
        return SightingBatch(
            ticks=self.ticks[rows],
            cells=self.cells[rows],
            eids=self.eids[rows],
            vague=self.vague[rows],
            eid_table=self.eid_table,
        )


@dataclass(frozen=True, eq=False)
class WindowSensing:
    """Raw sensor output for one window, before aggregation.

    Attributes:
        window: the window index.
        e: every E sighting of the window's ticks, in capture order
            (tick, then EID index).
        frames: one camera frame per occupied cell, in cell order.
    """

    window: int
    e: SightingBatch
    frames: Tuple[VFrame, ...]


def attribute_columns(
    cells: np.ndarray,
    eids: np.ndarray,
    vague: np.ndarray,
    window_ticks: int,
    inclusive_threshold: float,
    vague_threshold: float,
) -> Dict[int, Tuple[Sequence[int], Sequence[int]]]:
    """Classify the EIDs one window's sightings saw, cell by cell.

    The one attribution rule shared by the batch builder and the
    streaming window assembler: an EID observed in ``count`` of the
    window's ticks is *inclusive* when it appears in at least
    ``inclusive_threshold`` of them mostly outside the vague band,
    *vague* when it appears in at least ``vague_threshold`` of them
    (or meets the inclusive count but mostly inside the band), and
    excluded otherwise.

    Returns, for every cell with a sighting, its inclusive and vague
    EID indices, each in the order the sightings first saw them.
    """
    if len(cells) == 0:
        return {}
    stride = int(eids.max()) + 1
    pairs, first, inverse, counts = np.unique(
        cells * stride + eids,
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    vague_counts = np.bincount(inverse.ravel()[vague], minlength=len(pairs))
    frac = counts / window_ticks
    inclusive = (frac >= inclusive_threshold) & ~(vague_counts * 2 > counts)
    kept = inclusive | (frac >= vague_threshold)
    pairs, first, inclusive = pairs[kept], first[kept], inclusive[kept]
    pair_cells = pairs // stride
    order = np.lexsort((first, pair_cells))
    pair_cells = pair_cells[order]
    pair_eids = pairs[order] % stride
    inclusive = inclusive[order]
    attributed: Dict[int, Tuple[Sequence[int], Sequence[int]]] = dict.fromkeys(
        np.unique(cells).tolist(), ((), ())
    )
    starts = np.flatnonzero(np.diff(pair_cells, prepend=pair_cells[:1] - 1)).tolist()
    for start, end in zip(starts, starts[1:] + [len(pair_cells)]):
        ids, inc = pair_eids[start:end], inclusive[start:end]
        attributed[int(pair_cells[start])] = (ids[inc].tolist(), ids[~inc].tolist())
    return attributed


def window_scenarios(
    window: int,
    cells: np.ndarray,
    eids: np.ndarray,
    vague: np.ndarray,
    frames: Mapping[int, VFrame],
    eid_table: Mapping[int, EID],
    window_ticks: int,
    inclusive_threshold: float,
    vague_threshold: float,
) -> List[EVScenario]:
    """One window's EV-Scenarios, one per occupied cell in cell order.

    A cell is occupied when it has a sighting or a camera frame; its
    EID sets come from :func:`attribute_columns` over the window's
    sighting columns, its detections from its frame (none without one).
    """
    attributed = attribute_columns(
        cells, eids, vague, window_ticks, inclusive_threshold, vague_threshold
    )
    scenarios: List[EVScenario] = []
    for cell_id in sorted(attributed.keys() | frames.keys()):
        key = ScenarioKey(cell_id=cell_id, tick=window)
        inclusive, vague_ids = attributed.get(cell_id, ((), ()))
        frame = frames.get(cell_id)
        scenarios.append(
            EVScenario(
                e=EScenario(
                    key=key,
                    inclusive=frozenset([eid_table[e] for e in inclusive]),
                    vague=frozenset([eid_table[e] for e in vague_ids]),
                ),
                v=(
                    VScenario.of(key)
                    if frame is None
                    else VScenario(
                        key, frame.detection_ids, frame.vids, frame.features
                    )
                ),
            )
        )
    return scenarios


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
            VFrame(first_tick + middle, cell_id, ids, vids, features)
            for cell_id, (ids, vids, features) in zip(frame_cells.tolist(), blocks)
        )
        return WindowSensing(
            window=window,
            e=SightingBatch(
                ticks=e_ticks,
                cells=e_cells,
                eids=e_eids,
                vague=e_vague,
                eid_table=self._eids,
            ),
            frames=frames,
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
        """Aggregate one window's raw sensor output into EV-Scenarios:
        attribute the window's sightings per cell and pair each occupied
        cell's EID sets with its camera frame."""
        cfg = self.config
        e = sensing.e
        return window_scenarios(
            sensing.window,
            e.cells,
            e.eids,
            e.vague,
            {frame.cell_id: frame for frame in sensing.frames},
            e.eid_table,
            cfg.window_ticks,
            cfg.inclusive_threshold,
            cfg.vague_threshold,
        )
