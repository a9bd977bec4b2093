"""The stream one event at a time: the executable spec of the batched
stream.

This is the per-event path the columnar stream replaced, kept literal
so the property suite can check production against it:

* :class:`CellSighting` is one E sighting as an object;
* :class:`WindowAssembler` observes the watermark, tests lateness and
  closes ready windows after every single event, counting sightings in
  per-(cell, EID) dicts;
* :func:`run_events` is the pipeline's per-event apply loop: it counts
  every event by kind, honours a ``max_events`` kill, and flushes at
  the end of an unkilled stream.

:func:`explode` and :func:`batches_of` convert between production's
stream items (sighting batches and frames) and single events, and
:func:`checkpoint_document` encodes a checkpoint's open frames one
detection object at a time.

Only configuration, :class:`~repro.sensing.builder.VFrame` and the
scenario types are shared with production; the attribution rule is
transcribed here (:func:`attribute_eids`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.sensing.builder import SightingBatch, VFrame
from repro.sensing.scenarios import (
    Detection,
    EScenario,
    EVScenario,
    ScenarioKey,
    VScenario,
)
from repro.world.entities import EID, VID

K = TypeVar("K", bound=Hashable)


@dataclass(frozen=True)
class CellSighting:
    """One cell-attributed electronic sighting at one trace tick."""

    tick: int
    cell_id: int
    eid: EID
    vague: bool


def explode(items: Iterable) -> List:
    """Production stream items as single events, in order: one
    :class:`CellSighting` per row of each batch, frames as they are."""
    events: List = []
    for item in items:
        if isinstance(item, VFrame):
            events.append(item)
            continue
        table = item.eid_table
        events.extend(
            CellSighting(tick=tick, cell_id=cell, eid=table[eid], vague=vague)
            for tick, cell, eid, vague in zip(
                item.ticks.tolist(),
                item.cells.tolist(),
                item.eids.tolist(),
                item.vague.tolist(),
            )
        )
    return events


def batches_of(events: Sequence, cuts: Iterable[int] = ()) -> List:
    """Single events as production stream items: each run of sightings
    between frames becomes one batch, also cut before every event
    position in ``cuts``."""
    cuts = set(cuts)
    items: List = []
    run: List[CellSighting] = []

    def close_run() -> None:
        if run:
            items.append(
                SightingBatch(
                    ticks=np.array([s.tick for s in run], dtype=np.int64),
                    cells=np.array([s.cell_id for s in run], dtype=np.int64),
                    eids=np.array([s.eid.index for s in run], dtype=np.int64),
                    vague=np.array([s.vague for s in run], dtype=bool),
                    eid_table={s.eid.index: s.eid for s in run},
                )
            )
            run.clear()

    for position, event in enumerate(events):
        if position in cuts:
            close_run()
        if isinstance(event, VFrame):
            close_run()
            items.append(event)
        else:
            run.append(event)
    close_run()
    return items


def attribute_eids(
    counts: Mapping[K, int],
    vague_counts: Mapping[K, int],
    window_ticks: int,
    inclusive_threshold: float,
    vague_threshold: float,
) -> Tuple[List[K], List[K]]:
    """Classify each seen EID as inclusive / vague / excluded, in the
    order ``counts`` first saw them."""
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


class WatermarkTracker:
    """``max event tick seen - allowed_lateness``, one event at a time."""

    def __init__(self, allowed_lateness: int = 0) -> None:
        self.allowed_lateness = allowed_lateness
        self.max_tick: Optional[int] = None
        self.events_seen = 0

    def observe(self, tick: int) -> None:
        if tick < 0:
            raise ValueError(f"event tick must be non-negative, got {tick}")
        self.events_seen += 1
        if self.max_tick is None or tick > self.max_tick:
            self.max_tick = tick

    @property
    def watermark(self) -> Optional[int]:
        if self.max_tick is None:
            return None
        return self.max_tick - self.allowed_lateness

    def window_closable(self, window: int, window_ticks: int) -> bool:
        mark = self.watermark
        if mark is None:
            return False
        return (window + 1) * window_ticks - 1 < mark


@dataclass
class OpenWindow:
    """Aggregation state for one not-yet-closed window."""

    counts: Dict[int, Dict[EID, int]] = field(default_factory=dict)
    vague: Dict[int, Dict[EID, int]] = field(default_factory=dict)
    frames: Dict[int, VFrame] = field(default_factory=dict)

    def absorb_sighting(self, event: CellSighting) -> None:
        cell_counts = self.counts.setdefault(event.cell_id, {})
        cell_counts[event.eid] = cell_counts.get(event.eid, 0) + 1
        if event.vague:
            vague_counts = self.vague.setdefault(event.cell_id, {})
            vague_counts[event.eid] = vague_counts.get(event.eid, 0) + 1

    def absorb_frame(self, event: VFrame) -> None:
        self.frames[event.cell_id] = event

    def occupied_cells(self) -> List[int]:
        return sorted(set(self.counts) | set(self.frames))


@dataclass(frozen=True)
class ClosedWindow:
    """One window's finished output: the scenarios it produced."""

    window: int
    scenarios: Tuple[EVScenario, ...]


class WindowAssembler:
    """Aggregates single events into windows; after every event it
    advances the watermark and closes each window it proves complete."""

    def __init__(
        self,
        window_ticks: int = 1,
        inclusive_threshold: float = 0.75,
        vague_threshold: float = 0.25,
        allowed_lateness: int = 0,
    ) -> None:
        self.window_ticks = window_ticks
        self.inclusive_threshold = inclusive_threshold
        self.vague_threshold = vague_threshold
        self.watermark = WatermarkTracker(allowed_lateness)
        self._open: Dict[int, OpenWindow] = {}
        self.next_window = 0
        self.late_dropped = 0
        self.windows_closed = 0
        self.peak_open_windows = 0

    def offer(self, event) -> Tuple[List[ClosedWindow], bool]:
        """Absorb one event; returns ``(closed windows, was_late)``."""
        self.watermark.observe(event.tick)
        window = event.tick // self.window_ticks
        late = window < self.next_window
        if not late:
            state = self._open.get(window)
            if state is None:
                state = self._open[window] = OpenWindow()
            if isinstance(event, VFrame):
                state.absorb_frame(event)
            else:
                state.absorb_sighting(event)
            if len(self._open) > self.peak_open_windows:
                self.peak_open_windows = len(self._open)
        else:
            self.late_dropped += 1
        closed: List[ClosedWindow] = []
        while self.watermark.window_closable(self.next_window, self.window_ticks):
            closed.append(self._close(self.next_window))
            self.next_window += 1
        return closed, late

    def flush(self) -> List[ClosedWindow]:
        """End of stream: close every remaining open window, in order."""
        closed = [
            self._close(window)
            for window in sorted(self._open)
            if window >= self.next_window
        ]
        if closed:
            self.next_window = closed[-1].window + 1
        return closed

    def _close(self, window: int) -> ClosedWindow:
        state = self._open.pop(window, None)
        scenarios: List[EVScenario] = []
        if state is not None:
            for cell_id in state.occupied_cells():
                key = ScenarioKey(cell_id=cell_id, tick=window)
                inclusive, vague = attribute_eids(
                    state.counts.get(cell_id, {}),
                    state.vague.get(cell_id, {}),
                    self.window_ticks,
                    self.inclusive_threshold,
                    self.vague_threshold,
                )
                scenarios.append(
                    EVScenario(
                        e=EScenario(
                            key=key,
                            inclusive=frozenset(inclusive),
                            vague=frozenset(vague),
                        ),
                        v=(
                            VScenario(
                                key,
                                state.frames[cell_id].detection_ids,
                                state.frames[cell_id].vids,
                                state.frames[cell_id].features,
                            )
                            if cell_id in state.frames
                            else VScenario.of(key)
                        ),
                    )
                )
        self.windows_closed += 1
        return ClosedWindow(window=window, scenarios=tuple(scenarios))

    @property
    def open_windows(self) -> int:
        return len(self._open)


@dataclass
class OracleRun:
    """Everything one per-event run produced."""

    closed: List[ClosedWindow]
    events_applied: int
    kinds: Dict[str, int]
    late_dropped: int
    windows_closed: int
    peak_open_windows: int
    watermark: Optional[int]
    killed: bool


def run_events(
    events: Iterable,
    window_ticks: int = 1,
    inclusive_threshold: float = 0.75,
    vague_threshold: float = 0.25,
    allowed_lateness: int = 0,
    max_events: Optional[int] = None,
) -> OracleRun:
    """The pipeline's apply loop, one event at a time: count the event
    by kind, offer it, collect what closes; stop after ``max_events``
    (a kill: no flush), else flush at the end."""
    assembler = WindowAssembler(
        window_ticks=window_ticks,
        inclusive_threshold=inclusive_threshold,
        vague_threshold=vague_threshold,
        allowed_lateness=allowed_lateness,
    )
    closed: List[ClosedWindow] = []
    kinds = {"e": 0, "v": 0}
    applied = 0
    killed = False
    for event in events:
        applied += 1
        kinds["v" if isinstance(event, VFrame) else "e"] += 1
        windows, _late = assembler.offer(event)
        closed.extend(windows)
        if max_events is not None and applied >= max_events:
            killed = True
            break
    if not killed:
        closed.extend(assembler.flush())
    return OracleRun(
        closed=closed,
        events_applied=applied,
        kinds=kinds,
        late_dropped=assembler.late_dropped,
        windows_closed=assembler.windows_closed,
        peak_open_windows=assembler.peak_open_windows,
        watermark=assembler.watermark.watermark,
        killed=killed,
    )


def checkpoint_document(checkpoint) -> Dict:
    """The version-2 checkpoint document of a production
    :class:`~repro.stream.checkpoint.StreamCheckpoint`, its frames
    encoded one :class:`Detection` object at a time as
    ``[id, VID index, [float, ...]]``."""

    def detection_json(detection: Detection) -> list:
        return [
            detection.detection_id,
            detection.true_vid.index,
            [float(x) for x in detection.feature],
        ]

    def window_json(state) -> Dict:
        sightings = state.sightings()
        return {
            "sightings": {
                column: (
                    [] if sightings is None else getattr(sightings, column).tolist()
                )
                for column in ("ticks", "cells", "eids", "vague")
            },
            "frames": {
                str(cell): {
                    "tick": frame.tick,
                    "detections": [
                        detection_json(Detection(int(i), feature, VID(int(v))))
                        for i, v, feature in zip(
                            frame.detection_ids, frame.vids, frame.features
                        )
                    ],
                }
                for cell, frame in state.frames.items()
            },
        }

    return {
        "version": 2,
        "config": checkpoint.config,
        "events_processed": checkpoint.events_processed,
        "max_tick": checkpoint.max_tick,
        "events_seen": checkpoint.events_seen,
        "next_window": checkpoint.next_window,
        "late_dropped": checkpoint.late_dropped,
        "scenarios_emitted": checkpoint.scenarios_emitted,
        "open_windows": {
            str(window): window_json(state)
            for window, state in checkpoint.open_windows.items()
        },
    }
