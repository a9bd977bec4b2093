"""Windowed EV-Scenario assembly from an unordered item stream.

The assembler is the streaming twin of
:meth:`repro.sensing.builder.ScenarioBuilder.assemble`: it aggregates
arriving :class:`~repro.sensing.builder.SightingBatch` runs and
:class:`~repro.sensing.builder.VFrame` events into per-window state,
and *closes* a window — attributing its sightings with the batch
builder's own routine (:func:`~repro.sensing.builder.window_scenarios`)
and emitting the finished
:class:`~repro.sensing.scenarios.EVScenario`\\ s — as soon as the
watermark proves the window complete.

A batch is absorbed whole, in numpy, with per-event semantics: the
watermark runs event by event through it, an event is late when its
window lies below ``next_window`` as it stood *before that event*, and
a window closes at the event whose watermark proves it complete.  An
open window keeps its sightings as column chunks in arrival order.

Windows close strictly in order.  An event whose window has already
closed is **late**: it is counted, optionally event-logged by the
pipeline, and dropped (the closed scenario is immutable downstream).
Fed an in-order stream (or any stream whose disorder is within
``allowed_lateness`` ticks), the assembled scenarios are exactly the
batch builder's, scenario for scenario — see
:mod:`repro.stream.equivalence` for the checkable statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sensing.builder import SightingBatch, VFrame, window_scenarios
from repro.sensing.scenarios import EVScenario
from repro.stream.events import StreamItem
from repro.stream.watermark import WatermarkTracker

_NO_ROWS = np.empty(0, dtype=np.int64)


@dataclass(eq=False)
class OpenWindow:
    """Aggregation state for one not-yet-closed window.

    Attributes:
        chunks: its sightings, as batches in arrival order.
        frames: its latest camera frame per cell.
    """

    chunks: List[SightingBatch] = field(default_factory=list)
    frames: Dict[int, VFrame] = field(default_factory=dict)

    def sightings(self) -> Optional[SightingBatch]:
        """Every absorbed sighting in arrival order (the chunks are
        compacted into one), or ``None`` before the first."""
        if len(self.chunks) > 1:
            self.chunks[:] = [SightingBatch.concat(self.chunks)]
        return self.chunks[0] if self.chunks else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpenWindow):
            return NotImplemented
        mine, theirs = self.sightings(), other.sightings()
        if mine is None or theirs is None:
            same_sightings = mine is theirs
        else:
            same_sightings = all(
                np.array_equal(getattr(mine, column), getattr(theirs, column))
                for column in ("ticks", "cells", "eids", "vague")
            )
        return same_sightings and self.frames == other.frames


@dataclass(frozen=True)
class ClosedWindow:
    """One window's finished output: the scenarios it produced."""

    window: int
    scenarios: Tuple[EVScenario, ...]


class WindowAssembler:
    """Aggregates stream items into windows and closes them on
    watermark advance.

    Args:
        window_ticks: trace samples per aggregation window (matches
            the batch builder's ``window_ticks``).
        inclusive_threshold / vague_threshold: the attribution rule
            (matches :class:`~repro.sensing.builder.ScenarioBuilderConfig`).
        allowed_lateness: bounded-disorder tolerance in ticks (see
            :class:`~repro.stream.watermark.WatermarkTracker`).
        first_window: windows below this index are treated as already
            closed — the checkpoint/restore path's emitted-scenario
            high-water mark.
    """

    def __init__(
        self,
        window_ticks: int = 1,
        inclusive_threshold: float = 0.75,
        vague_threshold: float = 0.25,
        allowed_lateness: int = 0,
        first_window: int = 0,
    ) -> None:
        if window_ticks <= 0:
            raise ValueError(f"window_ticks must be positive, got {window_ticks}")
        if first_window < 0:
            raise ValueError(f"first_window must be non-negative, got {first_window}")
        self.window_ticks = window_ticks
        self.inclusive_threshold = inclusive_threshold
        self.vague_threshold = vague_threshold
        self.watermark = WatermarkTracker(allowed_lateness)
        self._open: Dict[int, OpenWindow] = {}
        self._next_window = first_window
        self.late_dropped = 0
        self.windows_closed = 0
        self.scenarios_assembled = 0
        self.peak_open_windows = 0

    # -- feeding ---------------------------------------------------------
    def offer(self, item: StreamItem) -> Tuple[List[ClosedWindow], List[int]]:
        """Absorb one sighting batch or camera frame; returns ``(closed
        windows, late ticks)``, the latter holding the tick of each of
        the item's events that was dropped as late.

        Watermark advance happens *before* window attribution, so an
        event can close earlier windows and still land in its own.
        """
        if isinstance(item, VFrame):
            return self._offer_frame(item)
        return self._offer_batch(item)

    def _offer_frame(self, frame: VFrame) -> Tuple[List[ClosedWindow], List[int]]:
        self.watermark.observe(frame.tick)
        window = frame.tick // self.window_ticks
        late: List[int] = []
        if window < self._next_window:
            self.late_dropped += 1
            late.append(frame.tick)
        else:
            state = self._open.get(window)
            if state is None:
                state = self._open[window] = OpenWindow()
                self.peak_open_windows = max(self.peak_open_windows, len(self._open))
            state.frames[frame.cell_id] = frame
        mark = self.watermark.watermark
        return self._close_below(mark // self.window_ticks), late

    def _offer_batch(
        self, batch: SightingBatch
    ) -> Tuple[List[ClosedWindow], List[int]]:
        if not len(batch):
            return [], []
        marks = self.watermark.observe_many(batch.ticks)
        # ``next_window`` after each event: every window whose last tick
        # lies below that event's watermark has closed.
        after = np.maximum(
            (marks - self.watermark.allowed_lateness) // self.window_ticks,
            self._next_window,
        )
        windows = batch.ticks // self.window_ticks
        late = windows < np.concatenate(([self._next_window], after[:-1]))
        late_ticks: List[int] = []
        rows = None
        if late.any():
            late_ticks = batch.ticks[late].tolist()
            self.late_dropped += len(late_ticks)
            rows = np.flatnonzero(~late)
            batch, windows = batch[rows], windows[rows]
        if len(windows):
            self._absorb(batch, windows, rows, after)
        return self._close_below(int(after[-1])), late_ticks

    def _absorb(
        self,
        batch: SightingBatch,
        windows: np.ndarray,
        rows: Optional[np.ndarray],
        after: np.ndarray,
    ) -> None:
        """File the on-time sightings ``batch`` (at ``rows`` of the
        offered batch, all of them when ``None``) into their windows.

        A window the batch opens counts toward ``peak_open_windows``
        from its first event until the event that closes it.
        """
        touched, first = np.unique(windows, return_index=True)
        opened = [w for w in touched.tolist() if w not in self._open]
        if opened:
            # Each open window spans the events from the one that opens
            # it (-1: before the batch) to the one whose watermark closes
            # it; the open count peaks at an event that opens a window.
            if rows is not None:
                first = rows[first]
            opens_at = dict(zip(touched.tolist(), first.tolist()))

            def closes_at(window: int) -> int:
                return int(np.searchsorted(after, window, side="right"))

            spans = [(-1, closes_at(w)) for w in self._open]
            spans += [(opens_at[w], closes_at(w)) for w in opened]
            self.peak_open_windows = max(
                self.peak_open_windows,
                *(
                    sum(start <= opens_at[w] <= end for start, end in spans)
                    for w in opened
                ),
            )
            for w in opened:
                self._open[w] = OpenWindow()
        if len(touched) == 1:
            self._open[int(touched[0])].chunks.append(batch)
            return
        order = np.argsort(windows, kind="stable")
        bounds = np.searchsorted(windows[order], touched).tolist() + [len(order)]
        for w, start, end in zip(touched.tolist(), bounds, bounds[1:]):
            self._open[w].chunks.append(batch[order[start:end]])

    def flush(self) -> List[ClosedWindow]:
        """End of stream: close every remaining open window, in order."""
        closed: List[ClosedWindow] = []
        for window in sorted(self._open):
            if window >= self._next_window:
                closed.append(self._close(window))
        if closed:
            self._next_window = closed[-1].window + 1
        return closed

    # -- closing ---------------------------------------------------------
    def _close_below(self, limit: int) -> List[ClosedWindow]:
        """Close every window below ``limit``, in order."""
        closed: List[ClosedWindow] = []
        while self._next_window < limit:
            closed.append(self._close(self._next_window))
            self._next_window += 1
        return closed

    def _close(self, window: int) -> ClosedWindow:
        state = self._open.pop(window, None)
        scenarios: List[EVScenario] = []
        if state is not None:
            e = state.sightings()
            scenarios = window_scenarios(
                window,
                e.cells if e is not None else _NO_ROWS,
                e.eids if e is not None else _NO_ROWS,
                e.vague if e is not None else _NO_ROWS.astype(bool),
                state.frames,
                e.eid_table if e is not None else {},
                self.window_ticks,
                self.inclusive_threshold,
                self.vague_threshold,
            )
        self.windows_closed += 1
        self.scenarios_assembled += len(scenarios)
        return ClosedWindow(window=window, scenarios=tuple(scenarios))

    # -- introspection / checkpointing -----------------------------------
    @property
    def next_window(self) -> int:
        """The emitted-scenario high-water mark: every window below
        this has been closed (and its scenarios handed out)."""
        return self._next_window

    @property
    def open_windows(self) -> int:
        return len(self._open)

    def export_state(self) -> Dict[int, OpenWindow]:
        """The open-window state, for checkpoint serialization."""
        return dict(self._open)

    def import_state(
        self,
        windows: Dict[int, OpenWindow],
        next_window: int,
        max_tick: Optional[int],
        events_seen: int,
        late_dropped: int = 0,
    ) -> None:
        """Reinstate checkpointed aggregation state (restore path)."""
        self._open = dict(windows)
        self._next_window = next_window
        self.late_dropped = late_dropped
        self.watermark.restore(max_tick, events_seen)
        self.peak_open_windows = max(self.peak_open_windows, len(self._open))
