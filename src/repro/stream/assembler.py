"""Windowed EV-Scenario assembly from an unordered event stream.

The assembler is the streaming twin of
:meth:`repro.sensing.builder.ScenarioBuilder.assemble`: it aggregates
arriving :class:`~repro.sensing.builder.CellSighting` and
:class:`~repro.sensing.builder.VFrame` events into per-(window, cell)
state, and *closes* a window — applying the same attribution
thresholds as the batch builder and emitting the finished
:class:`~repro.sensing.scenarios.EVScenario`\\ s — as soon as the
watermark proves the window complete.

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

from repro.sensing.builder import CellSighting, VFrame, attribute_eids
from repro.sensing.scenarios import (
    Detection,
    EScenario,
    EVScenario,
    ScenarioKey,
    VScenario,
)
from repro.stream.watermark import WatermarkTracker
from repro.world.entities import EID


@dataclass
class OpenWindow:
    """Aggregation state for one not-yet-closed window."""

    counts: Dict[int, Dict[EID, int]] = field(default_factory=dict)
    vague: Dict[int, Dict[EID, int]] = field(default_factory=dict)
    frames: Dict[int, Tuple[Detection, ...]] = field(default_factory=dict)
    #: Each frame's feature block (``None`` when its event carried none);
    #: derived from ``frames``, so neither compared nor checkpointed.
    features: Dict[int, Optional[np.ndarray]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def absorb_sighting(self, event: CellSighting) -> None:
        cell_counts = self.counts.setdefault(event.cell_id, {})
        cell_counts[event.eid] = cell_counts.get(event.eid, 0) + 1
        if event.vague:
            vague_counts = self.vague.setdefault(event.cell_id, {})
            vague_counts[event.eid] = vague_counts.get(event.eid, 0) + 1

    def absorb_frame(self, event: VFrame) -> None:
        self.frames[event.cell_id] = event.detections
        self.features[event.cell_id] = event.features

    def occupied_cells(self) -> List[int]:
        return sorted(set(self.counts) | set(self.frames))


@dataclass(frozen=True)
class ClosedWindow:
    """One window's finished output: the scenarios it produced."""

    window: int
    scenarios: Tuple[EVScenario, ...]


class WindowAssembler:
    """Aggregates stream events into windows and closes them on
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
    def offer(self, event) -> Tuple[List[ClosedWindow], bool]:
        """Absorb one event; returns ``(closed windows, was_late)``.

        Watermark advance happens *before* window attribution, so an
        event can close earlier windows and still land in its own.
        """
        self.watermark.observe(event.tick)
        window = event.tick // self.window_ticks
        late = window < self._next_window
        if not late:
            state = self._open.get(window)
            if state is None:
                state = self._open[window] = OpenWindow()
            if isinstance(event, CellSighting):
                state.absorb_sighting(event)
            else:
                state.absorb_frame(event)
            if len(self._open) > self.peak_open_windows:
                self.peak_open_windows = len(self._open)
        else:
            self.late_dropped += 1
        return self._close_ready(), late

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
    def _close_ready(self) -> List[ClosedWindow]:
        closed: List[ClosedWindow] = []
        while self.watermark.window_closable(self._next_window, self.window_ticks):
            closed.append(self._close(self._next_window))
            self._next_window += 1
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
                        v=VScenario(
                            key=key,
                            detections=state.frames.get(cell_id, ()),
                            features=state.features.get(cell_id),
                        ),
                    )
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
