"""Event-time watermarks: deciding when a window can safely close.

A *watermark* is the stream's promise about completeness: "no event
with tick below this will arrive any more (and if one does, it is
late)".  We use the classic bounded-out-of-orderness heuristic —
``watermark = max event-time seen - allowed_lateness`` — which is
exact for sources whose disorder is bounded: if every event with true
tick ``t`` arrives before any event with tick greater than
``t + allowed_lateness`` (the jittered replay sources guarantee this
by construction), then a window whose last tick lies strictly below
the watermark has received every one of its events.

Ticks are integers (trace sample indexes), so all comparisons are
exact — no epsilon games.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class WatermarkTracker:
    """Tracks the event-time high-water mark and derives the watermark.

    Args:
        allowed_lateness: how many ticks of disorder to tolerate.  0
            means "the stream is in window order"; larger values hold
            windows open longer and classify fewer events as late.
    """

    def __init__(self, allowed_lateness: int = 0) -> None:
        if allowed_lateness < 0:
            raise ValueError(
                f"allowed_lateness must be non-negative, got {allowed_lateness}"
            )
        self.allowed_lateness = allowed_lateness
        self._max_tick: Optional[int] = None
        self._events_seen = 0

    def observe(self, tick: int) -> Optional[int]:
        """Account one event's tick; returns the (new) watermark."""
        if tick < 0:
            raise ValueError(f"event tick must be non-negative, got {tick}")
        self._events_seen += 1
        if self._max_tick is None or tick > self._max_tick:
            self._max_tick = tick
        return self.watermark

    def observe_many(self, ticks: np.ndarray) -> np.ndarray:
        """Account a run of events' ticks, in arrival order; returns the
        high-water mark after each of them (its watermark is that
        minus ``allowed_lateness``)."""
        if not len(ticks):
            return np.empty(0, dtype=np.int64)
        if ticks.min() < 0:
            raise ValueError(f"event tick must be non-negative, got {ticks.min()}")
        marks = np.maximum.accumulate(ticks)
        if self._max_tick is not None:
            marks = np.maximum(marks, self._max_tick)
        self._events_seen += len(ticks)
        self._max_tick = int(marks[-1])
        return marks

    @property
    def watermark(self) -> Optional[int]:
        """Every event below this tick has (provably) arrived; ``None``
        before the first event."""
        if self._max_tick is None:
            return None
        return self._max_tick - self.allowed_lateness

    @property
    def max_tick(self) -> Optional[int]:
        """The largest event-time observed so far."""
        return self._max_tick

    @property
    def events_seen(self) -> int:
        return self._events_seen

    def window_closable(self, window: int, window_ticks: int) -> bool:
        """Whether ``window`` is complete under the watermark: its last
        tick lies strictly below the watermark."""
        mark = self.watermark
        if mark is None:
            return False
        return (window + 1) * window_ticks - 1 < mark

    def restore(self, max_tick: Optional[int], events_seen: int) -> None:
        """Reinstate checkpointed state (see :mod:`repro.stream.checkpoint`)."""
        self._max_tick = max_tick
        self._events_seen = events_seen
