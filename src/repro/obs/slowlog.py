"""Slow-query exemplars: full context for the requests that hurt.

A latency histogram says the p99 moved; it cannot say *which* request
moved it or *where that request spent its time*.  This module keeps a
bounded ring of **exemplars** — for every request slower than a
threshold, the complete serving-side span tree, the kernel counters
the request consumed (scenarios examined, V-cache hit/miss deltas),
the split backend label, and the distributed ``trace_id`` (so the
exemplar joins against a merged cluster trace when one was recorded).

Two thresholding modes (:class:`SlowLogConfig`):

* **fixed** — ``threshold_s`` set: every request over it is captured;
* **adaptive** — ``threshold_s=None`` (default): the threshold floats
  at ``adaptive_factor ×`` the serving layer's rolling p99 (supplied
  by the owner as a callable — :class:`MatchService` passes
  ``RequestLog.latency_p99``), clamped below by ``min_threshold_s``,
  so a request faster than that floor is passed over without reading
  the p99.  Until the window has enough samples for a p99,
  nothing is captured — the first requests of a cold process are not
  "slow", they are *warming up*.

The log is deliberately obs-layer pure: it depends only on this
package (events + metrics), receives latency/spans/counters from its
owner, and is served outward by the worker/gateway ``slowlog`` verbs
and ``repro cluster slowlog``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from .events import SERVICE_QUERY_SLOW, get_event_log
from .registry import get_registry

#: Counter of captured exemplars (capture is itself a signal).
SLOW_QUERIES_METRIC = "ev_service_slow_queries_total"

#: Default bound on retained exemplars per process.
DEFAULT_SLOWLOG_CAPACITY = 64

#: Spans serialized per exemplar tree — a universal match traces
#: thousands of per-target spans; an exemplar needs the shape, not all
#: of them.
MAX_SPANS_PER_RECORD = 128


@dataclass(frozen=True)
class SlowLogConfig:
    """Thresholding + retention policy for :class:`SlowQueryLog`.

    Attributes:
        capacity: exemplars retained (oldest evicted first).
        threshold_s: fixed latency threshold; ``None`` selects the
            adaptive mode.
        adaptive_factor: multiple of the rolling p99 a request must
            exceed to be an exemplar (adaptive mode).
        min_threshold_s: adaptive-threshold floor — a cold cache can
            make the p99 so small that ordinary requests would qualify.
        enabled: ``False`` disables capture entirely.
    """

    capacity: int = DEFAULT_SLOWLOG_CAPACITY
    threshold_s: Optional[float] = None
    adaptive_factor: float = 3.0
    min_threshold_s: float = 0.005
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.threshold_s is not None and self.threshold_s <= 0:
            raise ValueError(
                f"threshold_s must be positive, got {self.threshold_s}"
            )
        if self.adaptive_factor < 1.0:
            raise ValueError(
                f"adaptive_factor must be >= 1, got {self.adaptive_factor}"
            )
        if self.min_threshold_s < 0:
            raise ValueError(
                f"min_threshold_s must be >= 0, got {self.min_threshold_s}"
            )


def _scalar(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def serialize_span_tree(
    span: Any, budget: int = MAX_SPANS_PER_RECORD
) -> Optional[Dict[str, Any]]:
    """One finished span + children as a JSON-able nested dict.

    Depth-first with a shared node budget; sibling runs past the budget
    are elided with an ``elided`` count so the exemplar stays bounded
    even for universal matches.
    """
    if span is None:
        return None
    remaining = [budget]

    def node(s: Any) -> Dict[str, Any]:
        remaining[0] -= 1
        out: Dict[str, Any] = {
            "name": s.name,
            "dur_ms": round(s.duration_s * 1e3, 3),
            "args": {k: _scalar(v) for k, v in s.args.items()},
        }
        children = sorted(s.children, key=lambda c: c.start_s)
        kept = []
        for child in children:
            if remaining[0] <= 0:
                out["elided"] = len(children) - len(kept)
                break
            kept.append(node(child))
        if kept:
            out["children"] = kept
        return out

    return node(span)


class SlowQueryLog:
    """Bounded, thread-safe ring of slow-request exemplars.

    Args:
        config: thresholding/retention policy.
        p99_source: zero-arg callable returning the rolling latency p99
            in seconds, or ``None`` while undersampled (adaptive mode's
            input; ignored when ``config.threshold_s`` is fixed).
    """

    def __init__(
        self,
        config: Optional[SlowLogConfig] = None,
        p99_source: Optional[Callable[[], Optional[float]]] = None,
    ) -> None:
        self.config = config if config is not None else SlowLogConfig()
        self._p99_source = p99_source
        self._lock = threading.Lock()
        self._records: Deque[Dict[str, Any]] = deque(
            maxlen=self.config.capacity
        )
        self.considered = 0
        self.captured = 0

    def threshold(self) -> Optional[float]:
        """The currently effective threshold in seconds.

        Fixed mode returns the configured value; adaptive mode derives
        it from the rolling p99, or returns ``None`` (capture nothing)
        while the window is undersampled.
        """
        if not self.config.enabled:
            return None
        if self.config.threshold_s is not None:
            return self.config.threshold_s
        if self._p99_source is None:
            return None
        p99 = self._p99_source()
        if p99 is None or p99 <= 0:
            return None
        return max(
            self.config.min_threshold_s, self.config.adaptive_factor * p99
        )

    def consider(
        self,
        *,
        endpoint: str,
        latency_s: float,
        status: str,
        trace_id: Optional[str] = None,
        span: Any = None,
        detail: Optional[Dict[str, Any]] = None,
        counters: Optional[Dict[str, float]] = None,
        backend: Optional[str] = None,
    ) -> bool:
        """Capture an exemplar if ``latency_s`` is over the threshold.

        Returns whether the request was captured.  ``span`` is the
        request's finished serving-side span (its subtree is serialized
        into the record); ``counters`` are kernel-counter deltas the
        owner measured around execution; ``detail`` is endpoint-shaped
        context (target ids, batch size).
        """
        self.considered += 1
        if self.config.threshold_s is None and (
            latency_s < self.config.min_threshold_s
        ):
            return False  # under the adaptive floor, whatever the p99
        threshold = self.threshold()
        if threshold is None or latency_s < threshold:
            return False
        record: Dict[str, Any] = {
            "ts": time.time(),
            "endpoint": endpoint,
            "status": status,
            "latency_s": float(latency_s),
            "threshold_s": float(threshold),
            "trace_id": trace_id,
            "backend_label": backend or "",
            "detail": {k: _scalar(v) for k, v in (detail or {}).items()},
            "counters": {
                k: float(v) for k, v in (counters or {}).items()
            },
            "spans": serialize_span_tree(span),
        }
        with self._lock:
            self._records.append(record)
            self.captured += 1
        get_registry().counter(
            SLOW_QUERIES_METRIC, "Requests captured as slow-query exemplars"
        ).inc(endpoint=endpoint)
        get_event_log().emit(
            SERVICE_QUERY_SLOW,
            endpoint=endpoint,
            latency_ms=round(latency_s * 1e3, 3),
            threshold_ms=round(threshold * 1e3, 3),
            trace_id=trace_id or "",
        )
        return True

    def records(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Retained exemplars, newest first."""
        with self._lock:
            newest_first = list(reversed(self._records))
        if limit is not None:
            newest_first = newest_first[: max(0, int(limit))]
        return newest_first

    def describe(self) -> Dict[str, Any]:
        """Summary for the ``slowlog`` verb envelope."""
        threshold = self.threshold()
        with self._lock:
            retained = len(self._records)
        return {
            "enabled": self.config.enabled,
            "mode": "fixed" if self.config.threshold_s is not None
            else "adaptive",
            "threshold_s": threshold,
            "retained": retained,
            "captured": self.captured,
            "considered": self.considered,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
