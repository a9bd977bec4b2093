"""Structured event log — the flight recorder of :mod:`repro.obs`.

Metrics say *how much* and spans say *how long*; neither answers the
operator's "what happened, in order, and why".  This module is the
third observability pillar: a thread-safe log of **typed events**
(plain dicts with a stable envelope) that the E stage, the V stage,
the MapReduce engine, and the serving layer emit at their decision
points — scenario selected, target distinguished, match decided, task
retried, request shed.

Every event carries:

* ``seq`` — a process-monotone sequence number (total order even when
  two threads emit in the same clock tick);
* ``ts`` — wall-clock seconds (``time.time()``), so a JSONL stream can
  be correlated with external logs;
* ``type`` — one of the :data:`EVENT_TYPES` catalogue names;
* ``run_id`` — the active :class:`~repro.obs.runs.RunContext`'s id
  (``""`` when no run is active);
* ``span_id`` — the innermost open span's id on the emitting thread
  (``None`` when tracing is off), which is what lets a report join the
  event timeline against the span tree;
* ``trace_id`` — the distributed trace the open span belongs to
  (``None`` outside a traced cluster request), correlating events
  across processes;
* ``fields`` — the event type's own payload.

Retention is a bounded ring buffer (old events fall off; a universal
match emits thousands) plus an optional **JSONL file sink** that keeps
everything — ``repro match --events out.jsonl`` wires one up.  The
process default is a shared :class:`NullEventLog` whose ``emit`` is a
no-op, so instrumented hot paths pay one method call when the recorder
is off; hot loops additionally guard bulk emission on
:attr:`EventLog.enabled`.

Two verbosity levels bound the recorder's data-plane cost.  The
default ``level="info"`` records every decision-point event; the
per-item chatter inside the matcher's hot loops (one event per
selected scenario, per distinguished target, per dropped scenario) is
**debug**-level — call sites guard it on :attr:`EventLog.debug`, and
its aggregate totals still arrive at info level via
``e.split.converged`` and ``v.match.decided``.  Pass
``EventLog(level="debug")`` to record everything.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import IO, Any, Deque, Dict, List, Optional, Tuple, Union

from repro.obs.registry import get_registry

#: Lazily bound ``repro.obs.runs.get_run_context`` and ``get_tracer``
#: (both modules import this one, so top-level imports are circular).
_get_run_context = None
_get_tracer = None

#: Default ring-buffer capacity.
DEFAULT_CAPACITY = 4096

#: Counter (on the process-global registry) of ring overwrites of
#: unread events — bounded retention means telemetry loss under
#: saturation, and operators need that loss to be *visible*.
EVENTS_DROPPED_METRIC = "ev_obs_events_dropped_total"

#: Gauge (on the process-global registry) of the shipping backlog a
#: single :meth:`EventShipper.collect` could not carry: fresh events
#: beyond ``max_per_collect`` at beat time.  Sustained non-zero means
#: emission outruns the shipping budget — raise ``--events-per-beat``
#: or shorten ``--telemetry-interval`` (see docs/architecture.md).
SHIP_LAG_METRIC = "ev_obs_ship_lag"

#: The event-type catalogue (documented in ``docs/architecture.md``),
#: in declaration order.
_EVENT_TYPES: List[str] = []


def _event_type(name: str) -> str:
    _EVENT_TYPES.append(name)
    return name


#: E stage (set splitting / refining):
E_SPLIT_STARTED = _event_type("e.split.started")
E_SPLIT_CONVERGED = _event_type("e.split.converged")
E_SCENARIO_SELECTED = _event_type("e.scenario.selected")
E_TARGET_DISTINGUISHED = _event_type("e.target.distinguished")
E_REFINE_ROUND_STARTED = _event_type("e.refine.round.started")
E_REFINE_ROUND_FINISHED = _event_type("e.refine.round.finished")
#: V stage (VID filtering):
V_SCENARIO_DROPPED = _event_type("v.scenario.dropped")
V_MATCH_DECIDED = _event_type("v.match.decided")
V_TOPOLOGY_PRUNED = _event_type("v.topology.pruned")
#: Matcher-level provenance:
MATCH_PROVENANCE = _event_type("match.provenance")
#: MapReduce engine:
MR_TASK_RETRY = _event_type("mr.task.retry")
MR_STAGE_SPECULATION = _event_type("mr.stage.speculation")
MR_JOB_FINISHED = _event_type("mr.job.finished")
#: Serving layer:
SERVICE_REQUEST_SHED = _event_type("service.request.shed")
SERVICE_CACHE_EVICTED = _event_type("service.cache.evicted")
SERVICE_SHARD_ASSIGNED = _event_type("service.shard.assigned")
SERVICE_DRAIN_STARTED = _event_type("service.drain.started")
SERVICE_DRAIN_COMPLETED = _event_type("service.drain.completed")
SERVICE_QUERY_SLOW = _event_type("service.query.slow")
#: Cluster layer (:mod:`repro.cluster`):
CLUSTER_WORKER_SPAWNED = _event_type("cluster.worker.spawned")
CLUSTER_WORKER_READY = _event_type("cluster.worker.ready")
CLUSTER_WORKER_CRASHED = _event_type("cluster.worker.crashed")
CLUSTER_WORKER_HUNG = _event_type("cluster.worker.hung")
CLUSTER_WORKER_RESTARTED = _event_type("cluster.worker.restarted")
CLUSTER_WORKER_STOPPED = _event_type("cluster.worker.stopped")
CLUSTER_HEALTH_DEGRADED = _event_type("cluster.health.degraded")
CLUSTER_HEALTH_OK = _event_type("cluster.health.ok")
CLUSTER_ROUTE_FAILOVER = _event_type("cluster.route.failover")
CLUSTER_INGEST_REPLAYED = _event_type("cluster.ingest.replayed")
CLUSTER_GATEWAY_STARTED = _event_type("cluster.gateway.started")
CLUSTER_GATEWAY_DRAINED = _event_type("cluster.gateway.drained")
#: Streaming ingestion (:mod:`repro.stream`):
STREAM_WINDOW_CLOSED = _event_type("stream.window.closed")
STREAM_EVENT_LATE = _event_type("stream.event.late")
STREAM_EVENT_SHED = _event_type("stream.event.shed")
STREAM_SCENARIO_EMITTED = _event_type("stream.scenario.emitted")
STREAM_CHECKPOINT_SAVED = _event_type("stream.checkpoint.saved")
STREAM_CHECKPOINT_RESTORED = _event_type("stream.checkpoint.restored")
#: Run bookkeeping (footer records a JSONL stream carries so a report
#: can be re-rendered offline from the file alone):
RUN_MANIFEST = _event_type("run.manifest")
RUN_METRICS = _event_type("run.metrics")
RUN_SPANS = _event_type("run.spans")
BENCH_ARTIFACT = _event_type("bench.artifact")

EVENT_TYPES = tuple(_EVENT_TYPES)

_seq = itertools.count(1)

#: Exact-type fast path for :func:`_jsonable` — ``emit`` sits on the
#: matcher's per-scenario hot loop, and almost every field is already a
#: plain scalar.  Subclasses (numpy scalars, enums) take the slow path.
_SCALARS = (str, int, float, bool, type(None))


def _jsonable(value: Any) -> Any:
    if value.__class__ in _SCALARS or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {
            str(k): v if v.__class__ in _SCALARS else _jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        return [v if v.__class__ in _SCALARS else _jsonable(v) for v in value]
    return str(value)


class EventLog:
    """Bounded, thread-safe recorder with an optional JSONL sink.

    Args:
        capacity: ring-buffer size; the sink, if any, keeps everything.
        sink: a path (opened for append-less write) or an open text
            stream to mirror every event into, one JSON object per
            line.  ``None`` keeps events in memory only.
        level: ``"info"`` (default) skips the matcher's per-item
            debug chatter; ``"debug"`` records everything.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink: Optional[Union[str, IO[str]]] = None,
        level: str = "info",
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if level not in ("info", "debug"):
            raise ValueError(
                f"level must be 'info' or 'debug', got {level!r}"
            )
        self.capacity = capacity
        #: Hot loops guard per-item emission on this flag (see module
        #: docstring); a plain bool so the guard costs one attribute
        #: read.
        self.debug = level == "debug"
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._emitted = 0
        self._dropped = 0
        self._drop_counter: Optional[tuple] = None
        self._sink: Optional[IO[str]] = None
        self._owns_sink = False
        if isinstance(sink, str):
            self._sink = open(sink, "w", encoding="utf-8")
            self._owns_sink = True
        elif sink is not None:
            self._sink = sink

    # -- recording -------------------------------------------------------
    def emit(self, type: str, **fields: Any) -> Dict[str, Any]:
        """Record one event, correlating it to the active run + span."""
        # Lazy import (``runs`` imports this module) cached in a
        # module global: emit is the flight recorder's hot path.
        global _get_run_context, _get_tracer
        if _get_run_context is None:
            from repro.obs.runs import get_run_context as _get_run_context
            from repro.obs.tracing import get_tracer as _get_tracer

        context = _get_run_context()
        span = _get_tracer().current_span()
        # ``fields`` is this call's own kwargs dict, so it can be kept
        # by reference; only non-scalar values need converting.
        for key, value in fields.items():
            if value.__class__ not in _SCALARS:
                fields[key] = _jsonable(value)
        event: Dict[str, Any] = {
            "seq": next(_seq),
            "ts": time.time(),
            "type": type,
            "run_id": context.run_id if context is not None else "",
            "span_id": span.span_id if span is not None else None,
            "trace_id": span.trace_id if span is not None else None,
            "fields": fields,
        }
        self._append(event)
        return event

    def ingest(self, event: Dict[str, Any], **extra: Any) -> Dict[str, Any]:
        """Adopt an event recorded in *another* process (cluster event
        shipping): the original ``ts`` / ``type`` / ``run_id`` /
        ``span_id`` / ``trace_id`` / ``fields`` are preserved, a fresh
        local ``seq`` keeps this log totally ordered, the remote
        sequence number is kept as ``origin_seq``, and any ``extra``
        fields (e.g. ``worker="w0"``) are merged into ``fields``.
        """
        adopted: Dict[str, Any] = {
            "seq": next(_seq),
            "ts": float(event.get("ts", time.time())),
            "type": str(event.get("type", "?")),
            "run_id": str(event.get("run_id", "")),
            "span_id": event.get("span_id"),
            "trace_id": event.get("trace_id"),
            "origin_seq": event.get("seq"),
            "fields": dict(event.get("fields") or {}),
        }
        if extra:
            adopted["fields"].update(
                {k: _jsonable(v) for k, v in extra.items()}
            )
        self._append(adopted)
        return adopted

    def _append(self, event: Dict[str, Any]) -> None:
        with self._lock:
            overwrote = len(self._ring) == self.capacity
            if overwrote:
                self._dropped += 1
            self._ring.append(event)
            self._emitted += 1
            if self._sink is not None:
                self._sink.write(json.dumps(event) + "\n")
        if overwrote:
            # Outside the ring lock: the registry has its own locking
            # and must never serialize against event emission.  A
            # long-lived worker emits every event into a wrapped ring,
            # so the counter handle is cached per registry instead of
            # re-resolved per overwrite.
            registry = get_registry()
            cached = self._drop_counter
            if cached is None or cached[0] is not registry:
                cached = (
                    registry,
                    registry.counter(
                        EVENTS_DROPPED_METRIC,
                        "Flight-recorder ring overwrites of unread events",
                    ),
                )
                self._drop_counter = cached
            cached[1].inc()

    # -- reading ---------------------------------------------------------
    def events(self, type: Optional[str] = None) -> List[Dict[str, Any]]:
        """Retained events in emission order, optionally one type."""
        with self._lock:
            retained = list(self._ring)
        if type is None:
            return retained
        return [e for e in retained if e["type"] == type]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def emitted(self) -> int:
        """Events emitted over the log's lifetime (ring + fallen-off)."""
        with self._lock:
            return self._emitted

    @property
    def dropped(self) -> int:
        """Events that fell off the ring (still in the sink, if any)."""
        with self._lock:
            return self._dropped

    # -- lifecycle -------------------------------------------------------
    def flush(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.flush()

    def close(self) -> None:
        """Flush and, if this log opened its sink path, close it."""
        with self._lock:
            if self._sink is not None:
                self._sink.flush()
                if self._owns_sink:
                    self._sink.close()
                self._sink = None


class NullEventLog:
    """The zero-overhead recorder: accepts every emit, retains nothing."""

    enabled = False
    debug = False
    capacity = 0

    def emit(self, type: str, **fields: Any) -> None:
        return None

    def ingest(self, event: Dict[str, Any], **extra: Any) -> None:
        return None

    def events(self, type: Optional[str] = None) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0

    emitted = 0
    dropped = 0

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


_NULL_EVENT_LOG = NullEventLog()
_default_log: "EventLog | NullEventLog" = _NULL_EVENT_LOG
_default_lock = threading.Lock()


def get_event_log() -> "EventLog | NullEventLog":
    """The process-global event log (a no-op unless one was enabled)."""
    return _default_log


def set_event_log(log: "EventLog | NullEventLog") -> "EventLog | NullEventLog":
    """Swap the process-global event log; returns the previous one."""
    global _default_log
    with _default_lock:
        previous = _default_log
        _default_log = log
    return previous


def null_event_log() -> NullEventLog:
    """The shared no-op event log."""
    return _NULL_EVENT_LOG


class EventShipper:
    """Bounded, loss-counting forwarding of a ring's events.

    The cluster's workers ship flight-recorder events to the gateway on
    heartbeats.  Shipping must **never** block or slow the data plane,
    so each :meth:`collect` is a snapshot-and-diff against the bounded
    ring: at most ``max_per_collect`` fresh events are returned, and
    everything lost — events that fell off the ring between collects
    (detected by sequence-number gaps) plus events over the per-collect
    cap (oldest shed first) — is *counted*, not silently skipped.

    One shipper per log.  Sequence numbers are process-monotone across
    logs, so gap detection assumes this log is the only one emitting in
    its process (true for cluster workers).
    """

    def __init__(
        self,
        log: "EventLog | NullEventLog",
        max_per_collect: int = 256,
    ) -> None:
        if max_per_collect <= 0:
            raise ValueError(
                f"max_per_collect must be positive, got {max_per_collect}"
            )
        self.log = log
        self.max_per_collect = max_per_collect
        self.shipped = 0
        self.dropped = 0
        self.lag = 0
        self._last_seq = 0
        self._primed = False
        self._lag_gauge: Optional[tuple] = None

    def collect(self) -> Tuple[List[Dict[str, Any]], int]:
        """``(fresh events, dropped count)`` since the last collect.

        The first collect primes the cursor on the ring's current tail
        without counting pre-existing ring falloff as shipping loss.
        """
        retained = self.log.events()
        fresh = [e for e in retained if e["seq"] > self._last_seq]
        dropped = 0
        if fresh and self._primed and fresh[0]["seq"] > self._last_seq + 1:
            # Events between the cursor and the oldest retained one
            # fell off the ring before we saw them.
            dropped += fresh[0]["seq"] - self._last_seq - 1
        lag = max(0, len(fresh) - self.max_per_collect)
        if lag:
            dropped += lag
            fresh = fresh[-self.max_per_collect:]
        if fresh:
            self._last_seq = fresh[-1]["seq"]
        self._primed = True
        self.shipped += len(fresh)
        self.dropped += dropped
        self.lag = lag
        self._set_lag_gauge(lag)
        return fresh, dropped

    def _set_lag_gauge(self, lag: int) -> None:
        # Cached handle, same pattern as the ring's drop counter: one
        # gauge set per heartbeat must not re-resolve the registry name.
        registry = get_registry()
        cached = self._lag_gauge
        if cached is None or cached[0] is not registry:
            cached = (
                registry,
                registry.gauge(
                    SHIP_LAG_METRIC,
                    "Fresh events beyond the per-collect shipping budget "
                    "at the last heartbeat (sustained >0 = shipping lags "
                    "emission)",
                ),
            )
            self._lag_gauge = cached
        cached[1].set(lag)


def load_events(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL event stream written by an :class:`EventLog` sink."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
