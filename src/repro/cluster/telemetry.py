"""The cluster's observability plane: federation, trace merge, events.

The gateway process is the only one an operator talks to, but the work
happens in N worker processes whose metrics, spans, and flight-recorder
events would otherwise be invisible.  This module is the gateway-side
receiving end of the three telemetry flows:

* :class:`MetricsFederation` — workers piggyback
  ``MetricsRegistry.export_state()`` snapshots on heartbeats; the
  federation re-labels every series with ``worker="<id>"`` and renders
  one cluster-wide Prometheus exposition.  Snapshots are *cumulative
  within a worker generation* (a process lifetime, keyed by pid): when
  a worker restarts, its counters restart from zero, so the federation
  **re-bases** — the previous generation's last snapshot folds into a
  per-worker base and the federated value is ``base + current``.
  Counters and histogram buckets therefore never go backward across a
  kill+restart; gauges are instantaneous and simply take the new
  generation's value.

* :class:`TraceCollector` — a bounded (LRU by trace id) store of
  completed span records.  Workers return their spans beside each
  traced answer, the router stores them raw as they arrive (including
  every replica's spans on quorum reads and each attempt's on
  failover), the gateway adds its own, and
  :meth:`TraceCollector.chrome_trace` decodes them into one merged
  Chrome trace-event JSON with per-process ``process_name`` metadata —
  gateway and worker spans on one wall-clock axis under a single
  ``trace_id``.

* :class:`ClusterTelemetry` — the facade the gateway owns.  It hooks
  :attr:`Supervisor.on_telemetry`, routes each worker beat into the
  federation, adopts shipped flight-recorder events into the gateway's
  :class:`~repro.obs.events.EventLog` (tagged ``worker=<id>`` — the SSE
  ``events`` verb then streams cluster-wide events), counts shipping
  loss on ``ev_cluster_events_ship_dropped_total``, and keeps a
  per-worker summary (qps inputs, percentiles, backend, lag) behind
  the ``stats`` verb for ``repro cluster top``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.obs.events import get_event_log
from repro.obs.registry import (
    LabelKey,
    _label_key,
    _render_labels,
    get_registry,
)

__all__ = [
    "MetricsFederation",
    "TraceCollector",
    "ClusterTelemetry",
    "DEFAULT_TRACE_MAX_AGE_S",
    "TRACES_EVICTED_METRIC",
]

#: How many distinct traces the gateway retains (LRU eviction).
DEFAULT_MAX_TRACES = 64

#: How long an untouched trace survives before the age sweep drops it.
#: A trace that stops receiving records was abandoned mid-flight (the
#: client hung up, a worker died before returning its spans): without
#: an age bound it would sit in the store until enough *new* traces
#: arrived to push it out by LRU — on a quiet gateway, forever.
DEFAULT_TRACE_MAX_AGE_S = 300.0

#: Counter counting both LRU and age evictions, labelled by reason.
TRACES_EVICTED_METRIC = "ev_cluster_traces_evicted_total"

#: One process's span records for a trace, as they arrived: the record
#: dicts, their raw JSON bytes, or a callable that builds the dicts.
SpanRecords = Union[
    List[Dict[str, Any]], bytes, Callable[[], List[Dict[str, Any]]]
]
_Arrival = Tuple[SpanRecords, Optional[str]]  # (records, process label)


def _series_map(state: Dict[str, Any]) -> Dict[Tuple[str, LabelKey], Dict[str, Any]]:
    """Flatten an ``export_state()`` payload into
    ``{(metric, labelkey): {kind, help, buckets, value}}``."""
    out: Dict[Tuple[str, LabelKey], Dict[str, Any]] = {}
    for metric in state.get("metrics", []):
        name = str(metric.get("name", ""))
        if not name:
            continue
        kind = str(metric.get("kind", "untyped"))
        help_text = str(metric.get("help", ""))
        buckets = metric.get("buckets")
        for raw_key, value in metric.get("series", []):
            try:
                key: LabelKey = tuple(
                    (str(k), str(v)) for k, v in raw_key
                )
            except (TypeError, ValueError):
                continue
            out[(name, key)] = {
                "kind": kind,
                "help": help_text,
                "buckets": buckets,
                "value": value,
            }
    return out


def _add_values(kind: str, base: Any, current: Any) -> Any:
    """``base + current`` for a re-based series (kind-aware)."""
    if base is None:
        return current
    if kind == "histogram":
        if (
            not isinstance(base, dict)
            or not isinstance(current, dict)
            or len(base.get("bucket_counts", []))
            != len(current.get("bucket_counts", []))
        ):
            return current
        return {
            "bucket_counts": [
                b + c
                for b, c in zip(base["bucket_counts"], current["bucket_counts"])
            ],
            "sum": base.get("sum", 0.0) + current.get("sum", 0.0),
            "count": base.get("count", 0) + current.get("count", 0),
        }
    if kind == "gauge":
        # Gauges are instantaneous — a restarted worker's new reading
        # replaces the old one rather than accumulating.
        return current
    return float(base) + float(current)


class _WorkerSeries:
    """One worker's federated state: generation, base, latest snapshot."""

    __slots__ = ("generation", "base", "current", "last_update")

    def __init__(self) -> None:
        self.generation: Optional[int] = None
        self.base: Dict[Tuple[str, LabelKey], Dict[str, Any]] = {}
        self.current: Dict[Tuple[str, LabelKey], Dict[str, Any]] = {}
        self.last_update = 0.0


class MetricsFederation:
    """Merge per-worker registry snapshots into one labelled exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: Dict[str, _WorkerSeries] = {}

    def update(
        self, worker_id: str, generation: Optional[int], state: Dict[str, Any]
    ) -> None:
        """Fold one worker beat in.  ``generation`` identifies the
        worker *process* (its pid): a change means the worker was
        restarted and its cumulative series re-base."""
        snapshot = _series_map(state)
        with self._lock:
            ws = self._workers.setdefault(worker_id, _WorkerSeries())
            if ws.generation is not None and generation != ws.generation:
                # Restart: the dead generation's last snapshot becomes
                # part of the base so federated counters keep rising.
                for key, entry in ws.current.items():
                    existing = ws.base.get(key)
                    merged = _add_values(
                        entry["kind"],
                        existing["value"] if existing else None,
                        entry["value"],
                    )
                    ws.base[key] = {**entry, "value": merged}
            ws.generation = generation
            ws.current = snapshot
            ws.last_update = time.time()

    def workers(self) -> List[str]:
        with self._lock:
            return sorted(self._workers)

    def _rebased(
        self,
    ) -> Dict[str, Dict[Tuple[str, LabelKey], Dict[str, Any]]]:
        """``{worker: {(metric, labels): entry}}`` with bases applied."""
        with self._lock:
            workers = {
                wid: (dict(ws.base), dict(ws.current))
                for wid, ws in self._workers.items()
            }
        out: Dict[str, Dict[Tuple[str, LabelKey], Dict[str, Any]]] = {}
        for wid, (base, current) in workers.items():
            merged: Dict[Tuple[str, LabelKey], Dict[str, Any]] = {}
            for key in set(base) | set(current):
                base_entry = base.get(key)
                cur_entry = current.get(key)
                entry = cur_entry or base_entry
                assert entry is not None
                if cur_entry is not None and cur_entry["kind"] == "gauge":
                    value = cur_entry["value"]
                else:
                    value = _add_values(
                        entry["kind"],
                        base_entry["value"] if base_entry else None,
                        cur_entry["value"] if cur_entry else (
                            0.0 if entry["kind"] != "histogram" else None
                        ),
                    )
                    if value is None:
                        value = base_entry["value"] if base_entry else 0.0
                merged[key] = {**entry, "value": value}
            out[wid] = merged
        return out

    def counter_value(self, name: str, worker_id: Optional[str] = None) -> float:
        """The federated (re-based) total of one counter/gauge family,
        optionally restricted to a single worker — the test surface for
        "federated == sum of per-worker"."""
        total = 0.0
        for wid, series in self._rebased().items():
            if worker_id is not None and wid != worker_id:
                continue
            for (metric, _key), entry in series.items():
                if metric == name and entry["kind"] != "histogram":
                    total += float(entry["value"])
        return total

    def render(self) -> str:
        """Every worker's series as one exposition, each sample tagged
        with a ``worker`` label; family headers appear once."""
        rebased = self._rebased()
        # name -> {kind, help, buckets, rows: [(worker, labelkey, value)]}
        families: Dict[str, Dict[str, Any]] = {}
        for wid in sorted(rebased):
            for (metric, key), entry in sorted(rebased[wid].items()):
                fam = families.setdefault(
                    metric,
                    {
                        "kind": entry["kind"],
                        "help": entry["help"],
                        "buckets": entry.get("buckets"),
                        "rows": [],
                    },
                )
                fam["rows"].append((wid, key, entry["value"]))
        lines: List[str] = []
        for metric in sorted(families):
            fam = families[metric]
            if fam["help"]:
                lines.append(f"# HELP {metric} {fam['help']}")
            lines.append(f"# TYPE {metric} {fam['kind']}")
            for wid, key, value in fam["rows"]:
                labelled: LabelKey = _label_key(
                    {**dict(key), "worker": wid}
                )
                if fam["kind"] == "histogram" and isinstance(value, dict):
                    buckets = fam["buckets"] or []
                    cumulative = 0
                    counts = value.get("bucket_counts", [])
                    for bound, count in zip(buckets, counts):
                        cumulative += count
                        labels = _render_labels(labelled, f'le="{bound:g}"')
                        lines.append(f"{metric}_bucket{labels} {cumulative}")
                    if counts:
                        cumulative += counts[-1]
                    labels = _render_labels(labelled, 'le="+Inf"')
                    lines.append(f"{metric}_bucket{labels} {cumulative}")
                    lines.append(
                        f"{metric}_sum{_render_labels(labelled)} "
                        f"{value.get('sum', 0.0):g}"
                    )
                    lines.append(
                        f"{metric}_count{_render_labels(labelled)} "
                        f"{value.get('count', 0)}"
                    )
                else:
                    lines.append(
                        f"{metric}{_render_labels(labelled)} {float(value):g}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


class TraceCollector:
    """Bounded store of completed distributed traces (LRU by trace id).

    Span *records* (the wall-clock wire form from
    :meth:`~repro.obs.tracing.Tracer.span_records`) arrive from workers
    via the router, as the raw JSON bytes of their replies, and from
    the gateway's own tracer, as a deferred
    :meth:`~repro.obs.tracing.Tracer.span_records` call.  They are
    stored as they arrive and become Chrome complete events only when
    :meth:`chrome_trace` asks: most traces are evicted unread, so a
    request costs no decoding and no conversion.

    Two eviction paths keep the store bounded: LRU when the trace
    *count* exceeds ``max_traces``, and an age sweep dropping traces
    untouched for ``max_age_s`` (abandoned mid-flight traces would
    otherwise pin memory on a quiet gateway where LRU pressure never
    arrives).  Both increment :data:`TRACES_EVICTED_METRIC`, labelled
    ``reason="lru"`` / ``reason="age"``, and the per-reason tallies are
    mirrored on :attr:`evicted` for registry-free inspection.
    """

    def __init__(
        self,
        max_traces: int = DEFAULT_MAX_TRACES,
        max_age_s: float = DEFAULT_TRACE_MAX_AGE_S,
        clock: Any = time.monotonic,
    ) -> None:
        if max_traces <= 0:
            raise ValueError(f"max_traces must be positive, got {max_traces}")
        if max_age_s <= 0:
            raise ValueError(f"max_age_s must be positive, got {max_age_s}")
        self.max_traces = max_traces
        self.max_age_s = max_age_s
        self._clock = clock
        self._lock = threading.Lock()
        #: trace id -> its arrivals, unconverted, oldest first.
        self._traces: "OrderedDict[str, List[_Arrival]]" = OrderedDict()
        #: trace id -> last clock reading at which records arrived.
        #: ``_traces``'s LRU order and these timestamps agree (both are
        #: refreshed by the same touch), so the age sweep only ever has
        #: to look at the front of the OrderedDict.
        self._touched: Dict[str, float] = {}
        #: Per-reason eviction tallies (``lru`` / ``age``).
        self.evicted: Dict[str, int] = {"lru": 0, "age": 0}
        self._evicted_counter: Optional[Tuple[Any, Any]] = None

    def add_records(
        self,
        trace_id: str,
        records: SpanRecords,
        label: Optional[str] = None,
    ) -> None:
        """Store one process's span records for a trace, unconverted.
        ``label`` names the originating process in the merged view."""
        if not trace_id or not records:
            return
        now = self._clock()
        with self._lock:
            self._traces.setdefault(trace_id, []).append((records, label))
            self._traces.move_to_end(trace_id)
            self._touched[trace_id] = now
            lru = 0
            while len(self._traces) > self.max_traces:
                victim, _ = self._traces.popitem(last=False)
                self._touched.pop(victim, None)
                lru += 1
            aged = self._sweep_locked(now)
        self._record_evictions("lru", lru)
        self._record_evictions("age", aged)

    def _sweep_locked(self, now: float) -> int:
        """Drop traces untouched for ``max_age_s`` (lock held)."""
        horizon = now - self.max_age_s
        aged = 0
        while self._traces:
            oldest = next(iter(self._traces))
            if self._touched.get(oldest, now) > horizon:
                break
            del self._traces[oldest]
            self._touched.pop(oldest, None)
            aged += 1
        return aged

    def _record_evictions(self, reason: str, count: int) -> None:
        if not count:
            return
        self.evicted[reason] = self.evicted.get(reason, 0) + count
        registry = get_registry()
        cached = self._evicted_counter
        if cached is None or cached[0] is not registry:
            counter = registry.counter(
                TRACES_EVICTED_METRIC,
                "Traces evicted from the gateway's bounded trace store",
            )
            self._evicted_counter = cached = (registry, counter)
        cached[1].inc(count, reason=reason)

    def evict_stale(self, now: Optional[float] = None) -> int:
        """Run the age sweep now; returns how many traces were dropped.

        ``now`` overrides the collector's clock reading so tests can
        advance time deterministically.  Also called from
        :meth:`ClusterTelemetry.describe`, so a gateway that is being
        *observed* sheds abandoned traces even with no new ones
        arriving.
        """
        with self._lock:
            aged = self._sweep_locked(self._clock() if now is None else now)
        self._record_evictions("age", aged)
        return aged

    def trace_ids(self) -> List[str]:
        """Known trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def latest_trace_id(self) -> Optional[str]:
        with self._lock:
            return next(reversed(self._traces), None)

    def chrome_trace(self, trace_id: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """One merged Chrome trace (latest trace when ``trace_id`` is
        ``None``); timestamps re-based to the trace's earliest span."""
        with self._lock:
            if trace_id is None:
                trace_id = next(reversed(self._traces), None)
            if trace_id is None or trace_id not in self._traces:
                return None
            parts = list(self._traces[trace_id])
        events: List[Dict[str, Any]] = []
        labels: Dict[int, str] = {}
        for records, label in parts:
            for event in _chrome_events(trace_id, records):
                events.append(event)
                if label:
                    labels[event["pid"]] = label
        if not events:
            return None
        origin = min(e["ts"] for e in events)
        for event in events:
            event["ts"] -= origin
        events.sort(key=lambda e: (e["ts"], e["pid"]))
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": labels.get(pid, f"pid {pid}")},
            }
            for pid in sorted({e["pid"] for e in events})
        ]
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {"trace_id": trace_id},
        }


def _chrome_events(
    trace_id: str, records: SpanRecords
) -> List[Dict[str, Any]]:
    """One stored arrival's span records as Chrome complete events;
    records that do not decode are skipped."""
    if callable(records):
        records = records()
    elif isinstance(records, bytes):
        try:
            records = json.loads(records)
        except ValueError:
            return []
    if not isinstance(records, list):
        return []
    events: List[Dict[str, Any]] = []
    for record in records:
        try:
            name = str(record["name"])
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": float(record["ts_us"]),
                "dur": float(record["dur_us"]),
                "pid": int(record["pid"]),
                "tid": int(record.get("tid", 0)),
                "args": {
                    **dict(record.get("args") or {}),
                    "trace_id": trace_id,
                    "span_id": record.get("span_id"),
                    "parent_span_id": record.get("parent_span_id"),
                },
            })
        except (KeyError, TypeError, ValueError):
            continue
    return events


class ClusterTelemetry:
    """The gateway's receiving end of worker telemetry beats."""

    def __init__(self, max_traces: int = DEFAULT_MAX_TRACES) -> None:
        self.federation = MetricsFederation()
        self.traces = TraceCollector(max_traces=max_traces)
        self._lock = threading.Lock()
        self._summaries: Dict[str, Dict[str, Any]] = {}
        registry = get_registry()
        self._beats = registry.counter(
            "ev_cluster_telemetry_beats_total",
            "Worker telemetry beats folded into the federation",
        )
        self._events_ingested = registry.counter(
            "ev_cluster_events_ingested_total",
            "Worker flight-recorder events adopted by the gateway",
        )
        self._ship_dropped = registry.counter(
            "ev_cluster_events_ship_dropped_total",
            "Worker events lost before shipping (ring falloff or cap)",
        )

    def attach(self, supervisor: Any) -> "ClusterTelemetry":
        """Hook a :class:`~repro.cluster.supervisor.Supervisor`'s
        telemetry stream into this plane."""
        supervisor.on_telemetry = self.on_telemetry
        return self

    def on_telemetry(self, worker_id: str, payload: Dict[str, Any]) -> None:
        """One worker beat: metrics snapshot + shipped events + summary."""
        generation = payload.get("pid")
        state = payload.get("metrics")
        if isinstance(state, dict):
            self.federation.update(worker_id, generation, state)
        events = payload.get("events") or []
        if events:
            log = get_event_log()
            if log.enabled:
                for event in events:
                    if isinstance(event, dict):
                        log.ingest(event, worker=worker_id)
            self._events_ingested.inc(len(events), worker=worker_id)
        dropped = int(payload.get("events_dropped") or 0)
        if dropped:
            self._ship_dropped.inc(dropped, worker=worker_id)
        self._beats.inc(worker=worker_id)
        summary = payload.get("summary")
        with self._lock:
            self._summaries[worker_id] = {
                "received_ts": time.time(),
                "pid": generation,
                **(summary if isinstance(summary, dict) else {}),
            }

    def describe(self) -> Dict[str, Any]:
        """Per-worker summaries (with beat lag) for the ``stats`` verb."""
        self.traces.evict_stale()
        now = time.time()
        with self._lock:
            workers = {
                wid: {**summary, "lag_s": now - summary["received_ts"]}
                for wid, summary in self._summaries.items()
            }
        return {"workers": workers, "traces": len(self.traces.trace_ids())}
