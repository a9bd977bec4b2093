"""``repro.obs`` — unified observability: metrics, tracing, events, runs.

The pipeline's internal quantities (E-Scenarios examined, candidate
shrink, detections extracted, cache hit rates, MapReduce task times)
are exactly what the paper's evaluation plots, so they are first-class
here rather than ad-hoc ``perf_counter`` calls:

* :mod:`repro.obs.registry` — thread-safe named counters / gauges /
  histograms with labels, a process-global default registry, a no-op
  mode, and Prometheus-style text exposition;
* :mod:`repro.obs.tracing` — hierarchical spans (context-manager and
  decorator APIs, contextvar propagation across thread pools),
  exportable as Chrome trace-event JSON and as a text tree;
* :mod:`repro.obs.events` — the flight recorder: a typed, thread-safe
  structured event log (bounded ring + JSONL file sink) correlated to
  the active run and span;
* :mod:`repro.obs.runs` — run manifests (:class:`RunContext`) and
  per-match :class:`ProvenanceRecord`\\ s answering "why this
  EID→VID";
* :mod:`repro.obs.report` — the markdown run-report renderer joining
  manifest + metrics + span tree + event timeline + provenance;
* :mod:`repro.obs.profiler` — the continuous wall-clock sampling
  profiler (collapsed-stack / speedscope exports, span attribution,
  cluster merge helpers);
* :mod:`repro.obs.slowlog` — bounded slow-query exemplars (span tree +
  kernel counters + trace id for every request over a threshold);
* :mod:`repro.obs.regress` — the perf-regression sentinel:
  ``BENCH_HISTORY.jsonl`` append/load/validate plus direction +
  tolerance rules over the trajectory.

``repro.obs`` sits below every other package (it imports nothing from
``repro``) so core, mapreduce, and service can all record to it.  The
stage spans' metrics and events are declared in :mod:`repro.obs.stages`
and documented in ``docs/architecture.md`` ("Observability").
"""

from repro.obs.events import (
    EVENT_TYPES,
    EVENTS_DROPPED_METRIC,
    SHIP_LAG_METRIC,
    EventLog,
    EventShipper,
    NullEventLog,
    get_event_log,
    load_events,
    null_event_log,
    set_event_log,
)
from repro.obs.profiler import (
    DEFAULT_PROFILE_HZ,
    NullProfiler,
    ProfileSnapshot,
    SamplingProfiler,
    get_profiler,
    merge_collapsed,
    merged_speedscope,
    null_profiler,
    set_profiler,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_expositions,
    nearest_rank,
    null_registry,
    set_registry,
)
from repro.obs.report import (
    REPORT_SECTIONS as RUN_REPORT_SECTIONS,
    load_run_records,
    markdown_table,
    render_report_from_events,
    render_run_report,
)
from repro.obs.slowlog import (
    SLOW_QUERIES_METRIC,
    SlowLogConfig,
    SlowQueryLog,
    serialize_span_tree,
)
from repro.obs.runs import (
    EvidenceItem,
    ProvenanceRecord,
    RunContext,
    get_run_context,
    new_run_context,
    provenance_evidence_listening,
    provenance_listening,
    record_provenance,
    set_run_context,
)
from repro.obs.tracing import (
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    extract_trace,
    get_tracer,
    inject_trace,
    new_trace_id,
    null_tracer,
    set_tracer,
    traced,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_PROFILE_HZ",
    "EVENT_TYPES",
    "EVENTS_DROPPED_METRIC",
    "EventLog",
    "EventShipper",
    "EvidenceItem",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullEventLog",
    "NullProfiler",
    "NullTracer",
    "ProfileSnapshot",
    "ProvenanceRecord",
    "RUN_REPORT_SECTIONS",
    "RunContext",
    "SHIP_LAG_METRIC",
    "SLOW_QUERIES_METRIC",
    "SamplingProfiler",
    "SlowLogConfig",
    "SlowQueryLog",
    "Span",
    "TraceContext",
    "Tracer",
    "extract_trace",
    "get_event_log",
    "get_profiler",
    "get_registry",
    "get_run_context",
    "get_tracer",
    "inject_trace",
    "load_events",
    "load_run_records",
    "markdown_table",
    "merge_collapsed",
    "merge_expositions",
    "merged_speedscope",
    "nearest_rank",
    "new_run_context",
    "new_trace_id",
    "null_event_log",
    "null_profiler",
    "null_registry",
    "null_tracer",
    "serialize_span_tree",
    "provenance_evidence_listening",
    "provenance_listening",
    "record_provenance",
    "render_report_from_events",
    "render_run_report",
    "set_event_log",
    "set_profiler",
    "set_registry",
    "set_run_context",
    "set_tracer",
    "traced",
]
