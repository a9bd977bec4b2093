"""The stage catalogue: what each stage span publishes.

Stage code instruments itself once, with ``get_tracer().span(...)``
and ``span.set(...)``.  :data:`STAGES` names, per catalogued span, the
metrics each span attribute feeds (with help text), the attributes
that label every series, and the info-level events emitted when the
span opens and closes, whose fields are the span's attributes (label
values under their label names).  Both tracers publish it while the
span is current, so events carry its id.  An attribute the span does
not carry, or carries as ``None``, publishes nothing; a span closing
on an exception publishes nothing on closing.  Per-item debug events
and :data:`CANDIDATES_REMAINING` (a list per run) stay in stage code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.obs import events as ev
from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry, get_registry


@dataclass(frozen=True)
class Metric:
    """One instrument a stage span feeds from its attribute ``attr``
    (``None``: one per span, or a histogram of the span's seconds),
    with fixed ``labels`` added to the span's own.  A ``sparse``
    metric's zero registers the family but adds no series."""

    kind: str  # "counter" | "gauge" | "histogram"
    name: str
    help: str
    attr: Optional[str] = None
    labels: Tuple[Tuple[str, str], ...] = ()
    sparse: bool = False
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    #: ``(registry, publish, fixed labels)`` for the registry last
    #: published to: one slot, swapped whole, so a span close finds
    #: its instrument without a lookup by name.
    _bound: List[Any] = field(
        default_factory=lambda: [None], init=False, repr=False, compare=False
    )

    def instrument(self, registry: MetricsRegistry):
        """The family in ``registry`` (created on first use)."""
        if self.kind == "histogram":
            return registry.histogram(self.name, self.help, buckets=self.buckets)
        return getattr(registry, self.kind)(self.name, self.help)

    def publisher(
        self, registry: MetricsRegistry
    ) -> Tuple[Callable[..., None], Dict[str, str]]:
        """The family's publish method in ``registry`` (``inc``,
        ``set`` or ``observe``) and this metric's fixed labels,
        remembered for the last registry asked."""
        bound = self._bound[0]
        if bound is None or bound[0] is not registry:
            instrument = self.instrument(registry)
            bound = (
                registry,
                getattr(instrument, _PUBLISH[self.kind]),
                dict(self.labels),
            )
            self._bound[0] = bound
        return bound[1], bound[2]


#: The instrument method each metric kind publishes a value with.
_PUBLISH = {"counter": "inc", "gauge": "set", "histogram": "observe"}


def counter(name, attr, help, sparse=False, **labels) -> Metric:
    return Metric("counter", name, help, attr, tuple(labels.items()), sparse)


@dataclass(frozen=True)
class Stage:
    """One catalogued span.

    ``labels`` are ``(label, span attribute)`` pairs.  ``opened`` /
    ``closed`` are the event types emitted when the span opens and
    closes; with ``closed_if`` set, ``closed`` only when that
    attribute is non-zero.  ``open_metrics`` are fed by the attributes
    the span opens with and published when it opens.
    """

    span: str
    metrics: Tuple[Metric, ...] = ()
    labels: Tuple[Tuple[str, str], ...] = ()
    opened: Optional[str] = None
    closed: Optional[str] = None
    closed_if: Optional[str] = None
    open_metrics: Tuple[Metric, ...] = ()

    def open(self, args: Mapping[str, Any]) -> None:
        if self.open_metrics:
            self._publish(self.open_metrics, args, 0.0)
        if self.opened is not None:
            log = ev.get_event_log()
            if log.enabled:
                log.emit(self.opened, **args)

    def close(self, args: Mapping[str, Any], duration_s: float) -> None:
        labels = self._publish(self.metrics, args, duration_s)
        if self.closed is not None and (
            self.closed_if is None or args.get(self.closed_if)
        ):
            log = ev.get_event_log()
            if log.enabled:
                log.emit(self.closed, **{**args, **labels})

    def _publish(self, metrics, args, duration_s: float) -> Dict[str, Any]:
        """Publish ``metrics`` from ``args``; returns the label values."""
        registry = get_registry()
        labels = {label: args[attr] for label, attr in self.labels if attr in args}
        for metric in metrics:
            if metric.attr is None:
                value = duration_s if metric.kind == "histogram" else 1
            else:
                value = args.get(metric.attr)
                if value is None:
                    continue
            publish, fixed = metric.publisher(registry)
            if value or not metric.sparse:
                publish(value, **labels, **fixed)
        return labels


#: Read by the service's slow-query exemplars as per-batch deltas.
SCENARIOS_EXAMINED = counter(
    "ev_e_scenarios_examined_total", "examined",
    "E-Scenarios inspected by set splitting, effective or not",
)
TOPOLOGY_PRUNED = counter(
    "ev_topology_pruned_total", "topology_pruned",
    "evidence scenarios dropped by reachability pruning", sparse=True,
)

#: Per-target candidate-set sizes when set splitting stops.
CANDIDATES_REMAINING = Metric(
    "histogram", "ev_e_candidates_remaining",
    "per-target candidate-set size when splitting stopped",
    buckets=(1, 2, 4, 8, 16, 64, 256, 1024),
)

#: The V stage's work: carried by ``v.filter``, and by each refining
#: round (which drives ``VIDFilter.match_one`` directly).
_V_WORK = (
    counter("ev_v_detections_extracted_total", "detections_extracted",
            "human figures feature-extracted in selected V-Scenarios"),
    counter("ev_v_comparisons_total", "comparisons",
            "feature-vector comparisons charged"),
    TOPOLOGY_PRUNED,
    counter("ev_topology_kept_total", "topology_kept",
            "evidence scenarios surviving reachability pruning", sparse=True),
    counter("ev_topology_downweighted_total", "topology_downweighted",
            "evidence scenarios downweighted by the transition prior",
            sparse=True),
)

#: A stream's applied and late-dropped events since a stream span last
#: carried them.  A window close publishes them on opening, before the
#: sink sees the window, so a scrape from the sink sees every applied
#: event; the run's end carries the rest.
_STREAM_COUNTS = (
    counter("ev_stream_events_total", "events_e",
            "Stream events applied, by kind", sparse=True, kind="e"),
    counter("ev_stream_events_total", "events_v",
            "Stream events applied, by kind", sparse=True, kind="v"),
    counter("ev_stream_late_dropped_total", "late",
            "Events dropped for arriving after their window closed",
            sparse=True),
)

_CHECKPOINTS = ("ev_stream_checkpoints_total", None, "Checkpoint operations, by op")

STAGES: Dict[str, Stage] = {stage.span: stage for stage in (
    Stage("e.split", (
        SCENARIOS_EXAMINED,
        counter("ev_e_scenarios_recorded_total", "recorded",
                "distinct effective scenarios selected (Fig. 5/6 metric)"),
        counter("ev_e_targets_total", "targets",
                "targets submitted to set splitting"),
        counter("ev_e_targets_distinguished_total", "distinguished",
                "targets whose candidate set reached a singleton"),
        Metric("histogram", "ev_e_split_seconds",
               "real kernel time of one set-splitting run"),
    ), labels=(("backend", "backend"),),
        opened=ev.E_SPLIT_STARTED, closed=ev.E_SPLIT_CONVERGED),
    Stage("v.filter", _V_WORK),
    Stage("e.refine.round", (
        counter("ev_refine_rounds_total", None,
                "Algorithm 2 refining passes executed"),
    ) + _V_WORK,
        opened=ev.E_REFINE_ROUND_STARTED, closed=ev.E_REFINE_ROUND_FINISHED),
    Stage("match", tuple(
        counter("ev_simulated_stage_seconds_total", f"sim_{stage}_s",
                "Simulated stage seconds accumulated by matching runs",
                stage=stage)
        for stage in ("e", "v", "total")
    ) + (
        counter("ev_match_runs_total", None, "Matching runs completed"),
    ), labels=(("algorithm", "algorithm"),)),
    Stage("mr.job", (
        counter("mr_jobs_total", None, "MapReduce jobs completed"),
        counter("mr_records_in_total", "records_in",
                "Records read by MapReduce jobs"),
        counter("mr_records_out_total", "records_out",
                "Records written by MapReduce jobs"),
        counter("mr_pairs_shuffled_total", "pairs_shuffled",
                "Key/value pairs moved in shuffles"),
    ), closed=ev.MR_JOB_FINISHED),
    Stage("mr.stage", (
        counter("mr_tasks_total", "tasks", "Tasks that ran, by stage"),
        counter("mr_task_retries_total", "retries",
                "Failed attempts that were retried, by stage"),
        counter("mr_simulated_seconds_total", "makespan",
                "Simulated stage makespan accumulated by jobs, by stage"),
        counter("mr_speculative_copies_total", "speculative_copies",
                "Speculative backup copies launched", sparse=True),
    ), labels=(("stage", "phase"),),
        closed=ev.MR_STAGE_SPECULATION, closed_if="speculative_copies"),
    Stage("stream.window.close", (
        counter("ev_stream_windows_closed_total", None, "Windows closed"),
        counter("ev_stream_scenarios_emitted_total", "applied",
                "Scenarios applied to the sink", sparse=True),
        counter("ev_stream_duplicates_suppressed_total", "duplicates",
                "Re-assembled scenarios suppressed by the idempotent sink",
                sparse=True),
        Metric("gauge", "ev_stream_open_windows", "Currently open windows",
               "open_windows"),
        Metric("gauge", "ev_stream_watermark", "Event-time watermark (ticks)",
               "watermark"),
    ), closed=ev.STREAM_WINDOW_CLOSED, open_metrics=_STREAM_COUNTS),
    Stage("stream.run", (
        counter("ev_stream_shed_total", "shed",
                "Events shed by the bounded admission queue", sparse=True),
    ) + _STREAM_COUNTS),
    Stage("stream.checkpoint.save", (counter(*_CHECKPOINTS, op="save"),),
          closed=ev.STREAM_CHECKPOINT_SAVED),
    Stage("stream.checkpoint.restore", (counter(*_CHECKPOINTS, op="restore"),),
          closed=ev.STREAM_CHECKPOINT_RESTORED),
)}
