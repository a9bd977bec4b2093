"""Hierarchical span tracing for the E/V pipeline and the engine.

The span half of :mod:`repro.obs`: a :class:`Tracer` produces nested
:class:`Span`\\ s via a context-manager (``with tracer.span("e.split")``)
or decorator (``@traced("v.filter")``) API.  The *current* span is a
``contextvars.ContextVar``, so nesting follows call structure
automatically — including across the MapReduce engine's thread pool,
which snapshots the driver's context per task
(``contextvars.copy_context()``) so task spans parent under their
stage span even though they run on worker threads.

Two export shapes:

* :meth:`Tracer.to_chrome_trace` — Chrome trace-event JSON (the
  ``chrome://tracing`` / Perfetto format: complete events, ``ph: "X"``,
  microsecond timestamps, real thread ids), written by
  ``repro match --trace out.json``;
* :meth:`Tracer.render_tree` — an indented text tree with durations,
  for terminals and test failures.

The default process tracer is a shared :class:`NullTracer`: a span
name catalogued in :mod:`repro.obs.stages` gets a span that only times
itself and publishes its stage, every other name one reusable no-op
object, so hot paths pay a method call and no allocation when tracing
is off.  Enable recording with ``set_tracer(Tracer())``.

**Cross-process propagation.**  A :class:`TraceContext` carries a
``trace_id`` (minted once per traced request, by its client) plus the
parent span's id across a process boundary: the sender calls
:func:`inject_trace` on its wire message, the receiver
:func:`extract_trace` and opens its spans under
``Tracer.remote_context(ctx)`` — the first span with no local parent
adopts the remote trace id and records the remote parent
(:attr:`Span.remote_parent_id`), and every descendant inherits the
trace id.  :meth:`Tracer.take_trace` pops a finished trace's spans
(bounding memory in long-lived servers) and
:meth:`Tracer.span_records` turns them into JSON-able wire records on
a **wall-clock** timebase, so spans from different processes merge
into one Chrome trace.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.stages import STAGES, Stage

#: Process-unique span ids — the join key between a span and the
#: events (:mod:`repro.obs.events`) emitted while it was open.
_span_ids = itertools.count(1)

#: Wire-message key the trace envelope travels under.
TRACE_KEY = "trace"


@dataclass(frozen=True)
class TraceContext:
    """One request's identity across process boundaries.

    Attributes:
        trace_id: opaque id shared by every span of one distributed
            request (the client mints it; retries and replica
            fan-out reuse it).
        parent_span_id: the sender-side span the receiver's spans
            should parent under (``None`` for a fresh root).
    """

    trace_id: str
    parent_span_id: Optional[int] = None


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


def inject_trace(message: Dict[str, Any], ctx: TraceContext) -> Dict[str, Any]:
    """Attach ``ctx`` to a wire message (mutates and returns it)."""
    message[TRACE_KEY] = {
        "trace_id": ctx.trace_id,
        "parent_span_id": ctx.parent_span_id,
    }
    return message


def extract_trace(message: Dict[str, Any]) -> Optional[TraceContext]:
    """Read a :class:`TraceContext` out of a wire message, if any.

    Malformed envelopes are treated as absent — tracing must never
    make a request fail.
    """
    raw = message.get(TRACE_KEY)
    if not isinstance(raw, dict):
        return None
    trace_id = raw.get("trace_id")
    if not trace_id:
        return None
    parent = raw.get("parent_span_id")
    try:
        return TraceContext(
            trace_id=str(trace_id),
            parent_span_id=None if parent is None else int(parent),
        )
    except (TypeError, ValueError):
        return None


class Span:
    """One timed, named region; a node in the trace tree."""

    __slots__ = (
        "name", "args", "tid", "parent", "children",
        "start_s", "end_s", "span_id", "trace_id", "remote_parent_id",
    )

    def __init__(
        self,
        name: str,
        parent: Optional["Span"],
        start_s: float,
        args: Dict[str, Any],
    ) -> None:
        self.span_id = next(_span_ids)
        self.name = name
        self.parent = parent
        self.children: List["Span"] = []
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.tid = threading.get_ident()
        self.args = args
        self.trace_id: Optional[str] = None
        self.remote_parent_id: Optional[int] = None

    def set(self, **args: Any) -> None:
        """Attach arguments discovered while the span is open (counts,
        outcomes) — they land in the Chrome event's ``args``."""
        self.args.update(args)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration_s * 1e3:.2f}ms)"


class _NoopSpan:
    """The shared do-nothing span: context manager + ``set`` no-op."""

    __slots__ = ()

    span_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set(self, **args: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _StageSpan:
    """A catalogued span under :class:`NullTracer`: records nothing,
    but times itself and publishes its :class:`~repro.obs.stages.Stage`."""

    __slots__ = ("_stage", "args", "_start_s")

    span_id = None

    def __init__(self, stage: Stage, args: Dict[str, Any]) -> None:
        self._stage = stage
        self.args = args

    def __enter__(self) -> "_StageSpan":
        self._start_s = time.perf_counter()
        self._stage.open(self.args)
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> bool:
        if exc_type is None:
            self._stage.close(self.args, time.perf_counter() - self._start_s)
        return False

    def set(self, **args: Any) -> None:
        self.args.update(args)


class _SpanContext:
    """Context manager guarding one span's lifetime + contextvar."""

    __slots__ = ("_tracer", "_span", "_token", "_stage")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._token: Optional[contextvars.Token] = None
        self._stage = STAGES.get(span.name)

    def __enter__(self) -> Span:
        span = self._span
        self._token = self._tracer._current.set(span)
        # Per-thread open-span registry for the sampling profiler: only
        # the owning thread mutates its own stack (enter/exit happen on
        # the thread that opened the span), so plain list ops suffice.
        active = self._tracer._active
        stack = active.get(span.tid)
        if stack is None:
            active[span.tid] = [span]
        else:
            stack.append(span)
        if self._stage is not None:
            self._stage.open(span.args)
        return span

    def __exit__(self, exc_type: Any, *exc_info: Any) -> bool:
        span = self._span
        span.end_s = self._tracer._clock()
        try:
            # Published while the span is current, so its events carry its id.
            if self._stage is not None and exc_type is None:
                self._stage.close(span.args, span.duration_s)
        finally:
            if self._token is not None:
                self._tracer._current.reset(self._token)
        active = self._tracer._active
        stack = active.get(span.tid)
        if stack:
            if stack[-1] is span:
                stack.pop()
            else:  # tolerate out-of-order exits; never raise from exit
                try:
                    stack.remove(span)
                except ValueError:
                    pass
            if not stack:
                active.pop(span.tid, None)
        self._tracer._record(span)
        return False


class _RemoteContext:
    """Context manager binding a remote :class:`TraceContext` (or
    nothing, when ``ctx`` is ``None``) to the current context."""

    __slots__ = ("_var", "_ctx", "_token")

    def __init__(
        self,
        var: "contextvars.ContextVar[Optional[TraceContext]]",
        ctx: Optional[TraceContext],
    ) -> None:
        self._var = var
        self._ctx = ctx
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Optional[TraceContext]:
        if self._ctx is not None:
            self._token = self._var.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc_info: Any) -> bool:
        if self._token is not None:
            self._var.reset(self._token)
            self._token = None
        return False


class Tracer:
    """Collects nested spans; exports Chrome trace JSON / a text tree.

    Thread-safe: spans may open and close on any thread.  Parenting is
    taken from the contextvar unless an explicit ``parent=`` is given
    (how the engine parents worker-thread tasks when a caller opts out
    of context snapshots).
    """

    def __init__(self) -> None:
        self._clock = time.perf_counter
        # The perf_counter epoch times spans; the wall epoch captured at
        # the same instant anchors them on a cross-process-comparable
        # timebase for merged cluster traces.
        self._epoch = self._clock()
        self._wall_epoch = time.time()
        self._current: "contextvars.ContextVar[Optional[Span]]" = (
            contextvars.ContextVar(f"repro-obs-span-{id(self)}", default=None)
        )
        self._remote: "contextvars.ContextVar[Optional[TraceContext]]" = (
            contextvars.ContextVar(f"repro-obs-remote-{id(self)}", default=None)
        )
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self._roots: List[Span] = []
        # tid -> that thread's currently-open spans, outermost first.
        # Written only by the owning thread; read (racily but safely,
        # under the GIL) by the sampling profiler's thread.
        self._active: Dict[int, List[Span]] = {}

    # -- recording -------------------------------------------------------
    def span(
        self, name: str, parent: Optional[Span] = None, **args: Any
    ) -> _SpanContext:
        """Open a span; use as ``with tracer.span("name") as s:``."""
        effective_parent = parent if parent is not None else self._current.get()
        # ``args`` is this call's own kwargs dict — safe to adopt.
        span = Span(name, effective_parent, self._clock(), args)
        if effective_parent is not None:
            span.trace_id = effective_parent.trace_id
        else:
            remote = self._remote.get()
            if remote is not None:
                span.trace_id = remote.trace_id
                span.remote_parent_id = remote.parent_span_id
        return _SpanContext(self, span)

    def remote_context(self, ctx: Optional[TraceContext]) -> "_RemoteContext":
        """Bind a remote :class:`TraceContext` for the enclosed block:
        root spans opened inside adopt its trace id and remote parent.
        ``None`` is accepted and makes the block a no-op, so call sites
        need no branching on whether a request carried a trace."""
        return _RemoteContext(self._remote, ctx)

    def trace(self, name: Optional[str] = None) -> Callable:
        """Decorator form: the wrapped call body becomes one span."""

        def decorator(fn: Callable) -> Callable:
            label = name if name is not None else fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(label):
                    return fn(*args, **kwargs)

            return wrapper

        return decorator

    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread's context, if any."""
        return self._current.get()

    def active_span_stacks(self) -> Dict[int, Tuple[str, ...]]:
        """Snapshot of every thread's open span names, outermost first.

        This is how the sampling profiler attributes a stack sample to
        the spans that were open on the sampled thread: the contextvar
        can't be read cross-thread, but the per-thread stacks can.  The
        read races benignly with the owning threads (list/dict ops are
        atomic under the GIL); a sample landing mid-transition merely
        attributes one tick to the neighbouring span.
        """
        stacks: Dict[int, Tuple[str, ...]] = {}
        for tid, stack in list(self._active.items()):
            names = tuple(span.name for span in list(stack))
            if names:
                stacks[tid] = names
        return stacks

    def _record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)
            if span.parent is None:
                self._roots.append(span)
            else:
                span.parent.children.append(span)

    # -- reading ---------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Finished spans in completion order."""
        with self._lock:
            return list(self._finished)

    @property
    def roots(self) -> List[Span]:
        """Finished spans with no parent, in completion order."""
        with self._lock:
            return list(self._roots)

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()
            self._roots.clear()
        self._epoch = self._clock()
        self._wall_epoch = time.time()

    def take_trace(self, trace_id: str) -> List[Span]:
        """Remove and return every finished span of one trace.

        Long-lived servers call this after answering a request so the
        tracer's retained-span list stays bounded by in-flight work
        instead of growing with uptime.
        """
        with self._lock:
            taken = [s for s in self._finished if s.trace_id == trace_id]
            if taken:
                self._finished = [
                    s for s in self._finished if s.trace_id != trace_id
                ]
                self._roots = [s for s in self._roots if s.trace_id != trace_id]
        return taken

    # -- exports ---------------------------------------------------------
    def to_chrome_trace(self) -> Dict[str, Any]:
        """The run as Chrome trace-event JSON (complete ``"X"`` events).

        Load in ``chrome://tracing`` or https://ui.perfetto.dev;
        ``ts`` / ``dur`` are microseconds since the tracer's epoch.
        """
        pid = os.getpid()
        events = []
        for span in self.spans:
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start_s - self._epoch) * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": pid,
                "tid": span.tid,
                "args": {k: _jsonable(v) for k, v in span.args.items()},
            })
        events.sort(key=lambda e: e["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def span_records(self, spans: List[Span]) -> List[Dict[str, Any]]:
        """JSON-able wire records for ``spans``, on a wall-clock
        timebase (microseconds since the Unix epoch) so records from
        different processes land on one comparable axis.

        ``parent_span_id`` is the local parent's id when the span has
        one, else the remote parent carried in by the trace context —
        the receiving side reconstructs one tree spanning processes.
        """
        pid = os.getpid()
        records = []
        for span in spans:
            if span.parent is not None:
                parent_id = span.parent.span_id
            else:
                parent_id = span.remote_parent_id
            wall_start = self._wall_epoch + (span.start_s - self._epoch)
            records.append({
                "name": span.name,
                "span_id": span.span_id,
                "parent_span_id": parent_id,
                "trace_id": span.trace_id,
                "ts_us": wall_start * 1e6,
                "dur_us": span.duration_s * 1e6,
                "pid": pid,
                "tid": span.tid,
                "args": {k: _jsonable(v) for k, v in span.args.items()},
            })
        records.sort(key=lambda r: r["ts_us"])
        return records

    def render_tree(self, max_children: int = 12) -> str:
        """An indented text tree of the trace, durations in ms.

        Sibling runs past ``max_children`` are elided with a count —
        a universal match traces thousands of per-target spans and a
        terminal dump should stay readable.
        """
        lines: List[str] = []
        for root in self.roots:
            self._render_node(root, 0, max_children, lines)
        return "\n".join(lines)

    def _render_node(
        self, span: Span, depth: int, max_children: int, lines: List[str]
    ) -> None:
        indent = "  " * depth
        args = ""
        if span.args:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(span.args.items()))
            args = f"  [{rendered}]"
        lines.append(f"{indent}{span.name}  {span.duration_s * 1e3:.2f}ms{args}")
        children = sorted(span.children, key=lambda s: s.start_s)
        for child in children[:max_children]:
            self._render_node(child, depth + 1, max_children, lines)
        hidden = len(children) - max_children
        if hidden > 0:
            lines.append(f"{'  ' * (depth + 1)}... {hidden} more")


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: Shared dead contextvar backing NullTracer.remote_context — the
#: returned manager never sets it, so it costs one allocation and no
#: contextvar traffic.
_NULL_REMOTE_VAR: "contextvars.ContextVar[Optional[TraceContext]]" = (
    contextvars.ContextVar("repro-obs-remote-null", default=None)
)


class NullTracer:
    """The zero-overhead tracer: nothing is recorded, exports are empty,
    and only a catalogued stage span is more than a shared no-op."""

    def span(
        self, name: str, parent: Optional[Span] = None, **args: Any
    ) -> "_NoopSpan | _StageSpan":
        stage = STAGES.get(name)
        return _NOOP_SPAN if stage is None else _StageSpan(stage, args)

    #: The recording tracer's decorator: a catalogued name still publishes.
    trace = Tracer.trace

    def current_span(self) -> Optional[Span]:
        return None

    def active_span_stacks(self) -> Dict[int, Tuple[str, ...]]:
        return {}

    def remote_context(self, ctx: Optional[TraceContext]) -> "_RemoteContext":
        return _RemoteContext(_NULL_REMOTE_VAR, None)

    def take_trace(self, trace_id: str) -> List[Span]:
        return []

    def span_records(self, spans: List[Span]) -> List[Dict[str, Any]]:
        return []

    @property
    def spans(self) -> Tuple[Span, ...]:
        return ()

    @property
    def roots(self) -> Tuple[Span, ...]:
        return ()

    def reset(self) -> None:
        pass

    def to_chrome_trace(self) -> Dict[str, Any]:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def render_tree(self, max_children: int = 12) -> str:
        return ""


_NULL_TRACER = NullTracer()
_default_tracer: "Tracer | NullTracer" = _NULL_TRACER
_default_lock = threading.Lock()


def get_tracer() -> "Tracer | NullTracer":
    """The process-global tracer (a no-op unless someone enabled one)."""
    return _default_tracer


def set_tracer(tracer: "Tracer | NullTracer") -> "Tracer | NullTracer":
    """Swap the process-global tracer; returns the previous one."""
    global _default_tracer
    with _default_lock:
        previous = _default_tracer
        _default_tracer = tracer
    return previous


def null_tracer() -> NullTracer:
    """The shared no-op tracer."""
    return _NULL_TRACER


def traced(name: str) -> Callable:
    """Decorator binding to the *current* global tracer at call time
    (so enabling tracing after import still captures the function)."""

    def decorator(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with get_tracer().span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorator
