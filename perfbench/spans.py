"""In-memory span recorder for the benchmark's traced runs.

The benchmark never adds spans inside ``src/``.  Instead, a traced run
wraps the public entry points of each layer (``build_dataset``'s
steps, ``SetSplitter.run``, ``VIDFilter.match``,
``MatchService.ingest_tick`` ...) with :meth:`Recorder.span` for the
duration of the run and restores the originals afterwards.

Spans nest per thread.  Each span's *self time* is its duration minus
the time its direct children on the same thread cover, so the self
times of a thread's spans under one root add up to the root's
duration.  The recorder keeps one aggregate per span name (calls,
total, self) plus every duration, which is what percentiles need, and
writes the aggregates out with :meth:`Recorder.dump`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class SpanStats:
    """Everything recorded under one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)
    #: self seconds per recording thread (for per-thread accounting).
    self_by_thread: Dict[int, float] = field(default_factory=dict)
    parents: Dict[str, int] = field(default_factory=dict)


@dataclass
class _Open:
    name: str
    start: float
    children_s: float = 0.0


class Recorder:
    """Records nested spans from any number of threads."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        opened = _Open(name, time.perf_counter())
        stack.append(opened)
        try:
            yield
        finally:
            duration = time.perf_counter() - opened.start
            stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent.children_s += duration
            self._close(name, duration, duration - opened.children_s, parent)

    def _close(
        self, name: str, duration: float, self_s: float, parent: Optional[_Open]
    ) -> None:
        thread = threading.get_ident()
        parent_name = parent.name if parent is not None else ""
        with self._lock:
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = SpanStats()
            stats.calls += 1
            stats.total_s += duration
            stats.self_s += self_s
            stats.durations.append(duration)
            stats.self_by_thread[thread] = (
                stats.self_by_thread.get(thread, 0.0) + self_s
            )
            stats.parents[parent_name] = stats.parents.get(parent_name, 0) + 1

    # -- reading -----------------------------------------------------------
    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def self_time_under(self, root: str) -> Tuple[float, float]:
        """``(root seconds, self seconds of every other span recorded on
        the root's threads)`` — the coverage check's two sides."""
        root_stats = self.get(root)
        threads = set(root_stats.self_by_thread)
        covered = sum(
            seconds
            for name, stats in self.stats.items()
            if name != root
            for thread, seconds in stats.self_by_thread.items()
            if thread in threads
        )
        return root_stats.total_s, covered

    def dump(self, path) -> None:
        """Write the per-name aggregates (no raw durations) as JSON."""
        rows = {
            name: {
                "calls": stats.calls,
                "total_s": stats.total_s,
                "self_s": stats.self_s,
                "parents": stats.parents,
            }
            for name, stats in sorted(self.stats.items())
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)


class Instrumentation:
    """Temporarily wraps named attributes with recorder spans.

    ``patch(owner, attr, span_name)`` replaces ``owner.attr`` with a
    wrapper that runs the original inside ``recorder.span(span_name)``;
    :meth:`restore` (or leaving the ``with`` block) puts every original
    back.  Plain functions, methods and classmethods are handled;
    :meth:`patch_iterator` times each ``next()`` of a returned iterator
    instead of the call that creates it.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, span_name: str) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._wrap(raw.__func__, span_name)))
        else:
            setattr(owner, attr, self._wrap(raw, span_name))

    def patch_iterator(self, owner: Any, attr: str, span_name: str) -> None:
        """Wrap a method returning an iterator: each ``next()`` on the
        returned iterator runs inside ``span_name``."""
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        span = self.recorder.span

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            iterator = iter(raw(*args, **kwargs))

            def timed():
                while True:
                    with span(span_name):
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                    yield item

            return timed()

        setattr(owner, attr, wrapper)

    def _wrap(self, fn: Callable, span_name: str) -> Callable:
        span = self.recorder.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()
