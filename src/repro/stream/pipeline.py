"""The streaming pipeline: source → bounded queue → assembler → sinks.

:class:`StreamPipeline` wires a sensor source
(:mod:`repro.stream.sources`) through a
:class:`~repro.stream.queues.BoundedEventQueue` into the
:class:`~repro.stream.assembler.WindowAssembler`, hands every closed
window's scenarios to an idempotent sink, and periodically snapshots
its resumable state (:mod:`repro.stream.checkpoint`).

**Items and events.**  The pipeline moves items — sighting batches
and camera frames (:mod:`repro.stream.events`) — but counts events:
``events_applied``, the ``max_events`` kill, the checkpoint's resume
offset, late drops, sheds and ``ev_stream_events_total`` all count
single sightings and frames.  A batch that crosses the kill offset is
cut at it, and a restored run's source slices the batch that crosses
the resume offset.

**Delivery guarantee.**  Under the default ``"block"`` overflow policy
the pipeline is lossless, and with a checkpoint path configured it is
*exactly-once at the sink*: a killed run restores from the last
snapshot, skips the already-applied source prefix, re-assembles any
windows closed after the snapshot, and the sink's duplicate check
(key already in the store) suppresses their re-emission — so the
``stream.scenario.emitted`` event fires exactly once per scenario
across all attempts.  A checkpoint is taken only after every window
an item closed has reached the sink, so its ``next_window`` never
claims a window the sink has not seen.  Checkpointing is refused
under ``"shed"``: with lossy admission the applied prefix is no longer
a prefix of the source, and a resume offset could silently re-apply
shed-adjacent events into open windows.

**Observability.**  The ``stream.run``, ``stream.window.close`` and
``stream.checkpoint.save`` / ``.restore`` spans publish the
``ev_stream_*`` counters and gauges and the window-close and
checkpoint events (:mod:`repro.obs.stages`); events by kind and late
drops are tallied in plain ints until the next window close or the
run's end carries them.  Scenario emission, late drops and sheds are
flight-recorder events emitted directly.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.incremental import IncrementalMatcher
from repro.obs import get_event_log, get_tracer
from repro.obs.events import (
    STREAM_EVENT_LATE,
    STREAM_EVENT_SHED,
    STREAM_SCENARIO_EMITTED,
)
from repro.sensing.builder import VFrame
from repro.sensing.scenarios import EVScenario, ScenarioStore
from repro.stream.assembler import ClosedWindow, WindowAssembler
from repro.stream.checkpoint import (
    load_checkpoint,
    restore_into,
    save_checkpoint,
    scenario_from_json,
    scenario_to_json,
    snapshot,
)
from repro.stream.events import StreamItem, event_count, event_kind
from repro.stream.queues import POLICIES, BoundedEventQueue


@dataclass(frozen=True)
class StreamConfig:
    """Pipeline knobs.

    Attributes:
        window_ticks / inclusive_threshold / vague_threshold: the
            assembly semantics — must match the batch builder's
            :class:`~repro.sensing.builder.ScenarioBuilderConfig` for
            the equivalence guarantee to hold.
        allowed_lateness: bounded-disorder tolerance in ticks; set it
            to the source's ``jitter_ticks`` to keep the stream
            lossless under reordering.
        queue_capacity / overflow: the admission queue between the
            source thread and the assembler (see
            :mod:`repro.stream.queues`); its capacity counts items
            (sighting batches and frames), not events.
        synchronous: pull events on the caller's thread instead of
            spawning a producer (deterministic single-threaded mode
            for tests; the queue is bypassed).
        checkpoint_path: where to snapshot resumable state (``None``
            disables checkpointing).  Requires ``overflow="block"``.
        checkpoint_every_windows: snapshot cadence, in window closes.
        max_events: stop (simulating a crash — no flush, no final
            checkpoint) after applying this many events; the batch that
            crosses it is applied only up to it.
    """

    window_ticks: int = 1
    inclusive_threshold: float = 0.75
    vague_threshold: float = 0.25
    allowed_lateness: int = 0
    queue_capacity: int = 1024
    overflow: str = "block"
    synchronous: bool = False
    checkpoint_path: Optional[str] = None
    checkpoint_every_windows: int = 1
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.overflow not in POLICIES:
            raise ValueError(
                f"overflow must be one of {POLICIES}, got {self.overflow!r}"
            )
        if self.checkpoint_path is not None and self.overflow == "shed":
            raise ValueError(
                "checkpointing requires the lossless 'block' policy: under "
                "'shed' the applied events are not a prefix of the source, "
                "so a resume offset would replay the wrong suffix"
            )
        if self.checkpoint_every_windows <= 0:
            raise ValueError(
                f"checkpoint_every_windows must be positive, "
                f"got {self.checkpoint_every_windows}"
            )
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError(
                f"max_events must be positive, got {self.max_events}"
            )

    @classmethod
    def from_builder(cls, builder_config, **overrides: Any) -> "StreamConfig":
        """Assembly semantics copied from a batch
        :class:`~repro.sensing.builder.ScenarioBuilderConfig`."""
        return cls(
            window_ticks=builder_config.window_ticks,
            inclusive_threshold=builder_config.inclusive_threshold,
            vague_threshold=builder_config.vague_threshold,
            **overrides,
        )

    def fingerprint(self) -> Dict[str, Any]:
        """The semantic parameters a checkpoint must agree on."""
        return {
            "window_ticks": self.window_ticks,
            "inclusive_threshold": self.inclusive_threshold,
            "vague_threshold": self.vague_threshold,
            "allowed_lateness": self.allowed_lateness,
        }


class StoreSink:
    """Feeds a :class:`~repro.sensing.scenarios.ScenarioStore` (and
    optionally an :class:`~repro.core.incremental.IncrementalMatcher`
    watch-list), suppressing scenarios whose key is already present.
    """

    def __init__(
        self,
        store: ScenarioStore,
        watch: Optional[IncrementalMatcher] = None,
    ) -> None:
        self.store = store
        self.watch = watch
        self.emissions: List = []

    def emit_window(
        self, scenarios: Sequence[EVScenario]
    ) -> Tuple[List[EVScenario], int]:
        """Apply one closed window; returns ``(applied, duplicates)``."""
        applied: List[EVScenario] = []
        duplicates = 0
        for scenario in scenarios:
            if scenario.key in self.store:
                duplicates += 1
                continue
            self.store.add(scenario)
            applied.append(scenario)
        if self.watch is not None:
            self.emissions.extend(self.watch.observe(*applied))
        return applied, duplicates


class DurableStoreSink(StoreSink):
    """A :class:`StoreSink` that journals every applied scenario to a
    JSONL file and reloads it on construction, so a restarted process
    resumes with the store it had — the durable half of the
    checkpoint/restore exactly-once story.

    The journal append happens after the in-memory add and before the
    next checkpoint save, so a crash anywhere in between re-offers the
    window on restore and the reloaded journal suppresses it.
    """

    def __init__(
        self,
        store: ScenarioStore,
        journal_path: str,
        watch: Optional[IncrementalMatcher] = None,
    ) -> None:
        super().__init__(store, watch)
        self.journal_path = journal_path
        self.reloaded = 0
        if os.path.exists(journal_path):
            with open(journal_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    scenario = scenario_from_json(json.loads(line))
                    if scenario.key not in store:
                        store.add(scenario)
                        self.reloaded += 1

    def emit_window(
        self, scenarios: Sequence[EVScenario]
    ) -> Tuple[List[EVScenario], int]:
        applied, duplicates = super().emit_window(scenarios)
        if applied:
            with open(self.journal_path, "a", encoding="utf-8") as fh:
                for scenario in applied:
                    fh.write(json.dumps(scenario_to_json(scenario)) + "\n")
        return applied, duplicates


class ServiceSink:
    """Feeds a live :class:`~repro.service.server.MatchService` via
    its ingest path (store + shards + watch-list + cache
    invalidation), with the same duplicate suppression."""

    def __init__(self, service) -> None:
        self.service = service
        self.emissions: List = []

    def emit_window(
        self, scenarios: Sequence[EVScenario]
    ) -> Tuple[List[EVScenario], int]:
        fresh = [s for s in scenarios if s.key not in self.service.store]
        duplicates = len(scenarios) - len(fresh)
        if fresh:
            response = self.service.ingest_tick(fresh)
            if response.status != "ok":
                raise RuntimeError(
                    f"service ingest failed: {response.error}"
                )
            self.emissions.extend(response.emissions)
        return fresh, duplicates


@dataclass
class StreamReport:
    """What one :meth:`StreamPipeline.run` did."""

    events_applied: int = 0
    events_processed_total: int = 0
    late_dropped: int = 0
    shed: int = 0
    windows_closed: int = 0
    scenarios_applied: int = 0
    scenarios_emitted_total: int = 0
    duplicates_suppressed: int = 0
    peak_open_windows: int = 0
    open_windows_remaining: int = 0
    checkpoints_saved: int = 0
    restored: bool = False
    killed: bool = False
    elapsed_s: float = 0.0
    watermark: Optional[int] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.events_applied / self.elapsed_s

    def render(self) -> str:
        """A compact human-readable summary."""
        lines = [
            "stream run"
            + (" (restored)" if self.restored else "")
            + (" (killed)" if self.killed else ""),
            f"  events applied        {self.events_applied}"
            f" (total across runs: {self.events_processed_total})",
            f"  throughput            {self.events_per_sec:,.0f} events/s"
            f" over {self.elapsed_s:.3f}s",
            f"  windows closed        {self.windows_closed}"
            f" (peak open: {self.peak_open_windows},"
            f" still open: {self.open_windows_remaining})",
            f"  scenarios applied     {self.scenarios_applied}"
            f" (total across runs: {self.scenarios_emitted_total})",
            f"  duplicates suppressed {self.duplicates_suppressed}",
            f"  late dropped          {self.late_dropped}",
            f"  shed                  {self.shed}",
            f"  checkpoints saved     {self.checkpoints_saved}",
            f"  watermark             {self.watermark}",
        ]
        return "\n".join(lines)


def _checkpoint_args(state) -> Dict[str, int]:
    """A saved or restored checkpoint's span attributes."""
    return {
        "events_processed": state.events_processed,
        "next_window": state.next_window,
        "open_windows": len(state.open_windows),
        "scenarios_emitted": state.scenarios_emitted,
    }


class StreamPipeline:
    """One source, one sink, one assembler — see module docstring.

    Args:
        source: anything with an ``events(skip=0) ->
            Iterator[StreamItem]`` method (``skip`` drops that many
            leading events, slicing the batch that straddles it; it is
            passed only when restoring) (:class:`~repro.stream.sources.TraceReplaySource`,
            :class:`~repro.stream.sources.SyntheticLiveSource`, or a
            test double).
        sink: a :class:`StoreSink` or :class:`ServiceSink` (anything
            with ``emit_window``).
        config: pipeline knobs.
    """

    def __init__(self, source, sink, config: Optional[StreamConfig] = None):
        self.source = source
        self.sink = sink
        self.config = config if config is not None else StreamConfig()
        self.assembler = WindowAssembler(
            window_ticks=self.config.window_ticks,
            inclusive_threshold=self.config.inclusive_threshold,
            vague_threshold=self.config.vague_threshold,
            allowed_lateness=self.config.allowed_lateness,
        )
        self._events_applied = 0
        # Applied (by kind) and late-dropped events not yet carried by a
        # stream span, keyed by the span attribute that carries them.
        self._unpublished = {"events_e": 0, "events_v": 0, "late": 0}
        self._events_processed_total = 0
        self._scenarios_applied = 0
        self._scenarios_emitted_total = 0
        self._duplicates = 0
        self._checkpoints_saved = 0
        self._windows_since_checkpoint = 0
        self._restored = False

    # -- restore -----------------------------------------------------------
    def _maybe_restore(self) -> int:
        """Load an existing checkpoint; returns the resume offset."""
        path = self.config.checkpoint_path
        if path is None or not os.path.exists(path):
            return 0
        with get_tracer().span("stream.checkpoint.restore", path=path) as span:
            checkpoint = load_checkpoint(path)
            restore_into(self.assembler, checkpoint, self.config.fingerprint())
            span.set(**_checkpoint_args(checkpoint))
        self._events_processed_total = checkpoint.events_processed
        self._scenarios_emitted_total = checkpoint.scenarios_emitted
        self._restored = True
        return checkpoint.events_processed

    def _save_checkpoint(self) -> None:
        path = self.config.checkpoint_path
        assert path is not None
        with get_tracer().span("stream.checkpoint.save", path=path) as span:
            state = snapshot(
                self.assembler,
                events_processed=self._events_processed_total,
                scenarios_emitted=self._scenarios_emitted_total,
                config=self.config.fingerprint(),
            )
            save_checkpoint(path, state)
            span.set(**_checkpoint_args(state))
        self._checkpoints_saved += 1
        self._windows_since_checkpoint = 0

    # -- item application ---------------------------------------------------
    def _apply(self, item: StreamItem) -> None:
        count = event_count(item)
        kind = event_kind(item)
        self._events_applied += count
        self._events_processed_total += count
        self._unpublished["events_" + kind] += count
        closed, late = self.assembler.offer(item)
        if late:
            self._unpublished["late"] += len(late)
            log = get_event_log()
            if log.enabled:
                mark = self.assembler.watermark.watermark
                for tick in late:
                    log.emit(
                        STREAM_EVENT_LATE,
                        tick=tick,
                        window=tick // self.config.window_ticks,
                        kind=kind,
                        watermark=mark,
                    )
        for closed_window in closed:
            self._handle_closed(closed_window)
        if (
            self.config.checkpoint_path is not None
            and self._windows_since_checkpoint
            >= self.config.checkpoint_every_windows
        ):
            self._save_checkpoint()

    def _take_unpublished(self) -> Dict[str, int]:
        """The unpublished counts, as the next stream span's attributes."""
        taken, self._unpublished = self._unpublished, dict.fromkeys(
            self._unpublished, 0
        )
        return taken

    def _handle_closed(self, closed: ClosedWindow) -> None:
        with get_tracer().span(
            "stream.window.close",
            window=closed.window,
            scenarios=len(closed.scenarios),
            **self._take_unpublished(),
        ) as span:
            applied, duplicates = self.sink.emit_window(closed.scenarios)
            span.set(
                applied=len(applied),
                duplicates=duplicates,
                open_windows=self.assembler.open_windows,
                watermark=self.assembler.watermark.watermark,
            )
        self._scenarios_applied += len(applied)
        self._scenarios_emitted_total += len(applied)
        self._duplicates += duplicates
        log = get_event_log()
        if log.enabled:
            for scenario in applied:
                log.emit(
                    STREAM_SCENARIO_EMITTED,
                    cell=scenario.key.cell_id,
                    window=scenario.key.tick,
                    eids=len(scenario.e),
                    detections=scenario.v.num_detections,
                )
        self._windows_since_checkpoint += 1

    # -- run ---------------------------------------------------------------
    def run(self) -> StreamReport:
        """Drive the stream to completion (or the ``max_events`` kill).

        Returns a :class:`StreamReport`; safe to call again on a fresh
        pipeline instance to resume from the checkpoint.
        """
        started = time.perf_counter()
        with get_tracer().span("stream.run") as span:
            skip = self._maybe_restore()
            # The source applies the resume offset before pacing, so a
            # restored run does not sleep through the skipped prefix.
            items = (
                self.source.events(skip=skip) if skip else self.source.events()
            )
            if self.config.synchronous:
                killed = self._run_synchronous(items)
                shed = 0
            else:
                killed, shed = self._run_threaded(items)
            if not killed:
                for closed_window in self.assembler.flush():
                    self._handle_closed(closed_window)
                if (
                    self.config.checkpoint_path is not None
                    and self._windows_since_checkpoint > 0
                ):
                    self._save_checkpoint()
            span.set(shed=shed, **self._take_unpublished())
        elapsed = time.perf_counter() - started
        mark = self.assembler.watermark.watermark
        return StreamReport(
            events_applied=self._events_applied,
            events_processed_total=self._events_processed_total,
            late_dropped=self.assembler.late_dropped,
            shed=shed if not self.config.synchronous else 0,
            windows_closed=self.assembler.windows_closed,
            scenarios_applied=self._scenarios_applied,
            scenarios_emitted_total=self._scenarios_emitted_total,
            duplicates_suppressed=self._duplicates,
            peak_open_windows=self.assembler.peak_open_windows,
            open_windows_remaining=self.assembler.open_windows,
            checkpoints_saved=self._checkpoints_saved,
            restored=self._restored,
            killed=killed,
            elapsed_s=elapsed,
            watermark=mark,
        )

    def _killed(self) -> bool:
        return (
            self.config.max_events is not None
            and self._events_applied >= self.config.max_events
        )

    def _within_budget(self, item: StreamItem) -> StreamItem:
        """``item``, cut at the ``max_events`` kill offset."""
        if self.config.max_events is None:
            return item
        budget = self.config.max_events - self._events_applied
        return item[:budget] if event_count(item) > budget else item

    def _run_synchronous(self, items: Iterator[StreamItem]) -> bool:
        for item in items:
            self._apply(self._within_budget(item))
            if self._killed():
                return True
        return False

    def _run_threaded(
        self, items: Iterator[StreamItem]
    ) -> Tuple[bool, int]:
        """Returns ``(killed, events shed)``."""
        queue = BoundedEventQueue(
            capacity=self.config.queue_capacity, policy=self.config.overflow
        )
        stop = threading.Event()
        errors: List[BaseException] = []
        shed = [0]
        log = get_event_log()

        def produce() -> None:
            try:
                for item in items:
                    if stop.is_set():
                        break
                    if not queue.put(item):
                        shed[0] += event_count(item)
                        if log.enabled:
                            log.emit(
                                STREAM_EVENT_SHED,
                                tick=(
                                    item.tick
                                    if isinstance(item, VFrame)
                                    else int(item.ticks[0])
                                ),
                                kind=event_kind(item),
                                events=event_count(item),
                                depth=queue.depth,
                            )
            except BaseException as exc:  # surfaced on the consumer side
                errors.append(exc)
            finally:
                queue.put_sentinel()

        producer = threading.Thread(
            target=produce, name="repro-stream-source", daemon=True
        )
        producer.start()
        killed = False
        while True:
            item = queue.get()
            if item is None:
                break
            self._apply(self._within_budget(item))
            if self._killed():
                killed = True
                break
        if killed:
            # Unblock a producer stuck in a full 'block' queue, then
            # drain without applying until its sentinel arrives.
            stop.set()
            while queue.get() is not None:
                pass
        producer.join()
        if errors:
            raise errors[0]
        return killed, shed[0]
