"""``ingest-live``: live ingest beside reads in one process.

The world's trace is replayed at full throttle through
``StreamPipeline(TraceReplaySource, ServiceSink)`` into a
``MatchService`` over an empty store that watches the 600 targets.
The pipeline runs synchronously on the benchmark's main thread, so one
thread owns the whole write path and its layers' self times add up to
the replay's wall time.  Meanwhile one reader thread sends the shared
request mix (see ``traffic.py``) on a fixed schedule in trace time —
open loop — and each request is timed from when it was due.  Replays repeat, each into
a fresh service, until the run's time is up.  Every replay must
rebuild the batch store exactly and emit every watched target.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import List

from common import (
    COVERAGE_FLOOR,
    TARGETS,
    Outcome,
    build_layers,
    build_worlds,
    coverage,
    instrument_matcher,
    median,
    paper_config,
    peak_rss_mb,
    percentile,
    tail_facts,
    target_seed,
)
from spans import Instrumentation, Recorder
from traffic import Sample, Traffic, first_error

#: Reader requests made due by each ingested window (10 s of sensed
#: time): one per service worker thread (``ServiceConfig().workers``),
#: so the reads run side by side and none queues behind another.  At
#: the replay pace measured with them on the paper world (150 windows
#: in 7-9 s, 2-CPU VM) this is 33-43 requests/s, about a fifth of the
#: in-process serving capacity with the result cache off (202-205 q/s
#: with this request mix and 2 closed-loop clients); ingest keeps
#: invalidating the cache, so nearly every read is such an uncached
#: read.  The schedule runs in trace time, not wall time, so every
#: replay gets the same 300 reads whatever the host's speed: a slower
#: write path does not also face more reads.
READS_PER_WINDOW = 2

#: Replays a run always makes; the ingest rate is their median.
MIN_REPLAYS = 3


def instrument_ingest(inst: Instrumentation) -> None:
    """Spans around the write path's layers."""
    from repro.core.incremental import IncrementalMatcher
    from repro.service.server import MatchService
    from repro.stream import ServiceSink, StreamPipeline, TraceReplaySource
    from repro.stream.assembler import WindowAssembler

    inst.patch(StreamPipeline, "run", "stream.pipeline")
    inst.patch_iterator(TraceReplaySource, "events", "stream.source")
    inst.patch(WindowAssembler, "offer", "stream.assemble")
    inst.patch(WindowAssembler, "flush", "stream.assemble")
    inst.patch(ServiceSink, "emit_window", "stream.sink")
    inst.patch(MatchService, "ingest_tick", "service.ingest")
    inst.patch(IncrementalMatcher, "observe", "incremental.observe")


class Reader(threading.Thread):
    """Open-loop investigator reads on a schedule in trace time: each
    ingested window makes ``READS_PER_WINDOW`` requests due.  The
    reader sends them without waiting for earlier answers, and each is
    timed from its due time to its answer."""

    def __init__(self, service, traffic: Traffic, seed: int) -> None:
        super().__init__(name="perfbench-reader", daemon=True)
        self.service = service
        self.requests = traffic.requests(seed)
        self.samples: List[Sample] = []
        self.lags: List[float] = []
        self.sent = 0
        self._dues: List[float] = []
        self._closed = False
        self._due = threading.Condition()
        self._answers = threading.Condition()

    def window_ingested(self) -> None:
        """The write path ingested a window: requests fall due now."""
        now = time.perf_counter()
        with self._due:
            self._dues.extend([now] * READS_PER_WINDOW)
            self._due.notify()

    def run(self) -> None:
        while True:
            with self._due:
                self._due.wait_for(lambda: self._dues or self._closed)
                if not self._dues:
                    return
                dues, self._dues = self._dues, []
            for due in dues:
                request = next(self.requests)
                self.lags.append(time.perf_counter() - due)
                self.sent += 1
                self.service.submit(request).add_done_callback(
                    functools.partial(self._answered, request, due)
                )

    def _answered(self, request, due: float, future) -> None:
        from repro.service.api import MatchRequest

        latency = time.perf_counter() - due
        kind = "match" if isinstance(request, MatchRequest) else "investigate"
        try:
            response = future.result()
            sample = Sample(
                kind=kind,
                latency_s=latency,
                ok=response.status == "ok",
                cached=response.cached,
                service_s=response.latency_s,
                error=f"{response.status}: {response.error}",
            )
        except Exception as exc:  # a crashed request is a failed one
            sample = Sample(kind=kind, latency_s=latency, ok=False, error=repr(exc))
        with self._answers:
            self.samples.append(sample)
            self._answers.notify_all()

    def stop(self) -> None:
        """Send what is still due, then wait for every answer; requests
        unanswered after that count as failed (``sent`` exceeds the
        sample count)."""
        with self._due:
            self._closed = True
            self._due.notify()
        self.join(timeout=30.0)
        with self._answers:
            self._answers.wait_for(lambda: len(self.samples) >= self.sent, 120.0)


class ReadingSink:
    """The replay's sink: a ``ServiceSink`` that makes the reader's
    requests due after each window it ingests."""

    def __init__(self, sink, reader: Reader) -> None:
        self.sink = sink
        self.reader = reader

    def emit_window(self, scenarios):
        applied = self.sink.emit_window(scenarios)
        self.reader.window_ingested()
        return applied


def _replay(dataset, sample, traffic, reader_seed, recorder=None):
    """One replay into a fresh service; returns a dict of what
    happened (the service is stopped before returning)."""
    from repro.sensing.scenarios import ScenarioStore
    from repro.service import MatchService, ServiceConfig
    from repro.stream import (
        ServiceSink,
        StreamConfig,
        StreamPipeline,
        TraceReplaySource,
        diff_stores,
    )

    started = time.perf_counter()
    store = ScenarioStore([])
    service = MatchService(
        store, grid=dataset.grid, universe=dataset.eids, config=ServiceConfig()
    ).start()
    service.watch(sample)
    start_s = time.perf_counter() - started

    sink = ServiceSink(service)
    reader = Reader(service, traffic, reader_seed)
    pipeline = StreamPipeline(
        TraceReplaySource.from_dataset(dataset),
        ReadingSink(sink, reader),
        StreamConfig.from_builder(dataset.config.builder_config(), synchronous=True),
    )
    with Instrumentation(recorder or Recorder()) as inst:
        if recorder is not None:
            instrument_ingest(inst)
            instrument_matcher(inst)
        reader.start()
        started = time.perf_counter()
        try:
            if recorder is not None:
                with recorder.span("bench.replay"):
                    report = pipeline.run()
            else:
                report = pipeline.run()
            wall = time.perf_counter() - started
        finally:
            reader.stop()
            service.stop()
    # Only small results leave: the live store must be freed before
    # the next replay, or peak memory would grow with the replay count.
    truth = dataset.truth
    return {
        "start_s": start_s,
        "wall_s": wall,
        "report": report,
        "diff": len(diff_stores(dataset.store, store)),
        "emitted": service.watch_emitted,
        "correct": sum(
            1
            for emission in sink.emissions
            if emission.result.best is not None
            and emission.result.best.true_vid == truth[emission.eid]
        ),
        "invalidated": service.cache.stats.invalidated,
        "sent": reader.sent,
        "samples": list(reader.samples),
        "lags": reader.lags,
    }


def run(
    seed: int,
    seconds: float,
    trace: bool,
    config=None,
    targets: int = TARGETS,
) -> Outcome:
    """One ``ingest-live`` run."""
    out = Outcome()
    if config is None:
        config = paper_config()
    build_rec = Recorder()
    dataset, build_s = build_worlds(config, build_rec if trace else None)
    sample = dataset.sample_targets(targets, seed=target_seed(seed))
    traffic = Traffic(sample, seed)

    replays = []
    replay_rec = Recorder()
    window_started = time.perf_counter()
    while (
        len(replays) < MIN_REPLAYS
        or time.perf_counter() - window_started < seconds
    ):
        traced = trace and len(replays) > 0
        replays.append(
            _replay(dataset, sample, traffic, len(replays), replay_rec if traced else None)
        )
        if len(replays) == 1:
            # Later replays allocate beside the first one's freed
            # memory, so the peak is read while it still means "one
            # world plus one live replica", whatever the replay count.
            peak_rss = peak_rss_mb()

    samples: List[Sample] = []
    for i, replay in enumerate(replays):
        out.check(
            replay["diff"] == 0,
            f"replay {i}: live store differs from the batch store "
            f"in {replay['diff']} scenarios",
        )
        out.check(
            replay["emitted"] == len(sample),
            f"replay {i}: {replay['emitted']} of {len(sample)} watched EIDs emitted",
        )
        out.check(
            replay["report"].late_dropped == 0,
            f"replay {i}: {replay['report'].late_dropped} late events dropped",
        )
        samples.extend(replay["samples"])
    sent = sum(r["sent"] for r in replays)
    answered = [s for s in samples if s.ok]
    out.attempted = sent + len(replays)
    out.failed = sent - len(answered)
    out.check(
        out.failed == 0,
        f"{out.failed} of {sent} reader requests failed or went unanswered, "
        f"first: {first_error(samples)}",
    )

    # Only answered requests count: a shed or failed reply is fast, and
    # must not read as speed.
    latencies = [s.latency_s for s in answered]
    out.end_to_end = {
        "setup_s": build_s + replays[0]["start_s"],
        "throughput_per_s": median(
            [r["report"].events_applied / r["wall_s"] for r in replays]
        ),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "accuracy": sum(r["correct"] for r in replays)
        / max(1, sum(r["emitted"] for r in replays)),
        "peak_rss_mb": peak_rss,
    }
    out.facts.update(
        split_backend=_split_backend(),
        target_seed=target_seed(seed),
        replays=len(replays),
        events_per_replay=replays[0]["report"].events_applied,
        **tail_facts(latencies),
        first_error=first_error(samples),
        window_s=time.perf_counter() - window_started,
    )
    if trace:
        _layers(out, dataset, build_rec, replay_rec, replays, samples)
    return out


def _split_backend() -> str:
    from repro.core.accel import resolve_backend
    from repro.service import ServiceConfig

    return resolve_backend(ServiceConfig().matcher.split.backend)


def _layers(out, dataset, build_rec, rec, replays, samples) -> None:
    traced = replays[1:]
    n = len(traced)
    reader_ok = [s for s in samples if s.ok]
    lags = [lag for r in traced for lag in r["lags"]]
    out.layer({
        **build_layers(build_rec, dataset),
        "e.split_s": rec.get("e.split").total_s / n,
        "v.filter_s": rec.get("v.filter").total_s / n,
        "stream.source_s": rec.get("stream.source").self_s / n,
        "stream.assemble_s": rec.get("stream.assemble").self_s / n,
        "stream.other_s": (
            rec.get("stream.pipeline").self_s + rec.get("stream.sink").self_s
        ) / n,
        "service.ingest_s": rec.get("service.ingest").self_s / n,
        "service.ingest_p99_ms": percentile(
            rec.get("service.ingest").durations, 99
        ) * 1e3,
        "incremental.observe_s": rec.get("incremental.observe").total_s / n,
        "service.invalidated": sum(r["invalidated"] for r in traced) / n,
        "live.cache_hit_rate": (
            sum(s.cached for s in reader_ok) / max(1, len(reader_ok))
        ),
        "reader.lag_ms": median(lags) * 1e3,
        "stream.windows_closed": traced[0]["report"].windows_closed,
        "stream.scenarios_applied": traced[0]["report"].scenarios_applied,
        "trace.overhead_ms": (
            median([r["wall_s"] for r in traced]) - replays[0]["wall_s"]
        ) * 1e3,
    })
    shares = coverage(rec, "bench.replay")
    out.layer(shares)
    out.check(
        shares["trace.coverage"] >= COVERAGE_FLOOR,
        f"layer self times cover {shares['trace.coverage']:.1%} of the "
        f"traced replay wall time, below {COVERAGE_FLOOR:.0%}",
    )
    out.recorders.update(build=build_rec, replay=rec)
