"""The query service: a threaded, bounded, cached serving front end.

This is the long-lived process shape the ROADMAP asks for: build (or
load) a world once, then answer repeated match / investigate queries
against the standing dataset while new scenario windows keep arriving.

Request path::

    submit ──► cache? ──hit──────────────────────────► resolved future
       │           │miss
       │           ▼
       │       in-flight twin? ──yes──► attach to flight
       │           │no
       │           ▼
       │       bounded queue ──full──► shed ("429")
       │           │
       ▼           ▼ worker pool (drains up to max_batch)
    metrics ◄── MatchBatcher.execute ──► EVMatcher over target union
                                         (under the read lock)

:meth:`MatchService.lookup` and :meth:`MatchService.submit_miss` are
the same path in two calls: a hit comes back as its :class:`CacheHit`
(the cache entry and the request's latency) rather than a resolved
future, and a miss as a :class:`CacheMiss` to submit.  The cluster
worker answers a hit from the bytes kept with the entry, and opens its
request span only for a miss.

``ingest_tick`` is the only writer: under the write lock it appends
scenarios to the store, whose :meth:`~ScenarioStore.add` extends the
EID index investigations read.  It then drops every cached answer
whose EIDs appear in the new scenarios (the invalidation rule — see
``docs/architecture.md``) and, under the watch lock and beside the
reads, streams the batch through the
:class:`~repro.core.incremental.IncrementalMatcher` watch-list.

Everything is stdlib: ``threading``, ``queue``,
``concurrent.futures.Future``.  No sockets — the service is an
in-process API; a network front end would be a thin shim over
:meth:`MatchService.submit`.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.incremental import IncrementalMatcher
from repro.core.matcher import EVMatcher, MatcherConfig, MatchReport
from repro.obs import get_event_log, get_registry, get_tracer
from repro.obs import events as ev
from repro.obs.registry import merge_expositions
from repro.obs.slowlog import SlowLogConfig, SlowQueryLog
from repro.obs.stages import SCENARIOS_EXAMINED, TOPOLOGY_PRUNED
from repro.sensing.scenarios import (
    EVScenario,
    ScenarioStore,
    co_travelers,
    presence_windows,
)
from repro.service.api import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    HealthResponse,
    IngestTickRequest,
    IngestTickResponse,
    InvestigateRequest,
    InvestigateResponse,
    MatchRequest,
    MatchResponse,
    MetricsResponse,
    StatsResponse,
)
from repro.service.batcher import MatchBatcher, Waiter
from repro.service.cache import CacheEntry, ResultCache
from repro.service.metrics import RequestLog, RequestRecord, SLOConfig
from repro.world.cells import CellGrid, HexCellGrid
from repro.world.entities import EID

Request = Union[MatchRequest, InvestigateRequest]


@dataclass(frozen=True)
class CacheHit:
    """A query answered from the result cache.

    ``entry.value`` is the answer's template — the response as first
    computed, with ``cached`` false and no latency — and ``latency_s``
    is this request's.  ``entry.body`` is free for the caller to fill
    with the template's encoding (see :class:`~.cache.CacheEntry`).
    """

    entry: CacheEntry
    latency_s: float

    def response(self) -> Union[MatchResponse, InvestigateResponse]:
        """The typed response this hit answers with: a copy of the
        template marked cached, with this request's latency."""
        template = self.entry.value
        if isinstance(template, MatchResponse):
            return replace(
                template,
                matches=dict(template.matches),
                cached=True,
                latency_s=self.latency_s,
            )
        return replace(template, cached=True, latency_s=self.latency_s)


@dataclass(frozen=True)
class CacheMiss:
    """A query the result cache did not answer, timed from its lookup:
    :meth:`MatchService.submit_miss` queues it."""

    request: Request
    started: float


@dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs.

    Attributes:
        workers: worker-pool size.
        queue_size: bounded admission queue; a full queue sheds.
        max_batch: match requests one worker may coalesce into a
            single Matcher call (forced to 1 when the matcher config
            uses exclusion or refining — see ``batcher.py``).
        cache_capacity: LRU entries; 0 disables the result cache.
        cache_ttl_s: per-entry freshness bound; ``None`` = no expiry.
        matcher: the algorithm configuration queries run with.
        worker_delay_s: artificial per-request service time; a testing
            hook for overload/shedding scenarios (0 in production).
        slo: declared objectives the ``health`` verb judges the
            rolling request window against.
        slowlog: slow-query exemplar capture policy; the default is
            adaptive (``3 ×`` the rolling p99 from the health window).
    """

    workers: int = 2
    queue_size: int = 64
    max_batch: int = 8
    cache_capacity: int = 256
    cache_ttl_s: Optional[float] = None
    matcher: MatcherConfig = MatcherConfig()
    worker_delay_s: float = 0.0
    slo: SLOConfig = SLOConfig()
    slowlog: SlowLogConfig = SlowLogConfig()

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.queue_size <= 0:
            raise ValueError(f"queue_size must be positive, got {self.queue_size}")
        if self.worker_delay_s < 0:
            raise ValueError(
                f"worker_delay_s must be non-negative, got {self.worker_delay_s}"
            )


class _RWLock:
    """Many concurrent readers (queries) or one writer (ingest)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    def acquire_read(self) -> None:
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            while self._writing or self._readers:
                self._cond.wait()
            self._writing = True

    def release_write(self) -> None:
        with self._cond:
            self._writing = False
            self._cond.notify_all()


class MatchService:
    """In-process query service over one standing dataset.

    Args:
        store: the scenario store queries run against (grows via
            :meth:`ingest_tick`).
        grid: the cell decomposition the store's cell ids come from,
            kept as :attr:`grid` for callers (serving does not read it).
        universe: the EID population; defaults to every EID observed
            in the store.  Feeds the incremental watch-list and
            universal matching.
        config: serving knobs.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        store: ScenarioStore,
        grid: Optional["CellGrid | HexCellGrid"] = None,
        universe: Optional[Sequence[EID]] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.store = store
        self.grid = grid
        if universe is None:
            universe = sorted(store.eid_universe)
        self.universe: Tuple[EID, ...] = tuple(universe)
        if not self.universe:
            raise ValueError("service needs a non-empty EID universe")

        # Build the store's EID index now, before any reader or
        # writer thread exists: no request pays for it, and from here
        # on only ingest_tick (under the write lock) extends it.
        store.scenarios_of(self.universe[0])
        self.cache = ResultCache(
            capacity=self.config.cache_capacity, ttl_s=self.config.cache_ttl_s
        )
        self.metrics = RequestLog(slo=self.config.slo)
        self.slow_queries = SlowQueryLog(
            self.config.slowlog, p99_source=self.metrics.latency_p99
        )
        matcher_cfg = self.config.matcher
        coupled = matcher_cfg.use_exclusion or matcher_cfg.refining is not None
        self.batcher = MatchBatcher(
            max_batch=1 if coupled else self.config.max_batch
        )
        self._matcher = EVMatcher(store, matcher_cfg)
        self._watch = IncrementalMatcher(store, self.universe)
        #: Guards the watch list; ``ingest_tick`` takes it while still
        #: holding the write lock, never the other way round.
        self._watch_lock = threading.Lock()
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.config.queue_size)
        self._rw = _RWLock()
        self._threads: List[threading.Thread] = []
        self._running = False
        self._draining = False

    @classmethod
    def from_dataset(
        cls, dataset, config: Optional[ServiceConfig] = None
    ) -> "MatchService":
        """Serve a built :class:`~repro.datagen.dataset.EVDataset`."""
        return cls(
            dataset.store,
            grid=dataset.grid,
            universe=dataset.eids,
            config=config,
        )

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "MatchService":
        if self._running:
            return self
        self._running = True
        for i in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        if not self._running:
            return
        self._running = False
        for _ in self._threads:
            self._queue.put(None)  # blocking: sentinels must arrive
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting data-plane requests; in-flight work continues.

        New submits resolve immediately with ``"shed"`` so closed-loop
        clients back off, while everything already queued keeps its
        promise of an answer.
        """
        if self._draining:
            return
        self._draining = True
        log = get_event_log()
        if log.enabled:
            log.emit(ev.SERVICE_DRAIN_STARTED, queue_depth=self.queue_depth)

    def drain(self, timeout: Optional[float] = 10.0) -> dict:
        """Graceful shutdown: :meth:`begin_drain`, then :meth:`stop`.

        The worker threads consume the queue FIFO before reaching the
        stop sentinels, so every request accepted before the drain
        began resolves.  Returns a small summary for the operator.
        """
        started = time.perf_counter()
        self.begin_drain()
        pending = self.queue_depth
        self.stop(timeout=timeout)
        duration = time.perf_counter() - started
        log = get_event_log()
        if log.enabled:
            log.emit(
                ev.SERVICE_DRAIN_COMPLETED,
                pending_at_drain=pending,
                duration_s=round(duration, 6),
            )
        return {
            "pending_at_drain": pending,
            "duration_s": duration,
            "drained": self.queue_depth == 0,
        }

    def __enter__(self) -> "MatchService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # -- watch-list --------------------------------------------------------
    def watch(self, targets: Sequence[EID]) -> None:
        """Track targets on the incremental stream: every future
        ingest feeds them, and their matches appear in ``stats``."""
        with self._watch_lock:
            self._watch.add_targets(list(targets))

    @property
    def watch_pending(self) -> int:
        with self._watch_lock:
            return len(self._watch.pending)

    @property
    def watch_emitted(self) -> int:
        with self._watch_lock:
            return len(self._watch.emissions)

    # -- observation -------------------------------------------------------
    def _observe(
        self,
        endpoint: str,
        status: str,
        latency_s: float,
        cached: bool = False,
        deduplicated: bool = False,
        batched: bool = False,
    ) -> None:
        """The one write of a finished request, any verb: its record
        feeds the service metrics, ``stats`` and, for a data endpoint,
        the health window."""
        self.metrics.write(RequestRecord(
            endpoint, status, latency_s, cached, deduplicated, batched
        ))
        if status == STATUS_SHED:
            log = get_event_log()
            if log.enabled:
                log.emit(
                    ev.SERVICE_REQUEST_SHED,
                    endpoint=endpoint,
                    queue_depth=self.queue_depth,
                    queue_size=self.config.queue_size,
                )

    def health(self) -> HealthResponse:
        """The ``health`` verb: SLO pass/fail over the rolling window."""
        return self.metrics.health()

    def slowlog(self, limit: Optional[int] = None) -> dict:
        """The ``slowlog`` verb: retained slow-query exemplars (newest
        first) plus the capture policy summary."""
        return {
            **self.slow_queries.describe(),
            "records": self.slow_queries.records(limit=limit),
        }

    # -- async API ---------------------------------------------------------
    def submit(self, request: Request) -> "Future":
        """Enqueue one query; the future resolves to its response.

        Never raises on overload: shedding resolves the future with a
        ``"shed"`` response, so closed-loop clients can count drops.
        A draining service sheds everything (see :meth:`begin_drain`).
        """
        answer = self.lookup(request)
        if isinstance(answer, CacheMiss):
            return self.submit_miss(answer)
        future: "Future" = Future()
        future.set_result(answer.response())
        return future

    def lookup(self, request: Request) -> Union["CacheHit", "CacheMiss"]:
        """The first half of :meth:`submit`: one result-cache lookup.

        A hit is counted and comes back as its :class:`CacheHit`, so
        the caller can answer it from the entry's body without building
        a response (the cluster worker does); anything else comes back
        as a :class:`CacheMiss` for :meth:`submit_miss`.  A draining
        service looks nothing up: its misses are shed."""
        if isinstance(request, MatchRequest):
            endpoint = "match"
        elif isinstance(request, InvestigateRequest):
            endpoint = "investigate"
        else:
            raise TypeError(f"cannot submit {type(request).__name__}")
        started = time.perf_counter()
        entry = None if self._draining else self.cache.get(request.cache_key())
        if entry is None:
            return CacheMiss(request, started)
        latency = time.perf_counter() - started
        self._observe(endpoint, STATUS_OK, latency, cached=True)
        return CacheHit(entry, latency)

    def submit_miss(self, miss: CacheMiss) -> "Future":
        """The second half of :meth:`submit`: queue a query the cache
        missed (shed it while draining)."""
        if self._draining:
            return self._shed_draining(miss.request)
        if isinstance(miss.request, MatchRequest):
            return self._submit_match(miss.request, miss.started)
        return self._submit_investigate(miss.request, miss.started)

    def _shed_draining(self, request: Request) -> "Future":
        future: "Future" = Future()
        if isinstance(request, MatchRequest):
            future.set_result(MatchResponse(status=STATUS_SHED))
            self._observe("match", STATUS_SHED, 0.0)
        else:
            future.set_result(
                InvestigateResponse(status=STATUS_SHED, eid=request.eid)
            )
            self._observe("investigate", STATUS_SHED, 0.0)
        return future

    def _submit_match(self, request: MatchRequest, started: float) -> "Future":
        future: "Future" = Future()
        waiter = Waiter(
            future=future,
            started=started,
            parent_span=get_tracer().current_span(),
        )
        if not self.batcher.admit(request, waiter):
            return future  # attached to an identical in-flight request
        try:
            self._queue.put_nowait(("match", request, waiter.parent_span))
        except queue.Full:
            for shed_waiter in self.batcher.abandon(request):
                self._finish_match(
                    request,
                    shed_waiter,
                    MatchResponse(status=STATUS_SHED),
                )
        return future

    def _submit_investigate(
        self, request: InvestigateRequest, started: float
    ) -> "Future":
        future: "Future" = Future()
        waiter = Waiter(
            future=future,
            started=started,
            parent_span=get_tracer().current_span(),
        )
        try:
            self._queue.put_nowait(("investigate", request, waiter))
        except queue.Full:
            latency = time.perf_counter() - started
            future.set_result(
                InvestigateResponse(
                    status=STATUS_SHED, eid=request.eid, latency_s=latency
                )
            )
            self._observe("investigate", STATUS_SHED, latency)
        return future

    # -- sync convenience --------------------------------------------------
    def match(
        self,
        targets: Sequence[EID],
        algorithm: str = "ss",
        timeout: Optional[float] = 60.0,
    ) -> MatchResponse:
        """Submit-and-wait.  Shedding is reported in ``status``."""
        request = MatchRequest(targets=tuple(targets), algorithm=algorithm)
        return self.submit(request).result(timeout=timeout)

    def investigate(
        self,
        eid: EID,
        min_shared: int = 3,
        timeout: Optional[float] = 60.0,
    ) -> InvestigateResponse:
        request = InvestigateRequest(eid=eid, min_shared=min_shared)
        return self.submit(request).result(timeout=timeout)

    # -- ingest (the writer) -----------------------------------------------
    def ingest_tick(
        self, request: Union[IngestTickRequest, Sequence[EVScenario]]
    ) -> IngestTickResponse:
        """Append newly-arrived scenarios, invalidate stale answers and
        feed the watch list.

        Runs on the caller's thread (the data-plane workers never
        block behind it in the queue).  The write lock covers only the
        store appends, so no query observes a half-applied window; the
        watch list's E side and V stage then run under the watch lock,
        beside the reads.  A failed append still
        invalidates and feeds the watch list what it applied.
        """
        if not isinstance(request, IngestTickRequest):
            request = IngestTickRequest(scenarios=tuple(request))
        started = time.perf_counter()
        applied: List[EVScenario] = []
        affected: set = set()
        emissions: list = []
        error: Optional[str] = None
        self._rw.acquire_write()
        try:
            for scenario in request.scenarios:
                self.store.add(scenario)
                applied.append(scenario)
                affected.update(scenario.e.eids)
        except Exception as exc:
            error = str(exc)
        finally:
            # Taken before the store is let go, so the watch list sees
            # the batches in the order the store took them.
            self._watch_lock.acquire()
            self._rw.release_write()
        try:
            invalidated = self.cache.invalidate_eids(affected)
            emissions = self._watch.observe(*applied)
        except Exception as exc:
            error = error or str(exc)
        finally:
            self._watch_lock.release()
        latency = time.perf_counter() - started
        if error is not None:
            self._observe("ingest", STATUS_ERROR, latency)
            return IngestTickResponse(
                status=STATUS_ERROR, latency_s=latency, error=error
            )
        self._observe("ingest", STATUS_OK, latency)
        return IngestTickResponse(
            status=STATUS_OK,
            ingested=len(request.scenarios),
            invalidated=invalidated,
            emissions=emissions,
            latency_s=latency,
        )

    # -- stats -------------------------------------------------------------
    def _service_gauges(self) -> dict:
        """Point-in-time service-level gauges (shared by stats/metrics)."""
        return {
            "cache_entries": float(len(self.cache)),
            "cache_hit_rate": self.cache.stats.hit_rate(),
            "cache_invalidated": float(self.cache.stats.invalidated),
            "queue_depth": float(self.queue_depth),
            "store_scenarios": float(len(self.store)),
            "watch_pending": float(self.watch_pending),
            "watch_emitted": float(self.watch_emitted),
        }

    def stats(self) -> StatsResponse:
        """Metrics snapshot plus service-level gauges."""
        started = time.perf_counter()
        snapshot = self.metrics.snapshot()
        snapshot["service"] = self._service_gauges()
        self._observe("stats", STATUS_OK, time.perf_counter() - started)
        return StatsResponse(snapshot=snapshot)

    def metrics_text(self) -> MetricsResponse:
        """The ``metrics`` verb: Prometheus text exposition.

        Renders the service's private registry (``service_*`` counters,
        latencies, and the gauges the ``stats`` endpoint reports)
        merged with the process-global registry — which is where the
        matching pipeline publishes its ``ev_*`` / ``mr_*`` counters —
        skipping the latter when the service was built to share it.
        The merge (:func:`repro.obs.registry.merge_expositions`) groups
        samples by metric family, so a family present in both
        registries gets exactly one ``# HELP``/``# TYPE`` header pair.
        """
        started = time.perf_counter()
        gauge = self.metrics.registry.gauge(
            "service_gauge", "Service-level point-in-time gauges, by name"
        )
        for name, value in self._service_gauges().items():
            gauge.set(value, name=name)
        parts = [self.metrics.render_prometheus()]
        global_registry = get_registry()
        if global_registry is not self.metrics.registry:
            parts.append(global_registry.render_prometheus())
        self._observe("metrics", STATUS_OK, time.perf_counter() - started)
        return MetricsResponse(text=merge_expositions(parts))

    # -- worker pool -------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            if item[0] == "match":
                batch = [item[1]]
                parents = [item[2] if len(item) > 2 else None]
                deferred = self._drain_matches(batch, parents)
                self._execute_match_batch(batch, parents)
                for extra in deferred:
                    self._handle_investigate(extra[1], extra[2])
            else:
                self._handle_investigate(item[1], item[2])

    def _drain_matches(
        self, batch: List[MatchRequest], parents: List[object]
    ) -> List[tuple]:
        """Opportunistically pull more match work for the same Matcher
        call; non-match items are deferred, sentinels re-queued."""
        deferred: List[tuple] = []
        while len(batch) < self.batcher.max_batch:
            try:
                extra = self._queue.get_nowait()
            except queue.Empty:
                break
            if extra is None:
                self._queue.put(None)
                break
            if extra[0] == "match":
                batch.append(extra[1])
                parents.append(extra[2] if len(extra) > 2 else None)
            else:
                deferred.append(extra)
        return deferred

    def _execute_span(self, parent, endpoint: str, **args):
        """A ``service.execute`` span under the submitter's trace.

        Worker-pool threads never inherit the submitting thread's
        contextvars, so the parent travels with the queue item / waiter
        and is attached explicitly; untraced requests (no parent) cost
        nothing — no span is opened, so nothing accumulates in the
        tracer from requests whose spans would never be collected.
        """
        if parent is None:
            return contextlib.nullcontext()
        return get_tracer().span(
            "service.execute", parent=parent, endpoint=endpoint, **args
        )

    #: Kernel counters whose per-batch deltas a slow-query exemplar
    #: carries.  The counters are process-global, so under concurrent
    #: batches the deltas are best-effort attribution, not an exact
    #: per-request bill — good enough to tell "examined 40x the usual
    #: scenarios" from "same work, slower machine".
    _SLOWLOG_COUNTERS = (
        ("scenarios_examined", SCENARIOS_EXAMINED.name),
        ("topology_pruned", TOPOLOGY_PRUNED.name),
    )

    def _kernel_counter_totals(self) -> dict:
        """Read without creating: a family no stage has published yet
        counts 0, and keeps the help text its stage publishes with."""
        registry = get_registry()
        counters = {key: registry.get(name) for key, name in self._SLOWLOG_COUNTERS}
        return {
            key: 0.0 if counter is None else counter.total()
            for key, counter in counters.items()
        }

    def _execute_match_batch(
        self, batch: List[MatchRequest], parents: Optional[List[object]] = None
    ) -> None:
        if self.config.worker_delay_s:
            time.sleep(self.config.worker_delay_s)
        parent = next((p for p in parents or [] if p is not None), None)
        counters_before = self._kernel_counter_totals()
        with self._execute_span(parent, "match", batch=len(batch)) as exec_span:
            self._rw.acquire_read()
            try:
                resolutions = self.batcher.execute(batch, self._run_match)
            finally:
                self._rw.release_read()
        counters = {
            key: total - counters_before[key]
            for key, total in self._kernel_counter_totals().items()
        }
        cached_keys: set = set()
        for request, waiter, response in resolutions:
            key = request.cache_key()
            if (
                response.status == STATUS_OK
                and key not in cached_keys
                and self.cache.enabled
            ):
                self.cache.put(
                    key,
                    MatchResponse(
                        status=STATUS_OK, matches=dict(response.matches)
                    ),
                    eids=request.targets,
                )
                cached_keys.add(key)
            self._finish_match(
                request, waiter, response,
                exec_span=exec_span, counters=counters,
            )

    def _run_match(
        self, algorithm: str, targets: Tuple[EID, ...]
    ) -> MatchReport:
        if algorithm == "edp":
            return self._matcher.match_edp(list(targets))
        return self._matcher.match(list(targets))

    def _finish_match(
        self,
        request: MatchRequest,
        waiter: Waiter,
        response: MatchResponse,
        exec_span=None,
        counters: Optional[dict] = None,
    ) -> None:
        response.latency_s = time.perf_counter() - waiter.started
        self._observe(
            "match",
            response.status,
            response.latency_s,
            deduplicated=response.deduplicated,
            batched=response.batched_with > 0,
        )
        waiter.future.set_result(response)
        # After the future resolves: exemplar capture must never delay
        # the answer.  The execute span is closed by now, so its
        # subtree (e.split / v.filter / ...) is complete.
        self.slow_queries.consider(
            endpoint="match",
            latency_s=response.latency_s,
            status=response.status,
            trace_id=getattr(exec_span, "trace_id", None),
            span=exec_span,
            detail={
                "targets": ",".join(str(t.index) for t in request.targets),
                "algorithm": request.algorithm,
                "batched_with": response.batched_with,
                "cached": response.cached,
            },
            counters=counters,
            backend=self.config.matcher.split.backend,
        )

    def _handle_investigate(
        self, request: InvestigateRequest, waiter: Waiter
    ) -> None:
        if self.config.worker_delay_s:
            time.sleep(self.config.worker_delay_s)
        with self._execute_span(
            waiter.parent_span, "investigate"
        ) as exec_span:
            self._rw.acquire_read()
            try:
                keys = self.store.scenarios_of(request.eid)
                response = InvestigateResponse(
                    status=STATUS_OK,
                    eid=request.eid,
                    num_scenarios=len(keys),
                    presence=presence_windows(keys),
                    co_travelers=co_travelers(
                        self.store, request.eid, keys, request.min_shared
                    ),
                )
            except Exception as exc:
                response = InvestigateResponse(
                    status=STATUS_ERROR, eid=request.eid, error=str(exc)
                )
            finally:
                self._rw.release_read()
        if response.status == STATUS_OK and self.cache.enabled:
            self.cache.put(request.cache_key(), response, eids=(request.eid,))
        response = replace(response)  # cached template stays latency-free
        response.latency_s = time.perf_counter() - waiter.started
        self._observe("investigate", response.status, response.latency_s)
        waiter.future.set_result(response)
        self.slow_queries.consider(
            endpoint="investigate",
            latency_s=response.latency_s,
            status=response.status,
            trace_id=getattr(exec_span, "trace_id", None),
            span=exec_span,
            detail={"eid": request.eid.index, "min_shared": request.min_shared},
            backend=self.config.matcher.split.backend,
        )
