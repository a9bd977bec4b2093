"""The worker process: one crash-isolated :class:`MatchService` shard.

``worker_main`` is the child-process entry point the supervisor spawns
(``multiprocessing`` *spawn* context — a clean interpreter, no
inherited locks).  Each worker:

1. materialises its standing dataset — loads a saved ``.npz`` world or
   deterministically rebuilds one from an
   :class:`~repro.datagen.config.ExperimentConfig` (every replica of a
   seed builds the identical world, which is what makes quorum reads
   meaningful);
2. replays its **ingest journal** through the existing
   :class:`~repro.stream.pipeline.DurableStoreSink` reload path, so
   scenarios accepted before a crash survive the restart;
3. stands up a :class:`~repro.service.server.MatchService` and serves
   length-prefixed JSON frames (:mod:`repro.cluster.protocol`) on a
   local TCP socket, one handler thread per connection;
4. heartbeats over the control pipe so the supervisor can tell a hung
   worker from a busy one.

The control pipe carries exactly three child→parent message types —
``ready`` (with the bound port), ``heartbeat``, and ``stopped`` — and
one parent→child type, ``shutdown``.  Everything else rides the data
socket.  Heartbeats periodically **piggyback a telemetry payload**
(``WorkerSpec.telemetry_interval_s``): a cumulative
``MetricsRegistry.export_state()`` snapshot, a bounded batch of
flight-recorder events (shed-counting, never blocking the data
plane — :class:`~repro.obs.events.EventShipper`), and a small summary
(request counts, latency percentiles, backend) — the raw feed of the
gateway's federated ``metrics`` / ``stats`` / SSE ``events`` verbs.

Tracing: when a data-verb message carries a trace envelope
(:func:`~repro.obs.tracing.extract_trace`), the worker opens its
``worker.request`` root span under the remote parent, the service and
pipeline spans nest beneath it, and the completed span records travel
back in the reply trailer, beside the answer, so the gateway can merge
one cluster-wide Chrome trace without parsing the answer.  An untraced
result-cache hit opens no span.  Any other untraced request runs under
a ``worker.request`` span of a throwaway local trace, so a slow-query
exemplar keeps its span tree; the trace is dropped after the response,
and the tracer's retained set stays bounded by in-flight work.

Answers leave the worker as bytes (:func:`~repro.cluster.codec.answer_bytes`).
A result-cache hit is answered from the body kept with its cache entry
(:func:`~repro.cluster.codec.hit_bytes`): the entry's first hit encodes
it, and later hits only splice in ``cached`` and ``latency_s``.

Fault injection: the ``crash`` verb calls ``os._exit``, giving tests
and the availability benchmark a deterministic way to kill a worker
*mid-protocol* rather than between requests.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.cluster import codec
from repro.cluster.protocol import (
    ConnectionClosed,
    ProtocolError,
    dumps,
    recv_frame,
    send_reply,
)
from repro.obs.events import (
    EventLog,
    EventShipper,
    get_event_log,
    set_event_log,
)
from repro.obs.profiler import (
    MAX_PROFILE_HZ,
    SamplingProfiler,
    set_profiler,
)
from repro.obs.registry import get_registry
from repro.obs.tracing import (
    TraceContext,
    Tracer,
    extract_trace,
    get_tracer,
    new_trace_id,
    set_tracer,
)
from repro.service.api import STATUS_OK, IngestTickResponse
from repro.service.server import CacheHit, MatchService, ServiceConfig

#: Child → parent control-pipe message types.
MSG_READY = "ready"
MSG_HEARTBEAT = "heartbeat"
MSG_STOPPED = "stopped"
#: Parent → child.
MSG_SHUTDOWN = "shutdown"

#: Verbs answered by the data path (``_WorkerServer._handle_data``).
DATA_VERBS = ("ingest", "match", "investigate")


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs (must pickle cleanly).

    Attributes:
        worker_id: stable name; survives restarts (it is the ring
            node identity).
        config: build this synthetic world on startup (deterministic —
            every worker with the same config holds the same data).
        dataset_path: or load a saved ``.npz`` world instead.
        journal_path: JSONL ingest journal; replayed on startup via
            :class:`~repro.stream.pipeline.DurableStoreSink` and
            appended to on every accepted ingest, so restarts rebuild
            the post-ingest store.  ``None`` disables durability.
        service: the in-worker serving knobs (thread count, queue,
            cache, matcher configuration).
        host: interface to bind the data socket on.
        heartbeat_interval_s: control-pipe heartbeat cadence.
        request_result_timeout_s: bound on one service future.
        obs: stand up a real in-worker :class:`~repro.obs.EventLog` +
            :class:`~repro.obs.Tracer` at startup (spawned children
            start with the process-global no-ops).  Required for the
            distributed observability plane; ``False`` keeps the
            worker dark (telemetry beats then carry metrics only).
        telemetry_interval_s: how often a heartbeat piggybacks a
            telemetry payload; ``0`` disables telemetry entirely.
        max_events_per_beat: flight-recorder events shipped per
            telemetry beat at most; overflow is shed and counted.
        profile_hz: continuous-profiling sample rate; ``0`` (default)
            keeps the worker unprofiled.  A profiled worker answers
            the ``profile`` verb with its aggregated collapsed stacks
            (requires ``obs``, which provides the tracer whose spans
            label the samples).
        use_topology: enable camera-graph reachability pruning and the
            transition prior on this worker's V stage, using the
            fitted :class:`~repro.topology.transit.TransitModel` the
            loaded world carries.  A world without a fitted graph
            (pre-topology ``.npz`` files) serves topology-blind and
            reports ``enabled: false`` in the ``ready`` message and
            the ``stats`` verb.
    """

    worker_id: str
    config: Optional[object] = None  # ExperimentConfig (kept untyped: pickle)
    dataset_path: Optional[str] = None
    journal_path: Optional[str] = None
    service: ServiceConfig = field(default_factory=ServiceConfig)
    host: str = "127.0.0.1"
    heartbeat_interval_s: float = 0.25
    request_result_timeout_s: float = 120.0
    obs: bool = True
    telemetry_interval_s: float = 1.0
    max_events_per_beat: int = 256
    profile_hz: float = 0.0
    use_topology: bool = False

    def __post_init__(self) -> None:
        if not self.worker_id:
            raise ValueError("worker_id must be non-empty")
        if (self.config is None) == (self.dataset_path is None):
            raise ValueError(
                "exactly one of config / dataset_path must be given"
            )
        if self.heartbeat_interval_s <= 0:
            raise ValueError(
                f"heartbeat_interval_s must be positive, "
                f"got {self.heartbeat_interval_s}"
            )
        if self.telemetry_interval_s < 0:
            raise ValueError(
                f"telemetry_interval_s must be >= 0, "
                f"got {self.telemetry_interval_s}"
            )
        if self.max_events_per_beat <= 0:
            raise ValueError(
                f"max_events_per_beat must be positive, "
                f"got {self.max_events_per_beat}"
            )
        if not 0 <= self.profile_hz <= MAX_PROFILE_HZ:
            raise ValueError(
                f"profile_hz must be in [0, {MAX_PROFILE_HZ:.0f}], "
                f"got {self.profile_hz}"
            )


def _build_service(spec: WorkerSpec) -> tuple:
    """(service, reloaded, topology) — standing dataset + journal +
    the topology summary (``None`` unless ``spec.use_topology``)."""
    if spec.dataset_path is not None:
        from repro.datagen.io import load_dataset

        dataset = load_dataset(spec.dataset_path)
    else:
        from repro.datagen.dataset import build_dataset

        dataset = build_dataset(spec.config)
    reloaded = 0
    if spec.journal_path is not None:
        from repro.stream.pipeline import DurableStoreSink

        # Reload-only use: journal appends go through _append_journal so
        # ingest stays on the service path (store + watch + cache).
        sink = DurableStoreSink(dataset.store, spec.journal_path)
        reloaded = sink.reloaded
    service_config = spec.service
    topology = None
    if spec.use_topology:
        model = getattr(dataset, "topology", None)
        if model is None:
            # The world predates topology fitting; serve topology-blind
            # rather than dying — the summary says so out loud.
            topology = {"enabled": False}
        else:
            from dataclasses import replace

            from repro.topology import TopologyConfig

            matcher = service_config.matcher
            service_config = replace(
                service_config,
                matcher=replace(
                    matcher,
                    filter=replace(
                        matcher.filter, topology=TopologyConfig(model=model)
                    ),
                ),
            )
            topology = {"enabled": True, **model.describe()}
    service = MatchService(
        dataset.store,
        grid=dataset.grid,
        universe=dataset.eids,
        config=service_config,
    )
    return service, reloaded, topology


class _WorkerServer:
    """The in-child server: data socket + control pipe + lifecycle."""

    def __init__(self, spec: WorkerSpec, control) -> None:
        self.spec = spec
        self.control = control
        self.stop_event = threading.Event()
        self.service: Optional[MatchService] = None
        self.backend: str = spec.service.matcher.split.backend
        self.topology: Optional[Dict[str, Any]] = None  # resolved in run()
        self._journal_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._shipper: Optional[EventShipper] = None
        self._profiler: Optional[SamplingProfiler] = None

    # -- control pipe ----------------------------------------------------
    def _control_send(self, message: Dict[str, Any]) -> None:
        with self._send_lock:
            try:
                self.control.send(message)
            except (OSError, ValueError, BrokenPipeError):
                # Parent is gone; nothing to report to, so wind down.
                self.stop_event.set()

    def _heartbeat_loop(self) -> None:
        telemetry_due = 0.0  # first eligible beat carries telemetry
        while not self.stop_event.wait(self.spec.heartbeat_interval_s):
            message: Dict[str, Any] = {"type": MSG_HEARTBEAT, "ts": time.time()}
            if (
                self.spec.telemetry_interval_s > 0
                and time.monotonic() >= telemetry_due
            ):
                try:
                    message["telemetry"] = self._telemetry_payload()
                except Exception:
                    # Telemetry must never take the heartbeat (and with
                    # it the worker) down.
                    pass
                telemetry_due = (
                    time.monotonic() + self.spec.telemetry_interval_s
                )
            self._control_send(message)

    def _telemetry_payload(self) -> Dict[str, Any]:
        """One beat's worth of cumulative metrics + fresh events.

        Metrics snapshots are cumulative within this process lifetime;
        the supervisor-side federation re-bases across restarts using
        ``pid`` as the generation marker.
        """
        states = [get_registry().export_state()]
        summary: Dict[str, Any] = {
            "backend": self.backend,
            "scenarios": 0,
        }
        if self.service is not None:
            requests = self.service.metrics
            snapshot = requests.snapshot()  # folds the buffered records
            states.append(requests.registry.export_state())
            summary["scenarios"] = len(self.service.store)
            for key in ("requests", "ok", "shed", "errors"):
                summary[key] = sum(row[key] for row in snapshot.values())
            match = snapshot.get("match", {})
            for name in ("p50", "p95", "p99"):
                summary[f"{name}_ms"] = match.get(f"latency_{name}_s", 0.0) * 1e3
        events: list = []
        events_dropped = 0
        if self._shipper is not None:
            events, events_dropped = self._shipper.collect()
        return {
            "pid": os.getpid(),
            "backend": self.backend,
            "metrics": {"metrics": [
                m for state in states for m in state["metrics"]
            ]},
            "events": events,
            "events_dropped": events_dropped,
            "summary": summary,
        }

    def _control_loop(self) -> None:
        while not self.stop_event.is_set():
            try:
                if self.control.poll(0.1):
                    message = self.control.recv()
                    if (
                        isinstance(message, dict)
                        and message.get("type") == MSG_SHUTDOWN
                    ):
                        self.stop_event.set()
            except (EOFError, OSError):
                self.stop_event.set()

    # -- request handling ------------------------------------------------
    def _append_journal(self, scenarios) -> None:
        if self.spec.journal_path is None or not scenarios:
            return
        from repro.stream.checkpoint import scenario_to_json

        with self._journal_lock:
            with open(self.spec.journal_path, "a", encoding="utf-8") as fh:
                for scenario in scenarios:
                    fh.write(json.dumps(scenario_to_json(scenario)) + "\n")

    def _handle_ingest(self, message: Dict[str, Any]) -> Dict[str, Any]:
        request = codec.request_from_wire(message)
        with self._journal_lock:
            fresh = [
                s for s in request.scenarios
                if s.key not in self.service.store
            ]
        duplicates = len(request.scenarios) - len(fresh)
        if fresh:
            response = self.service.ingest_tick(fresh)
            if response.status == STATUS_OK:
                self._append_journal(fresh)
        else:
            response = IngestTickResponse(status=STATUS_OK, ingested=0)
        wire = codec.response_to_wire(response)
        wire["duplicates"] = duplicates
        return wire

    def _handle_message(self, message: Dict[str, Any]) -> Dict[str, Any]:
        verb = message.get("verb")
        if verb == "ping":
            return {
                "verb": "ping",
                "status": "ok",
                "worker": self.spec.worker_id,
                "pid": os.getpid(),
            }
        if verb == "crash":  # fault injection (tests / availability bench)
            os._exit(int(message.get("code", 13)))
        if verb == MSG_SHUTDOWN:
            self.stop_event.set()
            return {"verb": MSG_SHUTDOWN, "status": "ok"}
        if verb == "stats":
            return {
                "verb": "stats",
                "status": "ok",
                "worker": self.spec.worker_id,
                "backend": self.backend,
                "topology": self.topology,
                "snapshot": self.service.stats().snapshot,
            }
        if verb == "metrics":
            return {
                "verb": "metrics",
                "status": "ok",
                "worker": self.spec.worker_id,
                "text": self.service.metrics_text().text,
            }
        if verb == "health":
            wire = codec.response_to_wire(self.service.health())
            wire["worker"] = self.spec.worker_id
            return wire
        if verb == "profile":
            if self._profiler is None:
                return codec.error_response(
                    "profile",
                    "profiling disabled on this worker "
                    "(set WorkerSpec.profile_hz > 0)",
                )
            snapshot = self._profiler.snapshot()
            return {
                "verb": "profile",
                "status": "ok",
                "worker": self.spec.worker_id,
                "profile": snapshot.to_wire(),
            }
        if verb == "slowlog":
            raw_limit = message.get("limit")
            payload = self.service.slowlog(
                limit=None if raw_limit is None else int(raw_limit)
            )
            payload["backend_label"] = self.backend
            return {
                "verb": "slowlog",
                "status": "ok",
                "worker": self.spec.worker_id,
                "slowlog": payload,
            }
        raise codec.CodecError(f"unknown verb {verb!r}")

    def _dispatch_data(
        self, message: Dict[str, Any], verb: str
    ) -> Tuple[bytes, str]:
        """A data verb's answer bytes and status; a failure becomes its
        error answer here, so a traced request is answered inside its
        span.  A result-cache hit is answered from its entry's body
        before any span opens; other work runs under
        :meth:`_untraced_span` unless the request is traced."""
        try:
            answer = None
            if verb != "ingest":
                answer = self.service.lookup(codec.request_from_wire(message))
                if isinstance(answer, CacheHit):
                    return codec.hit_bytes(answer), answer.entry.value.status
            with self._untraced_span(verb):
                if answer is None:
                    return _encoded(self._handle_ingest(message))
                response = self.service.submit_miss(answer).result(
                    timeout=self.spec.request_result_timeout_s
                )
            return codec.answer_bytes(response), response.status
        except Exception as exc:
            return _encoded(_error_response(message, exc))

    @contextlib.contextmanager
    def _untraced_span(self, verb: str) -> Iterator[None]:
        """``worker.request`` under a throwaway trace id, dropped when
        it closes; nothing inside a traced request's span or without a
        real tracer."""
        tracer = get_tracer()
        if not isinstance(tracer, Tracer) or tracer.current_span() is not None:
            yield
            return
        local = TraceContext(new_trace_id())
        try:
            with tracer.remote_context(local), tracer.span(
                "worker.request", verb=verb, worker=self.spec.worker_id
            ):
                yield
        finally:
            tracer.take_trace(local.trace_id)

    def _handle_data(
        self, message: Dict[str, Any], verb: str
    ) -> Tuple[bytes, str, Optional[List[Dict[str, Any]]]]:
        """A data verb's answer bytes, status and, for a request that
        carries a trace envelope, its span records: the untraced
        dispatch run under a ``worker.request`` root span that adopts
        the remote trace id and parent."""
        tracer = get_tracer()
        remote = extract_trace(message)
        if remote is None or not isinstance(tracer, Tracer):
            return (*self._dispatch_data(message, verb), None)
        with tracer.remote_context(remote), tracer.span(
            "worker.request", verb=verb, worker=self.spec.worker_id
        ):
            answer, status = self._dispatch_data(message, verb)
        spans = tracer.take_trace(remote.trace_id)
        return answer, status, tracer.span_records(spans)

    def _connection_loop(self, sock: socket.socket) -> None:
        try:
            while not self.stop_event.is_set():
                try:
                    message = recv_frame(sock)
                except (ConnectionClosed, OSError):
                    return
                verb = message.get("verb")
                spans = None
                try:
                    if verb in DATA_VERBS:
                        answer, status, spans = self._handle_data(message, verb)
                    else:
                        answer, status = _encoded(self._handle_message(message))
                except Exception as exc:
                    answer, status = _encoded(_error_response(message, exc))
                try:
                    send_reply(sock, answer, status, spans)
                except OSError:
                    return
        finally:
            try:
                sock.close()
            except OSError:
                pass

    # -- lifecycle -------------------------------------------------------
    def run(self) -> None:
        if self.spec.obs:
            # Spawned children start with the global no-ops; a real log
            # + tracer here is what the telemetry beats and returned
            # span records feed from.
            log = get_event_log()
            if not log.enabled:
                log = EventLog()
                set_event_log(log)
            if not isinstance(get_tracer(), Tracer):
                set_tracer(Tracer())
            self._shipper = EventShipper(
                log, max_per_collect=self.spec.max_events_per_beat
            )
        if self.spec.profile_hz > 0:
            # Continuous self-profiling: the sampler runs for the
            # worker's whole lifetime; the ``profile`` verb snapshots
            # it on demand.
            self._profiler = SamplingProfiler(
                hz=self.spec.profile_hz, tag=self.spec.worker_id
            ).start()
            set_profiler(self._profiler)
        service, reloaded, self.topology = _build_service(self.spec)
        self.service = service.start()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.spec.host, 0))
        listener.listen(64)
        listener.settimeout(0.2)
        port = listener.getsockname()[1]
        self._control_send(
            {
                "type": MSG_READY,
                "port": port,
                "pid": os.getpid(),
                "reloaded": reloaded,
                "backend": self.backend,
                "topology": self.topology,
                "scenarios": len(self.service.store),
            }
        )
        threading.Thread(
            target=self._heartbeat_loop, name="worker-heartbeat", daemon=True
        ).start()
        threading.Thread(
            target=self._control_loop, name="worker-control", daemon=True
        ).start()
        try:
            while not self.stop_event.is_set():
                try:
                    sock, _addr = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                threading.Thread(
                    target=self._connection_loop,
                    args=(sock,),
                    name="worker-conn",
                    daemon=True,
                ).start()
        finally:
            listener.close()
            if self._profiler is not None:
                self._profiler.stop()
            # Drain in-flight work before exiting so a graceful stop
            # loses no accepted requests.
            self.service.stop(timeout=10.0)
            self._control_send({"type": MSG_STOPPED})
            try:
                self.control.close()
            except OSError:
                pass


def _encoded(message: Dict[str, Any]) -> Tuple[bytes, str]:
    """A locally built answer (an error, an ingest tally, a control
    verb's reply) as its bytes and status."""
    return dumps(message), str(message.get("status", "error"))


def _error_response(message: Dict[str, Any], exc: Exception) -> Dict[str, Any]:
    """The reply to a request that raised: a codec or protocol fault
    by its own text, any other (service-side) failure with its type."""
    if isinstance(exc, (codec.CodecError, ProtocolError)):
        text = str(exc)
    else:
        text = f"{type(exc).__name__}: {exc}"
    return codec.error_response(str(message.get("verb", "?")), text)


def worker_main(spec: WorkerSpec, control) -> None:
    """Child-process entry point (spawned by the supervisor)."""
    # The supervisor coordinates shutdown over the control pipe; a
    # terminal Ctrl-C must not tear workers down mid-request.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    server = _WorkerServer(spec, control)
    signal.signal(signal.SIGTERM, lambda *_: server.stop_event.set())
    server.run()
