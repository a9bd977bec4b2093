"""The network front door: an asyncio NDJSON gateway over the cluster.

``repro cluster serve`` binds this on a real TCP port.  Clients send
one JSON object per line and get one JSON object per line back
(:mod:`repro.cluster.protocol` NDJSON); connections are persistent, so
a closed-loop client pays the dial cost once.

Verbs:

* ``match`` / ``investigate`` / ``ingest`` — data plane; routed to
  worker processes by the :class:`~repro.cluster.router.ClusterRouter`
  over pooled asyncio connections on the gateway's own event loop.
  The gateway relays each worker's answer bytes unparsed, splicing
  the routing fields (and a traced request's ``trace_id``) into the
  line it writes (:meth:`~repro.cluster.protocol.Reply.line`).
* ``health`` — the SLO verdict plus cluster availability
  (``workers_available`` / ``workers_total`` / ``degraded``).
* ``stats`` — topology + routing + gateway counters snapshot, plus
  per-worker telemetry summaries (qps inputs, percentiles, backend,
  beat lag) from the :class:`~repro.cluster.telemetry.ClusterTelemetry`
  plane — what ``repro cluster top`` polls.
* ``metrics`` — the **cluster-wide** Prometheus exposition: the
  gateway process's registry merged with every worker's federated
  series (``worker``-labelled, restart re-based), family headers
  deduped.
* ``trace`` — one merged Chrome trace for a traced cluster request
  (``trace_id`` option; defaults to the latest): gateway and worker
  spans under a single trace id on one wall-clock axis.
* ``profile`` — fan out to every available worker's continuous
  sampling profiler (``WorkerSpec.profile_hz > 0``), merge the
  returned stack aggregates with each frame rooted under a
  ``worker=<id>`` frame, and answer with both a collapsed-stack text
  (``collapsed``) and a speedscope document (``speedscope``) — one
  cluster-wide flamegraph.  The gateway's own profiler joins the merge
  when one is running in-process.
* ``slowlog`` — fan out to every available worker's slow-query log and
  answer with the merged exemplars (slowest first, each tagged
  ``worker=<id>``) plus each worker's capture-policy summary.
* ``ping`` — liveness.
* ``events`` — switches the connection into an **SSE-style stream**:
  the gateway tails the process event log (the flight recorder) and
  pushes ``event:``/``data:`` frames as events happen — a live view of
  worker crashes, restarts, fail-overs, shed requests, **plus events
  shipped from the workers themselves** (tagged ``worker=<id>`` in
  their fields, trace-correlated via ``trace_id``).  Options:
  ``types`` (filter list), ``max_events`` (close after N, for
  scripting), ``poll_s`` (tail cadence).

A data-plane request is traced if and only if its client sent a trace
envelope (:func:`~repro.obs.tracing.inject_trace`) and the process
tracer is real: the client's ``trace_id`` rides every hop and the
response, and the gateway and worker span records are stored raw for
the ``trace`` verb to merge when asked.  Any other request opens no
span here, nor on a worker that answers it from its result cache.

**Graceful shutdown** (:meth:`ClusterGateway.drain`): stop accepting,
answer new requests with ``shed``, wait for in-flight requests to
resolve, then close connections and the loop — no accepted request is
abandoned mid-flight.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from typing import Any, Dict, Optional, Set

from repro.cluster import codec
from repro.cluster.protocol import ProtocolError, Reply, decode_line, encode_line
from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import Supervisor
from repro.cluster.telemetry import ClusterTelemetry
from repro.obs import get_event_log, get_registry
from repro.obs import events as ev
from repro.obs.profiler import get_profiler, merge_collapsed, merged_speedscope
from repro.obs.registry import merge_expositions
from repro.obs.tracing import (
    TraceContext,
    Tracer,
    extract_trace,
    get_tracer,
    inject_trace,
)
from repro.service.api import STATUS_OK, STATUS_SHED
from repro.service.metrics import (
    DATA_ENDPOINTS,
    GATEWAY,
    RequestLog,
    RequestRecord,
    SLOConfig,
)

#: Verbs the gateway answers by fanning out to every available worker
#: itself (not via the router's read policies — there is no key to
#: route on); the workers are asked concurrently.
FANOUT_VERBS = ("profile", "slowlog")


class ClusterGateway:
    """TCP front end over a supervised worker fleet.

    Args:
        router: the routing layer (owns replica fan-out + fail-over).
        supervisor: the fleet, for topology/health reporting.
        host / port: bind address (port 0 picks an ephemeral port;
            read :attr:`port` after :meth:`start`).
        slo: objectives the ``health`` verb judges the rolling
            request window against.
        sse_poll_s: event-stream tail cadence.
    """

    def __init__(
        self,
        router: ClusterRouter,
        supervisor: Supervisor,
        host: str = "127.0.0.1",
        port: int = 0,
        slo: Optional[SLOConfig] = None,
        sse_poll_s: float = 0.05,
    ) -> None:
        self.router = router
        self.supervisor = supervisor
        self.host = host
        self.port = port
        self.sse_poll_s = sse_poll_s
        self.draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        # Requests being answered; written only on the loop.
        self._inflight = 0
        self._conn_tasks: Set[asyncio.Task] = set()
        self._registry = get_registry()
        #: Every verb's answers, once each (:meth:`_answer`): the
        #: gateway's request families and the ``health`` window.
        self.requests = RequestLog(GATEWAY, self._registry, slo or SLOConfig())
        # The observability plane: federates worker metrics, adopts
        # shipped events, and collects distributed traces.  The router
        # keeps its own collector if one was injected; otherwise it
        # shares the telemetry plane's.
        self.telemetry = ClusterTelemetry().attach(supervisor)
        if self.router.trace_collector is None:
            self.router.trace_collector = self.telemetry.traces
        else:
            self.telemetry.traces = self.router.trace_collector

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ClusterGateway":
        """Bind and serve on a background event-loop thread."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name="cluster-gateway", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError(
                f"gateway failed to start: {self._startup_error}"
            )
        if not self._ready.is_set():
            raise RuntimeError("gateway did not start within 30s")
        log = get_event_log()
        if log.enabled:
            log.emit(
                ev.CLUSTER_GATEWAY_STARTED,
                host=self.host,
                port=self.port,
                workers=len(self.supervisor.workers),
            )
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._serve_client, self.host, self.port)
            )
        except BaseException as exc:  # bind failure must not hang start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            tasks = list(self._conn_tasks)
            for task in tasks:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True)
            )
            for handle in self.supervisor.workers.values():
                loop.run_until_complete(handle.close_links())
            loop.run_until_complete(loop.shutdown_asyncgens())
            server.close()
            loop.run_until_complete(server.wait_closed())
            loop.close()

    @property
    def address(self) -> tuple:
        return (self.host, self.port)

    def drain(self, timeout: float = 10.0) -> Dict[str, Any]:
        """Graceful shutdown; returns a summary of what was drained.

        Idempotent: a second call (or a call before :meth:`start`) is
        a no-op reporting an already-drained gateway.
        """
        if self._loop is None or self._loop.is_closed():
            return {"drained": True, "inflight": 0}
        self.draining = True
        # Stop accepting new connections.
        if self._server is not None:
            self._loop.call_soon_threadsafe(self._server.close)
        # Wait for in-flight requests to resolve.
        deadline = time.monotonic() + timeout
        while self._inflight and time.monotonic() < deadline:
            time.sleep(0.01)
        leftover = self._inflight
        log = get_event_log()
        if log.enabled:
            log.emit(
                ev.CLUSTER_GATEWAY_DRAINED,
                inflight_abandoned=leftover,
                open_connections=len(self._conn_tasks),
            )
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self._server = None
        self._loop = None
        self.requests.fold()  # the loop has stopped: nothing more is written
        return {"drained": leftover == 0, "inflight": leftover}

    # alias: symmetric with MatchService.stop
    stop = drain

    # -- local (gateway-side) verbs --------------------------------------
    def _health_response(self) -> Dict[str, Any]:
        wire = codec.response_to_wire(self.requests.health())
        available = len(self.supervisor.available())
        total = len(self.supervisor.workers)
        wire["workers_available"] = available
        wire["workers_total"] = total
        wire["degraded"] = available < total
        if available < total:
            wire["healthy"] = False
        return wire

    def _stats_response(self) -> Dict[str, Any]:
        return {
            "verb": "stats",
            "status": STATUS_OK,
            "workers": self.supervisor.describe(),
            "routing": self.router.describe(),
            "telemetry": self.telemetry.describe(),
            "draining": self.draining,
        }

    def _trace_response(self, message: Dict[str, Any]) -> Dict[str, Any]:
        collector = self.router.trace_collector
        if collector is None:
            return codec.error_response("trace", "no trace collector")
        trace_id = message.get("trace_id")
        chrome = collector.chrome_trace(
            str(trace_id) if trace_id else None
        )
        if chrome is None:
            return codec.error_response(
                "trace",
                f"no such trace {trace_id!r}" if trace_id
                else "no traces collected (is the gateway tracer enabled?)",
            )
        return {
            "verb": "trace",
            "status": STATUS_OK,
            "trace_id": chrome["otherData"]["trace_id"],
            "chrome": chrome,
        }

    async def _fanout(
        self, verb: str, message: Dict[str, Any]
    ) -> "tuple[Dict[str, Dict[str, Any]], Dict[str, str]]":
        """Ask every available worker ``message`` concurrently; returns
        ``(replies_by_worker, errors_by_worker)``."""
        worker_ids = self.supervisor.available()
        outcomes = await asyncio.gather(
            *(self.supervisor.worker(w).exchange(message) for w in worker_ids),
            return_exceptions=True,
        )
        replies: Dict[str, Dict[str, Any]] = {}
        errors: Dict[str, str] = {}
        for worker_id, reply in zip(worker_ids, outcomes):
            if isinstance(reply, BaseException):
                errors[worker_id] = str(reply)
            elif reply.get("status") == STATUS_OK:
                replies[worker_id] = reply
            else:
                errors[worker_id] = str(reply.get("error", f"no {verb}"))
        return replies, errors

    async def _profile_response(self) -> Dict[str, Any]:
        """The ``profile`` verb: merge every worker's profiler snapshot
        (plus the gateway's own, when one runs in-process) into a
        single collapsed-stack / speedscope pair."""
        replies, errors = await self._fanout("profile", {"verb": "profile"})
        profiles: Dict[str, Dict[str, Any]] = {}
        for worker_id, reply in replies.items():
            wire = reply.get("profile")
            if isinstance(wire, dict):
                profiles[worker_id] = wire
            else:
                errors[worker_id] = "malformed profile payload"
        own = get_profiler()
        if getattr(own, "running", False):
            profiles["gateway"] = own.snapshot().to_wire()
        if not profiles:
            detail = "; ".join(
                f"{wid}: {err}" for wid, err in sorted(errors.items())
            )
            return codec.error_response(
                "profile",
                "no profiles collected" + (f" ({detail})" if detail else ""),
            )
        return {
            "verb": "profile",
            "status": STATUS_OK,
            "workers": sorted(profiles),
            "errors": errors,
            "samples": sum(int(p.get("samples", 0)) for p in profiles.values()),
            "collapsed": merge_collapsed(profiles),
            "speedscope": merged_speedscope(profiles),
        }

    async def _slowlog_response(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        """The ``slowlog`` verb: the fleet's slow-query exemplars
        merged slowest-first, each tagged with its worker id."""
        raw_limit = message.get("limit")
        try:
            limit = None if raw_limit is None else int(raw_limit)
        except (TypeError, ValueError):
            return codec.error_response("slowlog", f"bad limit {raw_limit!r}")
        request: Dict[str, Any] = {"verb": "slowlog"}
        if limit is not None:
            request["limit"] = limit
        replies, errors = await self._fanout("slowlog", request)
        records: "list[Dict[str, Any]]" = []
        workers: Dict[str, Dict[str, Any]] = {}
        for worker_id, reply in replies.items():
            payload = reply.get("slowlog")
            if not isinstance(payload, dict):
                errors[worker_id] = "malformed slowlog payload"
                continue
            workers[worker_id] = {
                key: value
                for key, value in payload.items()
                if key != "records"
            }
            for record in payload.get("records") or []:
                if isinstance(record, dict):
                    records.append({**record, "worker": worker_id})
        if not workers:
            detail = "; ".join(
                f"{wid}: {err}" for wid, err in sorted(errors.items())
            )
            return codec.error_response(
                "slowlog",
                "no slowlog collected" + (f" ({detail})" if detail else ""),
            )
        records.sort(
            key=lambda record: -float(record.get("latency_s") or 0.0)
        )
        if limit is not None:
            records = records[:limit]
        return {
            "verb": "slowlog",
            "status": STATUS_OK,
            "records": records,
            "workers": workers,
            "errors": errors,
        }

    def _local_dispatch(
        self, verb: str, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        if verb == "ping":
            return {"verb": "ping", "status": STATUS_OK, "port": self.port}
        if verb == "health":
            return self._health_response()
        if verb == "stats":
            return self._stats_response()
        if verb == "trace":
            return self._trace_response(message)
        if verb == "metrics":
            # Cluster-wide: the gateway's own registry merged with the
            # federated worker series, headers deduped by family.
            return {
                "verb": "metrics",
                "status": STATUS_OK,
                "text": merge_expositions([
                    self.requests.render_prometheus(),
                    self.telemetry.federation.render(),
                ]),
            }
        return codec.error_response(verb, f"unknown verb {verb!r}")

    # -- connection handling ---------------------------------------------
    async def _serve_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._registry.counter(
            "ev_cluster_gateway_connections_total",
            "TCP connections accepted by the gateway",
        ).inc()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                try:
                    message = decode_line(line)
                except ProtocolError as exc:
                    writer.write(
                        encode_line(codec.error_response("?", str(exc)))
                    )
                    await writer.drain()
                    return
                verb = str(message.get("verb", "?"))
                if verb == "events":
                    await self._stream_events(message, writer)
                    return
                reply = await self._answer(verb, message)
                writer.write(reply.line())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
            except Exception:
                pass

    async def _answer(self, verb: str, message: Dict[str, Any]) -> Reply:
        started = time.perf_counter()
        if verb in DATA_ENDPOINTS and self.draining:
            reply = Reply.of(codec.error_response(
                verb, "gateway draining", STATUS_SHED
            ))
        else:
            self._inflight += 1
            try:
                if verb in DATA_ENDPOINTS:
                    reply = await self._dispatch_data(verb, message)
                elif verb in FANOUT_VERBS:
                    reply = Reply.of(await (
                        self._profile_response()
                        if verb == "profile"
                        else self._slowlog_response(message)
                    ))
                else:
                    reply = Reply.of(self._local_dispatch(verb, message))
            except Exception as exc:
                reply = Reply.of(codec.error_response(
                    verb, f"{type(exc).__name__}: {exc}"
                ))
            finally:
                self._inflight -= 1
        self.requests.write(RequestRecord(
            verb, reply.status, time.perf_counter() - started
        ))
        return reply

    async def _dispatch_data(self, verb: str, message: Dict[str, Any]) -> Reply:
        """Route one data-plane request on this loop; one whose client
        sent a trace envelope under a ``gateway.request`` span in its
        trace, which the envelope then names as parent.  After the
        reply lands the gateway-side spans are popped off the tracer
        and stored, unconverted, in the trace collector."""
        tracer = get_tracer()
        trace = extract_trace(message)
        if trace is None or not isinstance(tracer, Tracer):
            return await self.router.dispatch(message)
        try:
            with tracer.remote_context(trace):
                with tracer.span("gateway.request", verb=verb) as root:
                    inject_trace(
                        message, TraceContext(trace.trace_id, root.span_id)
                    )
                    return await self.router.dispatch(message)
        finally:
            spans = tracer.take_trace(trace.trace_id)
            collector = self.router.trace_collector
            if spans and collector is not None:
                collector.add_records(
                    trace.trace_id,
                    functools.partial(tracer.span_records, spans),
                    label="gateway",
                )

    # -- the SSE-style event stream --------------------------------------
    async def _stream_events(self, message: Dict[str, Any], writer) -> None:
        """Tail the flight recorder onto the connection, SSE-framed.

        Frames follow the text/event-stream convention —
        ``event: <type>`` + ``data: <json>`` + blank line — with
        ``: keepalive`` comments while idle, so any SSE parser (or a
        human on ``nc``) can follow along.
        """
        types = message.get("types")
        allowed = set(types) if types else None
        max_events = message.get("max_events")
        poll_s = float(message.get("poll_s", self.sse_poll_s))
        log = get_event_log()
        writer.write(b": stream of flight-recorder events\n\n")
        await writer.drain()
        streamed = 0
        last_seq = 0
        last_write = time.monotonic()
        counter = self._registry.counter(
            "ev_cluster_events_streamed_total",
            "Flight-recorder events pushed to SSE subscribers",
        )
        while not self.draining:
            # One snapshot per poll: an event emitted while it is taken
            # is either in it or newer than its last seq.
            events = log.events()
            fresh = [
                event
                for event in events
                if event["seq"] > last_seq
                and (allowed is None or event["type"] in allowed)
            ]
            if events:
                last_seq = max(last_seq, events[-1]["seq"])
            for event in fresh:
                frame = (
                    f"event: {event['type']}\n"
                    f"data: {_event_json(event)}\n\n"
                ).encode("utf-8")
                writer.write(frame)
                streamed += 1
                counter.inc()
                if max_events is not None and streamed >= int(max_events):
                    await writer.drain()
                    return
            if fresh:
                last_write = time.monotonic()
                await writer.drain()
            elif time.monotonic() - last_write > 1.0:
                writer.write(b": keepalive\n\n")
                last_write = time.monotonic()
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    return
            await asyncio.sleep(poll_s)


def _event_json(event: Dict[str, Any]) -> str:
    import json

    return json.dumps(event, separators=(",", ":"))
