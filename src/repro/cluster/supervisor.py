"""Worker supervision: spawn, watch, and restart shard processes.

The supervisor owns one :class:`WorkerHandle` per shard.  A handle is
the *slot*, not the process: the process behind it dies and is
respawned, while the handle keeps the worker's identity (its ring node
name), its event-loop connection pool, and its restart history.

Failure detection runs in one monitor thread:

* **crash** — ``Process.is_alive()`` goes false (the OS reaped it);
* **hang** — the process is alive but its control-pipe heartbeat is
  older than ``heartbeat_timeout_s`` (a worker stuck under the GIL in
  native code, or SIGSTOPped); the supervisor kills it so the case
  converges to a crash.

Either way the worker goes ``down`` and a respawn is scheduled after a
**capped exponential backoff** (``backoff_base_s * 2^restarts``, capped
at ``backoff_cap_s``), so a fast-crashing worker cannot hog a CPU with
spawn churn.  On respawn the child rebuilds its store through the
dataset build/load plus the :class:`~repro.stream.pipeline.DurableStoreSink`
journal replay, and the router's ``on_worker_ready`` hook re-offers any
ingests the worker missed while down (idempotent: the store suppresses
duplicates).

Availability transitions are recorded honestly: the first worker lost
emits ``cluster.health.degraded``; the event log shows
``cluster.health.ok`` only when every slot is serving again.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.cluster.protocol import (
    Reply,
    encode_frame,
    read_reply,
    recv_reply,
    send_frame,
)
from repro.cluster.worker import (
    MSG_HEARTBEAT,
    MSG_READY,
    MSG_SHUTDOWN,
    MSG_STOPPED,
    WorkerSpec,
    worker_main,
)
from repro.obs import get_event_log, get_registry, get_tracer
from repro.obs import events as ev

#: Handle lifecycle states.
STARTING = "starting"
READY = "ready"
DOWN = "down"
STOPPED = "stopped"


class WorkerError(RuntimeError):
    """A request could not be completed by this worker (dead socket,
    worker not ready, timeout); the router treats it as fail-over."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs.

    Attributes:
        heartbeat_timeout_s: heartbeat silence that declares a live
            process hung (must exceed the spec's heartbeat interval
            by a healthy margin).
        poll_interval_s: monitor loop cadence.
        backoff_base_s / backoff_cap_s: restart delay is
            ``min(cap, base * 2^restarts)``.
        ready_timeout_s: bound on the initial all-workers-up wait.
        request_timeout_s: bound on one worker request (socket timeout,
            or ``asyncio.wait_for`` bound on the event loop).
        connect_timeout_s: bound on dialing a worker.
    """

    heartbeat_timeout_s: float = 3.0
    poll_interval_s: float = 0.05
    backoff_base_s: float = 0.2
    backoff_cap_s: float = 5.0
    ready_timeout_s: float = 120.0
    request_timeout_s: float = 60.0
    connect_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.heartbeat_timeout_s <= 0 or self.poll_interval_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.backoff_base_s <= 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError(
                "backoff must satisfy 0 < base <= cap, got "
                f"{self.backoff_base_s} / {self.backoff_cap_s}"
            )


class WorkerHandle:
    """One supervised worker slot (survives process restarts)."""

    def __init__(self, spec: WorkerSpec, config: SupervisorConfig) -> None:
        self.spec = spec
        self.config = config
        self.state = STOPPED
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None  # parent end of the control pipe
        self.port: Optional[int] = None
        self.pid: Optional[int] = None
        self.reloaded = 0
        self.restarts = 0
        self.backoff_until = 0.0
        self.last_backoff_s = 0.0
        self.last_heartbeat = 0.0
        # Event-loop connections, pooled per (loop, port, pid): one
        # process incarnation as seen from one loop.
        self._links: Dict[tuple, list] = {}
        # Telemetry payloads piggybacked on heartbeats, drained by the
        # supervisor's monitor loop.  Bounded: with no consumer (or a
        # slow one) old beats fall off instead of growing the handle.
        self._telemetry: Deque[Dict] = deque(maxlen=8)

    @property
    def worker_id(self) -> str:
        return self.spec.worker_id

    # -- lifecycle -------------------------------------------------------
    def spawn(self) -> None:
        """Start (or restart) the worker process."""
        ctx = multiprocessing.get_context("spawn")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=worker_main,
            args=(self.spec, child_conn),
            name=f"repro-cluster-{self.worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.state = STARTING
        self.port = None
        self.last_heartbeat = time.monotonic()
        log = get_event_log()
        if log.enabled:
            log.emit(
                ev.CLUSTER_WORKER_SPAWNED,
                worker=self.worker_id,
                pid=self.process.pid,
                restarts=self.restarts,
            )

    def poll_control(self) -> bool:
        """Drain control-pipe messages; returns True when the worker
        transitioned to ready during this poll."""
        became_ready = False
        conn = self.conn
        if conn is None:
            return False
        try:
            while conn.poll(0):
                message = conn.recv()
                if not isinstance(message, dict):
                    continue
                kind = message.get("type")
                if kind == MSG_READY:
                    self.port = int(message["port"])
                    self.pid = int(message["pid"])
                    self.reloaded = int(message.get("reloaded", 0))
                    self.state = READY
                    self.last_heartbeat = time.monotonic()
                    became_ready = True
                    log = get_event_log()
                    if log.enabled:
                        log.emit(
                            ev.CLUSTER_WORKER_READY,
                            worker=self.worker_id,
                            pid=self.pid,
                            port=self.port,
                            reloaded=self.reloaded,
                            scenarios=message.get("scenarios", 0),
                            restarts=self.restarts,
                        )
                elif kind == MSG_HEARTBEAT:
                    self.last_heartbeat = time.monotonic()
                    telemetry = message.get("telemetry")
                    if isinstance(telemetry, dict):
                        self._telemetry.append(telemetry)
                elif kind == MSG_STOPPED:
                    pass  # graceful exit acknowledged; is_alive soon false
        except (EOFError, OSError):
            pass  # pipe closed: the liveness check will catch it
        return became_ready

    def take_telemetry(self) -> List[Dict]:
        """Drain the buffered telemetry beats (oldest first)."""
        drained: List[Dict] = []
        while True:
            try:
                drained.append(self._telemetry.popleft())
            except IndexError:
                return drained

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def heartbeat_age(self) -> float:
        return time.monotonic() - self.last_heartbeat

    def kill(self) -> None:
        """Hard-kill the process (tests and hang handling)."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()

    def mark_down(self, backoff: bool = True) -> float:
        """Transition to ``down``; returns the scheduled backoff delay."""
        self.state = DOWN
        delay = 0.0
        if backoff:
            delay = min(
                self.config.backoff_cap_s,
                self.config.backoff_base_s * (2 ** self.restarts),
            )
            self.restarts += 1
        self.last_backoff_s = delay
        self.backoff_until = time.monotonic() + delay
        return delay

    def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful stop: shutdown message, join, then escalate."""
        self.state = STOPPED
        if self.conn is not None:
            try:
                self.conn.send({"type": MSG_SHUTDOWN})
            except (OSError, ValueError, BrokenPipeError):
                pass
        if self.process is not None:
            self.process.join(timeout=timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5.0)
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
        log = get_event_log()
        if log.enabled:
            log.emit(ev.CLUSTER_WORKER_STOPPED, worker=self.worker_id)

    # -- data channel ----------------------------------------------------
    def request(self, message: Dict) -> Reply:
        """One blocking exchange on a fresh connection, for callers off
        the event loop (the monitor thread's ingest replay)."""
        self._check_ready()
        address = (self.spec.host, self.port)
        try:
            with socket.create_connection(
                address, self.config.connect_timeout_s
            ) as sock:
                sock.settimeout(self.config.request_timeout_s)
                send_frame(sock, message)
                return recv_reply(sock)
        except Exception as exc:
            raise WorkerError(
                f"request to worker {self.worker_id} failed: {exc}"
            ) from exc

    async def exchange(self, message: Dict) -> Reply:
        """One framed exchange from the running event loop, bounded by
        ``request_timeout_s``; the reply's answer stays unparsed bytes.
        A pooled connection serves only its own loop and process
        incarnation; one that fails in any way (timeout, reset,
        malformed reply) is closed, never reused."""
        self._check_ready()
        key = (asyncio.get_running_loop(), self.port, self.pid)
        pool = self._links.get(key)
        writer = None
        try:
            if pool:
                reader, writer = pool.pop()
            else:
                await self.close_links(keep=key)  # earlier incarnations
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.spec.host, self.port),
                    self.config.connect_timeout_s,
                )
            # No drain: the transport flushes while the reply is awaited.
            writer.write(encode_frame(message))
            reply = await asyncio.wait_for(
                read_reply(reader), self.config.request_timeout_s
            )
        except BaseException as exc:
            if writer is not None:
                writer.close()
            if not isinstance(exc, Exception):
                raise
            raise WorkerError(
                f"request to worker {self.worker_id} failed: "
                f"{str(exc) or type(exc).__name__}"
            ) from exc
        self._links.setdefault(key, []).append((reader, writer))
        return reply

    def _check_ready(self) -> None:
        if self.state != READY:
            raise WorkerError(
                f"worker {self.worker_id} is {self.state}, not ready"
            )

    async def close_links(self, keep: Optional[tuple] = None) -> None:
        """Close the running loop's pooled connections to this worker
        but ``keep``'s; a loop's owner calls it before closing it."""
        loop = asyncio.get_running_loop()
        stale = [k for k in list(self._links) if k[0] is loop and k != keep]
        writers = [w for k in stale for _r, w in self._links.pop(k, ())]
        for writer in writers:
            writer.close()
        await asyncio.gather(
            *(writer.wait_closed() for writer in writers),
            return_exceptions=True,
        )


class Supervisor:
    """Spawns the worker fleet and keeps it alive.

    Args:
        specs: one :class:`WorkerSpec` per worker slot.
        config: supervision knobs.
        on_worker_ready: called (from the monitor thread) with the
            worker id whenever a worker becomes ready *after a
            restart* — the router uses it to replay missed ingests.
        on_telemetry: called (from the monitor thread) with
            ``(worker_id, payload)`` for every telemetry beat a worker
            piggybacks on its heartbeat — the gateway's
            :class:`~repro.cluster.telemetry.ClusterTelemetry` hooks
            this to federate metrics and adopt shipped events.
    """

    def __init__(
        self,
        specs: Sequence[WorkerSpec],
        config: Optional[SupervisorConfig] = None,
        on_worker_ready: Optional[Callable[[str], None]] = None,
        on_telemetry: Optional[Callable[[str, Dict], None]] = None,
    ) -> None:
        if not specs:
            raise ValueError("supervisor needs at least one worker spec")
        ids = [spec.worker_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate worker ids: {ids}")
        self.config = config if config is not None else SupervisorConfig()
        self.workers: Dict[str, WorkerHandle] = {
            spec.worker_id: WorkerHandle(spec, self.config) for spec in specs
        }
        self.on_worker_ready = on_worker_ready
        self.on_telemetry = on_telemetry
        self._monitor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._degraded = False
        self._registry = get_registry()

    # -- queries ---------------------------------------------------------
    @property
    def worker_ids(self) -> List[str]:
        return sorted(self.workers)

    def worker(self, worker_id: str) -> WorkerHandle:
        return self.workers[worker_id]

    def available(self) -> List[str]:
        """Worker ids currently serving, in stable order."""
        return [
            worker_id
            for worker_id in self.worker_ids
            if self.workers[worker_id].state == READY
        ]

    def describe(self) -> Dict[str, Dict]:
        """Topology snapshot for the gateway's ``stats`` verb."""
        return {
            worker_id: {
                "state": handle.state,
                "pid": handle.pid,
                "port": handle.port,
                "restarts": handle.restarts,
                "reloaded": handle.reloaded,
                "heartbeat_age_s": round(handle.heartbeat_age(), 3),
            }
            for worker_id, handle in self.workers.items()
        }

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "Supervisor":
        with get_tracer().span("cluster.fleet.start", workers=len(self.workers)):
            for handle in self.workers.values():
                handle.spawn()
            deadline = time.monotonic() + self.config.ready_timeout_s
            while time.monotonic() < deadline:
                pending = []
                for handle in self.workers.values():
                    handle.poll_control()
                    if handle.state != READY:
                        if not handle.alive():
                            raise RuntimeError(
                                f"worker {handle.worker_id} died during "
                                f"startup (exit code "
                                f"{handle.process.exitcode})"
                            )
                        pending.append(handle.worker_id)
                if not pending:
                    break
                time.sleep(self.config.poll_interval_s)
            else:
                raise RuntimeError(
                    f"workers not ready within "
                    f"{self.config.ready_timeout_s}s: {pending}"
                )
        self._set_available_gauge()
        self._stop.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=timeout)
            self._monitor = None
        for handle in self.workers.values():
            handle.shutdown(timeout=timeout)
        self._set_available_gauge()

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- monitoring ------------------------------------------------------
    def _set_available_gauge(self) -> None:
        self._registry.gauge(
            "ev_cluster_workers_available",
            "Worker processes currently serving requests",
        ).set(float(len(self.available())))

    def _record_loss(self, handle: WorkerHandle, kind: str) -> None:
        log = get_event_log()
        delay = handle.mark_down()
        self._registry.counter(
            "ev_cluster_worker_crashes_total",
            "Worker processes lost (crash or hang), by worker",
        ).inc(worker=handle.worker_id, kind=kind)
        if log.enabled:
            log.emit(
                ev.CLUSTER_WORKER_CRASHED
                if kind == "crash"
                else ev.CLUSTER_WORKER_HUNG,
                worker=handle.worker_id,
                pid=handle.pid,
                restarts=handle.restarts,
                backoff_s=delay,
            )
        if not self._degraded:
            self._degraded = True
            if log.enabled:
                log.emit(
                    ev.CLUSTER_HEALTH_DEGRADED,
                    available=len(self.available()),
                    total=len(self.workers),
                    lost_worker=handle.worker_id,
                )

    def _monitor_once(self) -> None:
        now = time.monotonic()
        for handle in self.workers.values():
            if handle.state == STOPPED:
                continue
            became_ready = handle.poll_control()
            if self.on_telemetry is not None:
                for payload in handle.take_telemetry():
                    try:
                        self.on_telemetry(handle.worker_id, payload)
                    except Exception:
                        pass  # telemetry must never take the monitor down
            if became_ready and handle.restarts > 0:
                self._registry.counter(
                    "ev_cluster_worker_restarts_total",
                    "Successful worker restarts, by worker",
                ).inc(worker=handle.worker_id)
                if self.on_worker_ready is not None:
                    try:
                        self.on_worker_ready(handle.worker_id)
                    except Exception:
                        pass  # replay failures surface via router metrics
            if handle.state in (STARTING, READY) and not handle.alive():
                self._record_loss(handle, "crash")
            elif (
                handle.state == READY
                and handle.heartbeat_age() > self.config.heartbeat_timeout_s
            ):
                handle.kill()
                self._record_loss(handle, "hang")
            elif handle.state == DOWN and now >= handle.backoff_until:
                log = get_event_log()
                if log.enabled:
                    log.emit(
                        ev.CLUSTER_WORKER_RESTARTED,
                        worker=handle.worker_id,
                        restarts=handle.restarts,
                        backoff_s=handle.last_backoff_s,
                    )
                handle.spawn()
        if self._degraded and len(self.available()) == len(self.workers):
            self._degraded = False
            log = get_event_log()
            if log.enabled:
                log.emit(
                    ev.CLUSTER_HEALTH_OK,
                    available=len(self.available()),
                    total=len(self.workers),
                )
        self._set_available_gauge()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.config.poll_interval_s):
            self._monitor_once()
