"""Request routing: consistent hashing, replica fan-out, fail-over.

The router sits between the gateway and the supervisor.  Every
data-plane request gets a routing key (:func:`repro.cluster.codec.routing_key`)
and a **replica set** — the first ``replication`` distinct workers
clockwise on the :class:`~repro.cluster.hashring.HashRing`.  Because
workers are full replicas of the standing dataset (every ingest is
fanned out to all of them), any replica can answer any query; the ring
buys *affinity*, not partitioning: repeats of one query land on the
same worker and hit its warm result cache, while distinct keys spread
across the fleet, which is where the 1→N process-scaling comes from.

Read policies:

* ``first`` (default) — ask the key's replicas in ring order,
  preferring currently-available workers; the first answer wins, and a
  dead or erroring replica is skipped (``cluster.route.failover``).
  With ``replication ≥ 2`` a killed-and-restarting worker costs
  latency, never availability.
* ``quorum`` — ask every reachable replica and require a majority of
  the responders to agree on the answer payload (volatile serving
  metadata — latency, cache flags — excluded from the comparison).
  Replicas are deterministic builds of the same world, so disagreement
  means a corrupted or stale worker; the majority answer wins and the
  mismatch is counted on ``ev_cluster_quorum_disagreements_total``.

Ingest is not routed but **broadcast**: every available worker applies
(and journals) the new scenarios, and the router remembers them in an
in-memory replay log so a worker that was down catches up the moment
the supervisor reports it ready again (`on_worker_ready`), making the
fleet's stores convergent across crash/restart cycles.

Every route answers with one :class:`~repro.cluster.protocol.Reply`.
A ``first`` read relays the worker's answer bytes unparsed; a quorum
read parses each replica's answer for the vote and relays the
majority's bytes; ingest parses the acks and answers with its tally.
The router only adds routing fields (``worker``, ``failovers`` or
``quorum``/``responders``, and a traced request's ``trace_id``) for
the gateway to splice in, and hands each worker's raw span records to
the trace collector.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.cluster.codec import error_response, routing_key
from repro.cluster.hashring import DEFAULT_VNODES, HashRing
from repro.cluster.protocol import Reply
from repro.cluster.supervisor import Supervisor, WorkerError
from repro.cluster.telemetry import TraceCollector
from repro.obs import get_event_log, get_registry, get_tracer
from repro.obs import events as ev
from repro.obs.tracing import extract_trace
from repro.service.api import STATUS_OK

#: Supported read policies.
READ_POLICIES = ("first", "quorum")

#: Serving metadata excluded from quorum payload comparison.
_VOLATILE_FIELDS = ("latency_s", "cached", "deduplicated", "batched_with")


def _payload_digest(response: Dict[str, Any]) -> str:
    stable = {
        key: value
        for key, value in response.items()
        if key not in _VOLATILE_FIELDS
    }
    return json.dumps(stable, sort_keys=True, separators=(",", ":"))


class ClusterRouter:
    """Routes wire messages to supervised workers.

    Args:
        supervisor: the worker fleet (must not be started yet or must
            have no ``on_worker_ready`` hook of its own — the router
            installs one to replay missed ingests).
        replication: replica fan-out per key; ≥2 keeps queries
            answerable while one worker is down.
        read_policy: ``"first"`` or ``"quorum"``.
        vnodes: ring points per worker.
        trace_collector: where the raw span records of traced worker
            replies are stored (every replica's on quorum reads, every
            answering attempt's on failover).  ``None`` drops them; the
            gateway installs its collector at startup.
    """

    def __init__(
        self,
        supervisor: Supervisor,
        replication: int = 2,
        read_policy: str = "first",
        vnodes: int = DEFAULT_VNODES,
        trace_collector: Optional[TraceCollector] = None,
    ) -> None:
        if replication <= 0:
            raise ValueError(f"replication must be positive, got {replication}")
        if read_policy not in READ_POLICIES:
            raise ValueError(
                f"read_policy must be one of {READ_POLICIES}, "
                f"got {read_policy!r}"
            )
        self.supervisor = supervisor
        self.replication = min(replication, len(supervisor.workers))
        self.read_policy = read_policy
        self.ring = HashRing(supervisor.worker_ids, vnodes=vnodes)
        self._ingest_log: List[Dict[str, Any]] = []
        self._ingest_lock = threading.Lock()
        self._registry = get_registry()
        self._requests = self._registry.counter(
            "ev_cluster_requests_total",
            "Requests routed to workers, by verb and outcome",
        )
        self.trace_collector = trace_collector
        supervisor.on_worker_ready = self._replay_missed_ingests

    # -- metrics helpers -------------------------------------------------
    def _failover(self, verb: str, worker_id: str, error: str) -> None:
        self._registry.counter(
            "ev_cluster_failovers_total",
            "Requests retried on another replica, by verb",
        ).inc(verb=verb)
        log = get_event_log()
        if log.enabled:
            log.emit(
                ev.CLUSTER_ROUTE_FAILOVER,
                verb=verb,
                worker=worker_id,
                error=error,
            )

    # -- routing ---------------------------------------------------------
    def replicas_for(self, message: Dict[str, Any]) -> List[str]:
        """The key's replica set, available workers first (ring order
        preserved within each group)."""
        candidates = self.ring.nodes_for(
            routing_key(message), self.replication
        )
        available = set(self.supervisor.available())
        return sorted(candidates, key=lambda wid: wid not in available)

    async def dispatch(self, message: Dict[str, Any]) -> Reply:
        """Route one wire request on the running event loop.  A request
        that carries a trace envelope is routed under a
        ``cluster.request`` span in its trace, even when the caller
        holds no open span, and its trace id is added to the reply;
        any other request opens no span."""
        verb = str(message.get("verb", "?"))
        if verb == "ingest":
            routed = self._dispatch_ingest(message)
        elif self.read_policy == "quorum":
            routed = self._dispatch_quorum(message, verb)
        else:
            routed = self._dispatch_first(message, verb)
        trace = extract_trace(message)
        if trace is None:
            reply = await routed
        else:
            tracer = get_tracer()
            with tracer.remote_context(trace), tracer.span(
                "cluster.request", verb=verb
            ):
                reply = await routed
            reply.fields["trace_id"] = trace.trace_id
        self._requests.inc(verb=verb, status=reply.status)
        return reply

    async def _ask(
        self, worker_id: str, message: Dict[str, Any]
    ) -> Union[Reply, WorkerError]:
        """One exchange with one worker: its reply, with any span
        records stored raw in the collector, or the
        :class:`WorkerError` it failed with, counted as a fail-over."""
        try:
            reply = await self.supervisor.worker(worker_id).exchange(message)
        except WorkerError as exc:
            self._failover(str(message.get("verb", "?")), worker_id, str(exc))
            return exc
        trace = extract_trace(message) if reply.spans else None
        if trace is not None and self.trace_collector is not None:
            self.trace_collector.add_records(
                trace.trace_id, reply.spans, label=f"worker {worker_id}"
            )
        return reply

    async def _dispatch_first(
        self, message: Dict[str, Any], verb: str
    ) -> Reply:
        last_error = "no replica available"
        for attempt, worker_id in enumerate(self.replicas_for(message)):
            reply = await self._ask(worker_id, message)
            if isinstance(reply, WorkerError):
                last_error = str(reply)
                continue
            reply.fields.update(worker=worker_id, failovers=attempt)
            return reply
        return Reply.of(error_response(verb, last_error))

    async def _dispatch_quorum(
        self, message: Dict[str, Any], verb: str
    ) -> Reply:
        """Majority-of-responders read (see module docstring)."""
        replicas = self.replicas_for(message)
        outcomes = await asyncio.gather(
            *(self._ask(worker_id, message) for worker_id in replicas)
        )
        responses = [
            (worker_id, reply)
            for worker_id, reply in zip(replicas, outcomes)
            if not isinstance(reply, WorkerError)
        ]
        if not responses:
            return Reply.of(error_response(verb, "no replica available"))
        votes: Dict[str, List[Tuple[str, Reply]]] = {}
        for worker_id, reply in responses:
            votes.setdefault(_payload_digest(reply.decode()), []).append(
                (worker_id, reply)
            )
        majority = max(votes.values(), key=len)
        if len(votes) > 1:
            self._registry.counter(
                "ev_cluster_quorum_disagreements_total",
                "Quorum reads where replicas returned differing payloads",
            ).inc(verb=verb)
        worker_id, reply = majority[0]
        reply.fields.update(
            worker=worker_id, quorum=len(majority), responders=len(responses)
        )
        return reply

    # -- ingest (broadcast + replay) -------------------------------------
    async def _dispatch_ingest(self, message: Dict[str, Any]) -> Reply:
        scenarios = message.get("scenarios", [])
        with self._ingest_lock:
            self._ingest_log.extend(scenarios)
        acked = 0
        ingested = 0
        errors: List[str] = []
        workers = self.supervisor.available()
        outcomes = await asyncio.gather(
            *(self._ask(worker_id, message) for worker_id in workers)
        )
        for worker_id, reply in zip(workers, outcomes):
            if isinstance(reply, WorkerError):
                errors.append(f"{worker_id}: {reply}")
            elif reply.status == STATUS_OK:
                acked += 1
                ingested = max(ingested, int(reply.get("ingested", 0)))
            else:
                errors.append(f"{worker_id}: {reply.get('error')}")
        if not acked:
            return Reply.of(error_response(
                "ingest", "; ".join(errors) or "no worker available"
            ))
        return Reply.of({
            "verb": "ingest",
            "status": STATUS_OK,
            "ingested": ingested,
            "workers_acked": acked,
            "errors": errors,
        })

    @property
    def ingest_log_size(self) -> int:
        with self._ingest_lock:
            return len(self._ingest_log)

    def _replay_missed_ingests(self, worker_id: str) -> None:
        """Catch a restarted worker up on ingests it missed while down.

        Idempotent end to end: the worker skips scenarios whose key is
        already in its store (journal replay covers the ones it had
        accepted before crashing).
        """
        with self._ingest_lock:
            scenarios = list(self._ingest_log)
        if not scenarios:
            return
        with get_tracer().span(
            "cluster.ingest.replay", worker=worker_id, scenarios=len(scenarios)
        ):
            handle = self.supervisor.worker(worker_id)
            try:
                response = handle.request(
                    {"verb": "ingest", "scenarios": scenarios}
                )
            except WorkerError as exc:
                self._failover("ingest.replay", worker_id, str(exc))
                return
        self._registry.counter(
            "ev_cluster_ingest_replayed_total",
            "Scenarios re-offered to restarted workers",
        ).inc(len(scenarios), worker=worker_id)
        log = get_event_log()
        if log.enabled:
            log.emit(
                ev.CLUSTER_INGEST_REPLAYED,
                worker=worker_id,
                offered=len(scenarios),
                applied=int(response.get("ingested", 0)),
                duplicates=int(response.get("duplicates", 0)),
            )

    def describe(self) -> Dict[str, Any]:
        """Routing snapshot for the gateway's ``stats`` verb."""
        return {
            "replication": self.replication,
            "read_policy": self.read_policy,
            "vnodes": self.ring.vnodes,
            "nodes": list(self.ring.nodes),
            "ingest_log": self.ingest_log_size,
        }
