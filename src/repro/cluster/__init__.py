"""Multi-process cluster serving: workers, supervision, routing, gateway.

:mod:`repro.service` scales the matcher across *threads*; this package
scales it across *processes* and puts it on the network:

* :mod:`.worker` — a crash-isolated child process running one full
  :class:`~repro.service.server.MatchService` replica behind a
  length-prefixed JSON socket, journaling ingests for restart.
* :mod:`.protocol` — the framings: JSON frames to the workers, their
  replies as unparsed answer bytes plus status and span records, and
  the gateway's NDJSON lines.
* :mod:`.supervisor` — spawns the fleet, watches heartbeats, tells
  crashed from hung, and restarts with capped exponential backoff.
* :mod:`.hashring` — consistent hashing with virtual nodes; the
  replica set of a key is its failover order.
* :mod:`.router` — replica fan-out with ``first`` / ``quorum`` read
  policies, fail-over, ingest broadcast + replay.
* :mod:`.gateway` — the asyncio NDJSON front door (``repro cluster
  serve``), including the SSE-style live event stream.
* :mod:`.client` — the socket client the loadgen drives.
* :mod:`.telemetry` — the gateway-side observability plane: federated
  metrics with a ``worker`` label, merged cross-process Chrome traces,
  and cluster-wide event ingestion.
"""

from repro.cluster.hashring import DEFAULT_VNODES, HashRing, stable_hash
from repro.cluster.protocol import (
    ConnectionClosed,
    ProtocolError,
    Reply,
    decode_line,
    encode_frame,
    encode_line,
    encode_reply,
    read_reply,
    recv_frame,
    recv_reply,
    send_frame,
    send_reply,
)
from repro.cluster.codec import (
    CodecError,
    error_response,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
    routing_key,
)
from repro.cluster.worker import WorkerSpec, worker_main
from repro.cluster.supervisor import (
    Supervisor,
    SupervisorConfig,
    WorkerError,
    WorkerHandle,
)
from repro.cluster.router import READ_POLICIES, ClusterRouter
from repro.cluster.telemetry import (
    ClusterTelemetry,
    MetricsFederation,
    TraceCollector,
)
from repro.cluster.gateway import ClusterGateway
from repro.cluster.client import GatewayClient, GatewayError

__all__ = [
    "DEFAULT_VNODES",
    "HashRing",
    "stable_hash",
    "ConnectionClosed",
    "ProtocolError",
    "Reply",
    "decode_line",
    "encode_frame",
    "encode_line",
    "encode_reply",
    "read_reply",
    "recv_frame",
    "recv_reply",
    "send_frame",
    "send_reply",
    "CodecError",
    "error_response",
    "request_from_wire",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
    "routing_key",
    "WorkerSpec",
    "worker_main",
    "Supervisor",
    "SupervisorConfig",
    "WorkerError",
    "WorkerHandle",
    "READ_POLICIES",
    "ClusterRouter",
    "ClusterTelemetry",
    "MetricsFederation",
    "TraceCollector",
    "ClusterGateway",
    "GatewayClient",
    "GatewayError",
]
