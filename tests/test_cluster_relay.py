"""The gateway's byte relay: wire compatibility and trace retention.

The gateway relays each worker's answer bytes and splices its routing
fields into them; it no longer decodes and re-encodes the answer.  Over
one live 2-worker fleet, traced:

* every line a client reads — match, investigate, error and shed
  replies, on the ``first``, failover and quorum paths — parses, with
  duplicate keys rejected, to the dict that decoding the same worker
  reply and re-encoding it produced;
* a worker reply that is truncated or is not a JSON object fails over
  to the other replica and never reaches the client;
* after a burst the gateway tracer holds no finished spans and the
  trace collector at most ``max_traces`` traces, and a trace stored
  raw renders the same Chrome trace as the eager conversion
  (:mod:`tests.oracles.traces`);
* investigate answers — a worker's cache misses and its hits, which it
  answers from bytes kept with the cache entry — equal the in-process
  service's, and an ingest naming the suspect drops the kept bytes.
"""

import contextlib
import json
import socket
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterGateway,
    ClusterRouter,
    GatewayClient,
    Supervisor,
    SupervisorConfig,
    TraceCollector,
    WorkerSpec,
)
from repro.cluster.codec import error_response, response_to_wire
from repro.cluster.protocol import (
    ConnectionClosed,
    decode_line,
    encode_line,
    recv_frame,
)
from repro.cluster.supervisor import WorkerHandle
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import build_dataset
from repro.datagen.io import load_dataset, save_dataset
from repro.obs.tracing import (
    TraceContext,
    Tracer,
    extract_trace,
    inject_trace,
    new_trace_id,
    set_tracer,
)
from repro.service.api import STATUS_ERROR, STATUS_OK, STATUS_SHED
from repro.service.server import MatchService, ServiceConfig
from repro.world.entities import EID
from tests.oracles.traces import EagerTraceCollector


@dataclass
class Fleet:
    supervisor: Supervisor
    targets: list
    #: The saved world the workers serve.
    path: Path
    #: EID indices no other test queries.
    spare: list
    #: ``(worker id, trace id, reply)`` for every reply a handle read.
    replies: list


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    previous_tracer = set_tracer(Tracer())
    config = ExperimentConfig(
        num_people=60,
        cells_per_side=3,
        duration=400.0,
        sample_dt=10.0,
        warmup=100.0,
        feature_dimension=16,
        seed=11,
    )
    dataset = build_dataset(config)
    workdir: Path = tmp_path_factory.mktemp("relay-world")
    path = save_dataset(dataset, workdir / "world.npz")
    replies = []
    exchange = WorkerHandle.exchange

    async def recording_exchange(self, message):
        reply = await exchange(self, message)
        trace = extract_trace(message)
        replies.append((self.worker_id, trace and trace.trace_id, reply))
        return reply

    supervisor = Supervisor(
        [
            WorkerSpec(
                worker_id=f"w{i}",
                dataset_path=str(path),
                service=ServiceConfig(workers=2, queue_size=64),
            )
            for i in range(2)
        ],
        SupervisorConfig(ready_timeout_s=120.0),
    ).start()
    targets = [eid.index for eid in dataset.sample_targets(6, seed=3)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WorkerHandle, "exchange", recording_exchange)
        yield Fleet(
            supervisor=supervisor,
            targets=targets,
            replies=replies,
            path=path,
            spare=[e.index for e in dataset.eids if e.index not in targets],
        )
    supervisor.stop()
    set_tracer(previous_tracer)


@pytest.fixture(params=["first", "quorum"])
def gateway(request, fleet):
    router = ClusterRouter(
        fleet.supervisor, replication=2, read_policy=request.param
    )
    gw = ClusterGateway(router, fleet.supervisor).start()
    yield gw
    gw.drain(timeout=5.0)


def traced(message: dict) -> dict:
    """``message`` with a trace envelope of its own: only requests that
    carry one are traced."""
    return inject_trace(message, TraceContext(new_trace_id()))


def messages(fleet, trace=True):
    targets = fleet.targets
    plain = {
        "match": {"verb": "match", "targets": targets[:3], "algorithm": "ss"},
        "investigate": {"verb": "investigate", "eid": targets[3]},
        # The worker's codec rejects it: an error reply from the worker.
        "error": {"verb": "investigate", "eid": targets[4], "min_shared": "x"},
    }
    if not trace:
        return plain
    return {kind: traced(message) for kind, message in plain.items()}


def relay(gateway, message) -> bytes:
    """One request on a fresh connection; the raw line that answers it."""
    with socket.create_connection(gateway.address, timeout=30.0) as sock:
        sock.sendall(encode_line(message))
        with sock.makefile("rb") as reader:
            return reader.readline()


def _unique_keys(pairs):
    keys = [key for key, _value in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys in relayed object: {keys}")
    return dict(pairs)


def strict(line: bytes) -> dict:
    """Parse one relayed line, rejecting duplicate keys."""
    assert line.endswith(b"\n") and b"\n" not in line[:-1]
    return json.loads(line, object_pairs_hook=_unique_keys)


def reencoded(response: dict, trace_id: str, **routing) -> dict:
    """The line the decode/re-encode path wrote for one response dict:
    routing fields set, the trace id set, encoded and parsed back."""
    response = {**response, **routing, "trace_id": trace_id}
    return decode_line(encode_line(response))


def worker_reply(fleet, worker_id, trace_id):
    """The one reply ``worker_id`` sent for the request ``trace_id``."""
    found = [
        reply
        for wid, tid, reply in fleet.replies
        if wid == worker_id and tid == trace_id
    ]
    assert len(found) == 1
    return found[0]


def routing(gateway, relayed, answered):
    """The routing fields the policy must add, checked."""
    if gateway.router.read_policy == "first":
        expected = {"failovers": 2 - answered}
    else:
        expected = {"quorum": answered, "responders": answered}
    assert {k: relayed[k] for k in expected} == expected
    return {"worker": relayed["worker"], **expected}


class TestRelayedLines:
    @pytest.mark.parametrize("kind", ["match", "investigate", "error"])
    def test_line_equals_the_reencoded_worker_reply(self, fleet, gateway, kind):
        relayed = strict(relay(gateway, messages(fleet)[kind]))
        assert relayed["status"] == (STATUS_ERROR if kind == "error" else STATUS_OK)
        trace_id = relayed["trace_id"]
        reply = worker_reply(fleet, relayed["worker"], trace_id)
        if kind != "error":  # traced: span records rode beside the answer
            assert reply.spans
        assert relayed == reencoded(
            json.loads(reply.answer), trace_id, **routing(gateway, relayed, 2)
        )
        assert gateway.router.trace_collector.chrome_trace(trace_id)

    def test_shed_line(self, fleet, gateway):
        gateway.draining = True
        try:
            line = relay(gateway, messages(fleet)["match"])
        finally:
            gateway.draining = False
        assert strict(line) == decode_line(encode_line(
            error_response("match", "gateway draining", STATUS_SHED)
        ))


class TestUntracedRelayedLines:
    """The same requests without a trace envelope: the line is the
    worker's answer plus the routing fields, with no ``trace_id``, and
    nothing reaches the trace collector."""

    @pytest.mark.parametrize("kind", ["match", "investigate", "error"])
    def test_line_equals_the_worker_reply_plus_routing(
        self, fleet, gateway, kind
    ):
        seen = len(fleet.replies)
        traces = gateway.router.trace_collector.trace_ids()
        relayed = strict(relay(gateway, messages(fleet, trace=False)[kind]))
        assert relayed["status"] == (STATUS_ERROR if kind == "error" else STATUS_OK)
        assert "trace_id" not in relayed
        fresh = fleet.replies[seen:]
        assert all(trace_id is None for _wid, trace_id, _reply in fresh)
        (reply,) = [r for wid, _tid, r in fresh if wid == relayed["worker"]]
        assert not reply.spans
        expected = {
            **json.loads(reply.answer), **routing(gateway, relayed, 2)
        }
        assert relayed == decode_line(encode_line(expected))
        assert gateway.router.trace_collector.trace_ids() == traces


#: Worker replies that must never reach a client; each carries a
#: marker the relayed line must not contain.
BAD_REPLIES = {
    "truncated": struct.pack(">I", 64) + b'{"POISON":',
    "non-object": struct.pack(">I", 10) + b'["POISON"]' + b"\x02\0\0\0\0ok",
    "unterminated": struct.pack(">I", 10) + b'{"POISON":' + b"\x02\0\0\0\0ok",
}


@pytest.fixture(params=sorted(BAD_REPLIES))
def bad_worker(request):
    """A fake worker port answering every request with one bad reply."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.2)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(10.0)
                try:
                    recv_frame(conn)
                    conn.sendall(BAD_REPLIES[request.param])
                except (ConnectionClosed, OSError):
                    pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield listener.getsockname()[1]
    stop.set()
    thread.join(timeout=5.0)
    listener.close()


class TestMalformedWorkerReplies:
    def test_fails_over_and_never_reaches_the_client(
        self, fleet, gateway, bad_worker, monkeypatch
    ):
        message = messages(fleet)["match"]
        bad, good = gateway.router.replicas_for(message)
        monkeypatch.setattr(fleet.supervisor.worker(bad), "port", bad_worker)
        line = relay(gateway, message)
        assert b"POISON" not in line
        relayed = strict(line)
        assert relayed["status"] == STATUS_OK
        assert relayed["worker"] == good
        trace_id = relayed["trace_id"]
        reply = worker_reply(fleet, good, trace_id)
        assert relayed == reencoded(
            json.loads(reply.answer), trace_id, **routing(gateway, relayed, 1)
        )

    def test_no_good_replica_is_an_error_line(
        self, fleet, gateway, bad_worker, monkeypatch
    ):
        for handle in fleet.supervisor.workers.values():
            monkeypatch.setattr(handle, "port", bad_worker)
        line = relay(gateway, messages(fleet)["match"])
        assert b"POISON" not in line
        relayed = strict(line)
        assert relayed["status"] == STATUS_ERROR
        assert relayed == reencoded(
            error_response("match", relayed["error"]), relayed["trace_id"]
        )


class TestTraceRetention:
    def test_burst_leaves_no_spans_and_a_bounded_collector(self, fleet):
        tracer = Tracer()
        previous = set_tracer(tracer)
        collector = TraceCollector(max_traces=8)
        router = ClusterRouter(
            fleet.supervisor, replication=2, trace_collector=collector
        )
        gateway = ClusterGateway(router, fleet.supervisor).start()
        try:
            with GatewayClient(*gateway.address) as client:
                trace_ids = [
                    client.call(traced({
                        "verb": "match",
                        "targets": [target],
                        "algorithm": "ss",
                    }))["trace_id"]
                    for target in fleet.targets * 4
                ]
        finally:
            gateway.drain(timeout=5.0)
            set_tracer(previous)
        assert tracer.spans == []
        assert collector.trace_ids() == trace_ids[-collector.max_traces:]
        assert collector.evicted["lru"] == len(trace_ids) - collector.max_traces

    def test_untraced_burst_opens_and_keeps_no_span(
        self, fleet, counting_tracer
    ):
        collector = TraceCollector()
        router = ClusterRouter(
            fleet.supervisor, replication=2, trace_collector=collector
        )
        gateway = ClusterGateway(router, fleet.supervisor).start()
        targets = fleet.targets
        cached = []
        try:
            with GatewayClient(*gateway.address) as client:
                for i in range(200):
                    if i % 4:
                        pair = {targets[i % 6], targets[(i // 6) % 6]}
                        message = {
                            "verb": "match",
                            "targets": sorted(pair),
                            "algorithm": "edp",
                        }
                    else:
                        message = {
                            "verb": "investigate",
                            "eid": targets[(i // 4) % 6],
                            "min_shared": 2,
                        }
                    reply = client.call(message)
                    assert reply["status"] == STATUS_OK
                    assert "trace_id" not in reply
                    cached.append(reply["cached"])
        finally:
            gateway.drain(timeout=5.0)
        assert 0 < cached.count(False) < cached.count(True)
        assert counting_tracer.opened == []
        assert counting_tracer.spans == []
        assert collector.trace_ids() == []

    def test_raw_trace_renders_like_the_eager_conversion(
        self, fleet, monkeypatch
    ):
        collector = TraceCollector()
        eager = EagerTraceCollector()
        store = collector.add_records

        def add_records(trace_id, records, label=None):
            store(trace_id, records, label)
            if callable(records):
                records = records()
            elif isinstance(records, bytes):
                records = json.loads(records)
            eager.add_records(trace_id, records, label)

        monkeypatch.setattr(collector, "add_records", add_records)
        router = ClusterRouter(
            fleet.supervisor,
            replication=2,
            read_policy="quorum",
            trace_collector=collector,
        )
        gateway = ClusterGateway(router, fleet.supervisor).start()
        try:
            for message in messages(fleet).values():
                assert strict(relay(gateway, message))["trace_id"]
        finally:
            gateway.drain(timeout=5.0)
        assert len(collector.trace_ids()) == len(messages(fleet))
        pids = []
        for trace_id in collector.trace_ids():
            chrome = collector.chrome_trace(trace_id)
            assert chrome == eager.chrome_trace(trace_id)
            pids.append(len({e["pid"] for e in chrome["traceEvents"]}))
        # The gateway's spans plus both replicas', the error's too: a
        # worker answers a failed request inside its span.
        assert pids == [3, 3, 3]
        assert collector.chrome_trace() == eager.chrome_trace()


#: Keys that vary per request, or name the replica and trace.
VOLATILE = ("cached", "latency_s", "worker", "failovers", "trace_id")


def stable(answer: dict) -> dict:
    return {k: v for k, v in answer.items() if k not in VOLATILE}


@contextlib.contextmanager
def first_gateway(fleet):
    """A ``first``-policy gateway: repeats of a request reach the same
    replica, so the second one is a cache hit."""
    router = ClusterRouter(fleet.supervisor, replication=2)
    gw = ClusterGateway(router, fleet.supervisor).start()
    try:
        yield gw
    finally:
        gw.drain(timeout=5.0)


class TestCachedAnswers:
    def test_investigate_answers_equal_the_in_process_service(self, fleet):
        service = MatchService.from_dataset(load_dataset(fleet.path)).start()
        try:
            with first_gateway(fleet) as gw:
                for index in fleet.spare[1:6]:
                    ask = {"verb": "investigate", "eid": index}
                    miss, hit = strict(relay(gw, ask)), strict(relay(gw, ask))
                    assert (miss["cached"], hit["cached"]) == (False, True)
                    assert miss["worker"] == hit["worker"]
                    expected = stable(
                        response_to_wire(service.investigate(EID(index)))
                    )
                    assert expected["status"] == STATUS_OK
                    assert stable(miss) == expected
                    assert stable(hit) == expected
        finally:
            service.stop()

    def test_ingest_drops_the_kept_bytes(self, fleet):
        index, fresh = fleet.spare[0], 2**40 - 1
        ask = {"verb": "investigate", "eid": index}
        scenarios = [
            {"cell": 0, "tick": 10**7 + i, "inclusive": [index, fresh],
             "vague": [], "detections": []}
            for i in range(3)
        ]
        with first_gateway(fleet) as gw:
            miss, hit = strict(relay(gw, ask)), strict(relay(gw, ask))
            ack = strict(relay(gw, {"verb": "ingest", "scenarios": scenarios}))
            after, again = strict(relay(gw, ask)), strict(relay(gw, ask))
        assert (miss["cached"], hit["cached"]) == (False, True)
        assert (ack["status"], ack["ingested"]) == (STATUS_OK, 3)
        assert after["cached"] is False
        assert after["num_scenarios"] == hit["num_scenarios"] + 3
        assert [fresh, 3] in after["co_travelers"]
        assert [fresh, 3] not in hit["co_travelers"]
        assert again["cached"] is True
        assert again["worker"] == after["worker"]
        assert stable(again) == stable(after)
