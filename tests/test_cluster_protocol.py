"""Wire-level tests: framing, NDJSON, and the request/response codecs.

No processes here — sockets are exercised with an in-process
``socketpair`` so the byte-level behaviour (short reads, oversized
frames, garbage payloads) is tested deterministically, and the
worker's reply bytes come from its request handler, called directly.
"""

import asyncio
import json
import socket
import struct
import threading
from concurrent.futures import Future
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.codec import (
    CodecError,
    error_response,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
    routing_key,
)
from repro.cluster.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    ProtocolError,
    decode_line,
    dumps,
    encode_frame,
    encode_line,
    encode_reply,
    read_reply,
    recv_frame,
    send_frame,
)
from repro.cluster.supervisor import (
    READY,
    SupervisorConfig,
    WorkerError,
    WorkerHandle,
)
from repro.cluster.worker import WorkerSpec, _WorkerServer
from repro.obs.slowlog import SlowLogConfig
from repro.obs.tracing import (
    TraceContext,
    Tracer,
    inject_trace,
    new_trace_id,
    set_tracer,
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
    SLOCheck,
    TargetMatch,
)
from repro.service.cache import CacheEntry
from repro.service.server import (
    CacheHit,
    CacheMiss,
    MatchService,
    ServiceConfig,
)
from repro.world.entities import EID


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_roundtrip_over_socketpair(self, pair):
        left, right = pair
        message = {"verb": "ping", "nested": {"a": [1, 2, 3]}, "text": "x\ny"}
        send_frame(left, message)
        assert recv_frame(right) == message

    def test_multiple_frames_stay_separated(self, pair):
        left, right = pair
        for i in range(5):
            send_frame(left, {"seq": i})
        for i in range(5):
            assert recv_frame(right) == {"seq": i}

    def test_eof_at_boundary_raises_connection_closed(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)

    def test_eof_mid_frame_raises_connection_closed(self, pair):
        left, right = pair
        frame = encode_frame({"verb": "ping"})
        left.sendall(frame[: len(frame) // 2])
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)

    def test_oversized_header_rejected_without_reading_payload(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError):
            recv_frame(right)

    def test_non_json_payload_rejected(self, pair):
        left, right = pair
        payload = b"\xff\xfenot json"
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError):
            recv_frame(right)

    def test_non_object_payload_rejected(self, pair):
        left, right = pair
        payload = json.dumps([1, 2, 3]).encode()
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError):
            recv_frame(right)


#: Worker replies that must be rejected, as raw header + answer bytes.
_OVERSIZED = struct.pack(">I", MAX_FRAME_BYTES + 1)
_NON_OBJECT = struct.pack(">I", 9) + b"[1, 2, 3]"
_NON_JSON = struct.pack(">I", 10) + b"\xff\xfenot json"


class TestAsyncFraming:
    """The event-loop reply reader keeps the frame checks: the length
    cap, truncation, and an answer that is not a JSON object."""

    @staticmethod
    def read(data: bytes):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_reply(reader)

        return asyncio.run(run())

    def test_roundtrip(self):
        message = {"verb": "ping", "nested": {"a": [1, 2, 3]}, "text": "x\ny"}
        spans = [{"name": "worker.request", "args": {"verb": "ping"}}]
        answer = json.dumps(message).encode()
        reply = self.read(encode_reply(answer, "ok", spans))
        assert (reply.answer, reply.status) == (answer, "ok")
        assert json.loads(reply.spans) == spans
        assert dict(reply) == message

    def test_eof_mid_frame_raises_connection_closed(self):
        reply = encode_reply(b'{"verb":"ping"}', "ok")
        for cut in (2, len(reply) // 2, len(reply) - 1):
            with pytest.raises(ConnectionClosed):
                self.read(reply[:cut])

    @pytest.mark.parametrize(
        "data",
        [_OVERSIZED, _NON_OBJECT, _NON_JSON],
        ids=["oversized", "non-object", "non-json"],
    )
    def test_bad_frames_rejected(self, data):
        with pytest.raises(ProtocolError):
            self.read(data)

    @pytest.mark.parametrize(
        "reply", [_OVERSIZED, _NON_OBJECT], ids=["oversized", "non-object"]
    )
    def test_worker_exchange_closes_the_connection(self, reply):
        """A fake worker answers one request with a bad frame: the
        exchange fails with the ProtocolError as its cause, the
        connection is closed, and nothing is pooled."""
        listener = socket.create_server(("127.0.0.1", 0))
        seen = {}

        def fake_worker():
            conn, _addr = listener.accept()
            with conn:
                conn.settimeout(10.0)
                seen["request"] = recv_frame(conn)
                conn.sendall(reply)
                seen["closed"] = conn.recv(1) == b""

        thread = threading.Thread(target=fake_worker)
        thread.start()
        handle = WorkerHandle(
            WorkerSpec(worker_id="fake", dataset_path="unused.npz"),
            SupervisorConfig(request_timeout_s=10.0),
        )
        handle.state = READY
        handle.port = listener.getsockname()[1]

        async def run():
            with pytest.raises(WorkerError) as info:
                await handle.exchange({"verb": "ping"})
            return info.value

        try:
            error = asyncio.run(run())
            thread.join(timeout=15.0)
        finally:
            listener.close()
        assert isinstance(error.__cause__, ProtocolError)
        assert seen == {"request": {"verb": "ping"}, "closed": True}
        assert not any(handle._links.values())


class TestNDJSON:
    def test_roundtrip(self):
        message = {"verb": "match", "targets": [1, 2]}
        line = encode_line(message)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert decode_line(line) == message

    def test_empty_line_rejected(self):
        with pytest.raises(ProtocolError):
            decode_line(b"   \n")

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError):
            decode_line(b"{not json}\n")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            decode_line(b"42\n")


class TestRequestCodec:
    def test_match_roundtrip(self):
        request = MatchRequest(targets=(EID(3), EID(7)), algorithm="edp")
        wire = request_to_wire(request)
        assert wire["verb"] == "match"
        # wire form must be plain JSON, no dataclasses smuggled through
        json.dumps(wire)
        decoded = request_from_wire(json.loads(json.dumps(wire)))
        assert decoded == request

    def test_investigate_roundtrip(self):
        request = InvestigateRequest(eid=EID(11), min_shared=5)
        decoded = request_from_wire(request_to_wire(request))
        assert decoded == request

    def test_ingest_roundtrip_preserves_scenarios(self, ideal_dataset):
        scenarios = [
            ideal_dataset.store.get(key)
            for key in sorted(ideal_dataset.store.keys)[:3]
        ]
        request = IngestTickRequest(scenarios=tuple(scenarios))
        wire = json.loads(json.dumps(request_to_wire(request)))
        decoded = request_from_wire(wire)
        assert len(decoded.scenarios) == 3
        for original, restored in zip(scenarios, decoded.scenarios):
            assert restored.key == original.key
            assert len(restored.v) == len(original.v)

    def test_ingest_eid_index_bounded_by_mac_space(self):
        def ingest(index):
            doc = {"cell": 0, "tick": 0, "inclusive": [index], "vague": [],
                   "detections": []}
            return request_from_wire({"verb": "ingest", "scenarios": [doc]})

        (scenario,) = ingest(2**40 - 1).scenarios
        assert scenario.e.inclusive == frozenset([EID(2**40 - 1)])
        for index in (2**40, 2**64, -1):
            with pytest.raises(CodecError, match="MAC space"):
                ingest(index)

    def test_unknown_verb_rejected(self):
        with pytest.raises(CodecError):
            request_from_wire({"verb": "frobnicate"})

    def test_malformed_match_rejected(self):
        with pytest.raises(CodecError):
            request_from_wire({"verb": "match"})  # no targets

    def test_unencodable_request_rejected(self):
        with pytest.raises(CodecError):
            request_to_wire(object())


class TestResponseCodec:
    def test_match_roundtrip(self):
        response = MatchResponse(
            status=STATUS_OK,
            matches={
                EID(4): TargetMatch(
                    eid=EID(4), prediction=9, agreement=0.75, evidence=12
                )
            },
            cached=True,
            latency_s=0.125,
        )
        wire = json.loads(json.dumps(response_to_wire(response)))
        decoded = response_from_wire(wire)
        assert decoded.status == STATUS_OK
        assert decoded.cached is True
        assert decoded.matches[EID(4)].prediction == 9
        assert decoded.matches[EID(4)].agreement == pytest.approx(0.75)

    def test_investigate_roundtrip(self):
        response = InvestigateResponse(
            status=STATUS_OK,
            eid=EID(2),
            num_scenarios=6,
            presence=[(0, 1), (3, 2)],
            co_travelers=[(EID(5), 4)],
        )
        decoded = response_from_wire(
            json.loads(json.dumps(response_to_wire(response)))
        )
        assert decoded.eid == EID(2)
        assert decoded.presence == [(0, 1), (3, 2)]
        assert decoded.co_travelers == [(EID(5), 4)]

    def test_ingest_carries_emission_count_not_objects(self):
        response = IngestTickResponse(
            status=STATUS_OK, ingested=4, emissions=[object(), object()]
        )
        wire = response_to_wire(response)
        assert wire["emissions"] == 2
        decoded = response_from_wire(json.loads(json.dumps(wire)))
        assert decoded.ingested == 4
        assert decoded.emissions == []  # documented: count does not round-trip

    def test_health_roundtrip(self):
        response = HealthResponse(
            healthy=False,
            window_s=60.0,
            samples=100,
            checks=(
                SLOCheck(
                    name="p95", objective=0.1, observed=0.2, ok=False
                ),
            ),
            note="degraded",
        )
        decoded = response_from_wire(
            json.loads(json.dumps(response_to_wire(response)))
        )
        assert decoded.healthy is False
        assert decoded.checks[0].name == "p95"
        assert decoded.checks[0].ok is False

    def test_error_response_shape(self):
        wire = error_response("match", "worker exploded")
        assert wire == {
            "verb": "match",
            "status": STATUS_ERROR,
            "error": "worker exploded",
        }

    def test_unknown_verb_rejected(self):
        with pytest.raises(CodecError):
            response_from_wire({"verb": "nope", "status": "ok"})


_eids = st.integers(0, 2**40 - 1).map(EID)
_latencies = st.one_of(
    st.sampled_from([0.0, 1e-05, 2.5e-07, 0.1, 3.0]),
    st.floats(0.0, 1e4, allow_nan=False),
)
_errors = st.one_of(st.none(), st.text(max_size=12))
_statuses = st.sampled_from([STATUS_OK, STATUS_SHED, STATUS_ERROR])
_finite = st.floats(allow_nan=False, allow_infinity=False)
_match_responses = st.builds(
    MatchResponse,
    status=_statuses,
    matches=st.lists(
        st.tuples(
            _eids, st.one_of(st.none(), st.integers(0, 2**31)), _finite,
            st.integers(0, 10**4),
        ),
        max_size=4,
    ).map(lambda rows: {
        eid: TargetMatch(eid=eid, prediction=p, agreement=a, evidence=n)
        for eid, p, a, n in rows
    }),
    cached=st.booleans(),
    deduplicated=st.booleans(),
    batched_with=st.integers(0, 64),
    latency_s=_latencies,
    error=_errors,
)
_investigate_responses = st.builds(
    InvestigateResponse,
    status=_statuses,
    eid=st.one_of(st.none(), _eids),
    num_scenarios=st.integers(0, 10**6),
    presence=st.lists(st.tuples(*[st.integers(0, 10**6)] * 3), max_size=4),
    co_travelers=st.lists(st.tuples(_eids, st.integers(1, 10**4)), max_size=6),
    cached=st.booleans(),
    latency_s=_latencies,
    error=_errors,
)
_responses = st.one_of(_match_responses, _investigate_responses)


class _ScriptedService:
    """Stands in for the worker's MatchService: every request gets the
    scripted answer, a cache hit as is and a response as a resolved
    future."""

    answer = None

    def lookup(self, request):
        if isinstance(self.answer, CacheHit):
            return self.answer
        return CacheMiss(request, started=0.0)

    def submit_miss(self, miss):
        future = Future()
        future.set_result(self.answer)
        return future


class _RecordingService:
    """A real MatchService that keeps every answer it hands the worker:
    a cache hit, or the future of a miss."""

    def __init__(self, service):
        self.service = service
        self.answers = []

    def lookup(self, request):
        answer = self.service.lookup(request)
        if isinstance(answer, CacheHit):
            self.answers.append(answer)
        return answer

    def submit_miss(self, miss):
        future = self.service.submit_miss(miss)
        self.answers.append(future)
        return future


@pytest.fixture(scope="class")
def traced():
    previous = set_tracer(Tracer())
    yield
    set_tracer(previous)


def _worker(service):
    spec = WorkerSpec(worker_id="w", dataset_path="unused.npz")
    server = _WorkerServer(spec, control=None)
    server.service = service
    return server


def _serve(server, request):
    """One traced data request through the worker: its reply bytes and
    the span records that rode in them."""
    message = inject_trace(request_to_wire(request), TraceContext(new_trace_id()))
    answer, status, spans = server._handle_data(message, message["verb"])
    assert spans
    return encode_reply(answer, status, spans), spans


def _expected(response, spans):
    """The reply the worker sent before cache hits kept their bytes:
    the whole response encoded."""
    return encode_reply(
        dumps(response_to_wire(response)), response.status, spans
    )


def _request_for(response):
    if isinstance(response, MatchResponse):
        return MatchRequest(targets=(EID(1),))
    return InvestigateRequest(eid=EID(1))


class TestWorkerAnswerBytes:
    """The worker's reply bytes equal the full encoding of the response
    the in-process service gives, on a miss, on a cache entry's first
    hit and on every later one."""

    @settings(max_examples=150, deadline=None)
    @given(response=_responses)
    def test_responses_are_encoded_whole(self, traced, response):
        service = _ScriptedService()
        service.answer = response
        reply, spans = _serve(_worker(service), _request_for(response))
        assert reply == _expected(response, spans)

    @settings(max_examples=150, deadline=None)
    @given(
        template=_responses,
        latencies=st.lists(_latencies, min_size=2, max_size=4),
    )
    def test_hits_splice_the_kept_body(self, traced, template, latencies):
        service = _ScriptedService()
        server = _worker(service)
        entry = CacheEntry(value=template, eids=frozenset())
        for i, latency in enumerate(latencies):
            service.answer = CacheHit(entry, latency)
            reply, spans = _serve(server, _request_for(template))
            hit_response = replace(template, cached=True, latency_s=latency)
            assert service.answer.response() == hit_response
            assert reply == _expected(hit_response, spans)
            if i == 0:
                body = entry.body
                assert body is not None
            assert entry.body is body  # encoded once, then reused

    def test_a_real_services_hits_match_its_responses(self, traced, ideal_dataset):
        service = MatchService.from_dataset(
            ideal_dataset, ServiceConfig(workers=1)
        ).start()
        recording = _RecordingService(service)
        server = _worker(recording)
        targets = ideal_dataset.sample_targets(3, seed=5)
        requests = [MatchRequest(targets=tuple(targets[:2]))] + [
            InvestigateRequest(eid=eid) for eid in targets
        ]
        try:
            for request in requests:
                for _round in range(3):  # the miss, the first hit, a later hit
                    reply, spans = _serve(server, request)
                    answer = recording.answers[-1]
                    if isinstance(answer, CacheHit):
                        response = answer.response()
                    else:
                        response = answer.result()
                    assert reply == _expected(response, spans)
                kinds = [isinstance(a, CacheHit) for a in recording.answers[-3:]]
                assert kinds == [False, True, True]
                assert recording.answers[-1].entry.body is not None
        finally:
            service.stop()


def _ask_untraced(server, request):
    """One request without a trace envelope through the worker: its
    answer, parsed; no span records ride back."""
    message = request_to_wire(request)
    answer, status, spans = server._handle_data(message, message["verb"])
    assert spans is None
    return json.loads(answer)


class TestUntracedWorker:
    """A request without a trace envelope: a result-cache hit opens no
    span, any other request runs under a ``worker.request`` span of a
    throwaway trace, and the worker's tracer keeps no span."""

    @pytest.fixture()
    def service(self, ideal_dataset):
        service = MatchService.from_dataset(
            ideal_dataset,
            ServiceConfig(
                workers=1,
                # Every miss is over the fixed threshold: an exemplar.
                worker_delay_s=0.002,
                slowlog=SlowLogConfig(threshold_s=0.001),
            ),
        ).start()
        yield service
        service.stop()

    def test_hits_open_no_span(self, counting_tracer, service, ideal_dataset):
        server = _worker(service)
        targets = ideal_dataset.sample_targets(2, seed=5)
        requests = [
            MatchRequest(targets=tuple(targets)),
            InvestigateRequest(eid=targets[0]),
        ]
        for request in requests:
            assert _ask_untraced(server, request)["cached"] is False
        assert counting_tracer.opened.count("worker.request") == 2
        counting_tracer.opened.clear()
        for _burst in range(50):
            for request in requests:
                assert _ask_untraced(server, request)["cached"] is True
        assert counting_tracer.opened == []
        assert counting_tracer.spans == []

    def test_mixed_burst_leaves_no_span(
        self, counting_tracer, service, ideal_dataset
    ):
        server = _worker(service)
        targets = ideal_dataset.sample_targets(8, seed=6)
        cached = []
        for i in range(200):
            if i % 3:
                pair = (targets[i % 8], targets[(i // 8) % 8])
                request = MatchRequest(targets=tuple(sorted(set(pair))))
            else:
                request = InvestigateRequest(eid=targets[(i // 3) % 8])
            answer = _ask_untraced(server, request)
            assert answer["status"] == STATUS_OK
            cached.append(answer["cached"])
        assert 0 < cached.count(False) < cached.count(True)
        assert "worker.request" in counting_tracer.opened
        assert counting_tracer.spans == []
        assert counting_tracer.roots == []

    def test_untraced_miss_keeps_its_exemplar(
        self, counting_tracer, service, ideal_dataset
    ):
        server = _worker(service)
        targets = ideal_dataset.sample_targets(2, seed=7)
        request = MatchRequest(targets=tuple(targets))
        assert _ask_untraced(server, request)["cached"] is False
        assert _ask_untraced(server, request)["cached"] is True
        records = service.slowlog()["records"]
        assert len(records) == 1  # the miss; a hit is never an exemplar
        record = records[0]
        assert record["trace_id"]
        assert record["spans"]["name"] == "service.execute"
        assert counting_tracer.spans == []


class TestRoutingKey:
    def test_match_key_is_order_insensitive(self):
        a = routing_key({"verb": "match", "targets": [3, 1], "algorithm": "ss"})
        b = routing_key({"verb": "match", "targets": [1, 3], "algorithm": "ss"})
        assert a == b

    def test_match_key_varies_with_algorithm(self):
        a = routing_key({"verb": "match", "targets": [1], "algorithm": "ss"})
        b = routing_key({"verb": "match", "targets": [1], "algorithm": "mwm"})
        assert a != b

    def test_investigate_keys_on_eid(self):
        assert routing_key({"verb": "investigate", "eid": 9}) == "eid:9"

    def test_other_verbs_key_on_verb(self):
        assert routing_key({"verb": "stats"}) == "verb:stats"
