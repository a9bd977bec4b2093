"""Gateway tests: the NDJSON TCP surface, SSE streaming, and drain.

One small fleet (2 worker processes) is shared module-wide; each test
gets its own gateway (cheap: a thread and an ephemeral port), so the
drain test can tear one down without starving its neighbours.
"""

import asyncio
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterGateway,
    ClusterRouter,
    GatewayClient,
    GatewayError,
    Supervisor,
    SupervisorConfig,
    WorkerSpec,
)
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import EVDataset, build_dataset
from repro.datagen.io import save_dataset
from repro.obs import EventLog, set_event_log
from repro.sensing.scenarios import ScenarioStore
from repro.service.api import (
    STATUS_OK,
    STATUS_SHED,
    IngestTickRequest,
    InvestigateRequest,
    MatchRequest,
)
from repro.service.loadgen import LoadConfig, run_load_socket
from repro.service.server import ServiceConfig


@dataclass
class GatewayStack:
    supervisor: Supervisor
    router: ClusterRouter
    path: Path
    dataset: EVDataset
    arriving: list
    targets: list
    log: EventLog


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    log = EventLog()
    previous = set_event_log(log)
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
    full = dataset.store
    ticks = list(full.ticks)
    cutoff = ticks[int(len(ticks) * 0.7)]
    standing = ScenarioStore(
        [full.get(k) for k in full.keys if k.tick <= cutoff]
    )
    arriving = [full.get(k) for k in full.keys if k.tick > cutoff]
    workdir: Path = tmp_path_factory.mktemp("gateway-world")
    path = save_dataset(
        EVDataset(
            config=config,
            population=dataset.population,
            grid=dataset.grid,
            traces=None,
            store=standing,
        ),
        workdir / "world.npz",
    )
    supervisor = Supervisor(
        [
            WorkerSpec(
                worker_id=f"w{i}",
                dataset_path=str(path),
                journal_path=str(workdir / f"w{i}.journal.jsonl"),
                service=ServiceConfig(workers=2, queue_size=64),
            )
            for i in range(2)
        ],
        SupervisorConfig(ready_timeout_s=120.0),
    ).start()
    router = ClusterRouter(supervisor, replication=2, read_policy="first")
    yield GatewayStack(
        supervisor=supervisor,
        router=router,
        path=path,
        dataset=dataset,
        arriving=arriving,
        targets=list(dataset.sample_targets(3, seed=2)),
        log=log,
    )
    supervisor.stop()
    set_event_log(previous)


@pytest.fixture()
def gateway(stack):
    gw = ClusterGateway(stack.router, stack.supervisor).start()
    yield gw
    gw.drain(timeout=5.0)


@pytest.fixture()
def client(gateway):
    with GatewayClient(gateway.host, gateway.port) as c:
        yield c


class TestLocalVerbs:
    def test_ping(self, client, gateway):
        assert client.ping()

    def test_health_reports_cluster_availability(self, client):
        response = client.call({"verb": "health"})
        assert response["workers_available"] == 2
        assert response["workers_total"] == 2
        assert response["degraded"] is False
        assert client.health().window_s > 0

    def test_stats_snapshot(self, client):
        stats = client.stats()
        assert stats["status"] == STATUS_OK
        assert set(stats["workers"]) == {"w0", "w1"}
        assert all(
            worker["state"] == "ready" for worker in stats["workers"].values()
        )
        assert stats["routing"]["replication"] == 2
        assert stats["routing"]["read_policy"] == "first"
        assert stats["draining"] is False

    def test_metrics_exposition(self, client):
        client.ping()  # ensure at least one gateway request is counted
        text = client.metrics_text()
        assert "ev_cluster_gateway_requests_total" in text
        assert "ev_cluster_workers_available" in text

    def test_unknown_verb_is_an_error_not_a_hangup(self, client):
        response = client.call({"verb": "frobnicate"})
        assert response["status"] == "error"
        # connection survives: next call still works
        assert client.ping()

    def test_garbage_line_closes_connection_with_error(self, gateway):
        import socket

        with socket.create_connection(
            (gateway.host, gateway.port), timeout=10
        ) as sock:
            sock.sendall(b"this is not json\n")
            reply = sock.makefile("rb").readline()
        assert b'"error"' in reply


class TestDataPlane:
    def test_match_over_the_wire(self, stack, client):
        response = client.submit(
            MatchRequest(targets=tuple(stack.targets))
        ).result(timeout=30)
        assert response.status == STATUS_OK
        assert set(response.matches) == set(stack.targets)

    def test_investigate_over_the_wire(self, stack, client):
        response = client.submit(
            InvestigateRequest(eid=stack.targets[0], min_shared=2)
        ).result(timeout=30)
        assert response.status == STATUS_OK
        assert response.eid == stack.targets[0]
        assert response.num_scenarios > 0

    def test_ingest_broadcasts_and_deduplicates(self, stack, client):
        batch = tuple(stack.arriving[:4])
        first = client.submit(IngestTickRequest(scenarios=batch)).result(
            timeout=30
        )
        assert first.status == STATUS_OK
        assert first.ingested == 4
        duplicate = client.submit(IngestTickRequest(scenarios=batch)).result(
            timeout=30
        )
        assert duplicate.status == STATUS_OK
        assert duplicate.ingested == 0

    def test_cache_affinity_repeats_land_on_one_worker(self, stack, client):
        message = {
            "verb": "match",
            "targets": [eid.index for eid in stack.targets],
            "algorithm": "ss",
        }
        workers = {client.call(message)["worker"] for _ in range(5)}
        assert len(workers) == 1  # consistent hashing pins the key

    def test_quorum_policy_answers_with_agreement(self, stack, client):
        # Use targets no earlier test queried: both replicas compute
        # fresh (no warm cache), and deterministic builds of one world
        # must produce byte-identical payloads.
        fresh = [eid.index for eid in stack.dataset.sample_targets(2, seed=77)]
        stack.router.read_policy = "quorum"
        try:
            response = client.call(
                {"verb": "match", "targets": fresh, "algorithm": "ss"}
            )
            assert response["status"] == STATUS_OK
            assert response["responders"] == 2
            assert response["quorum"] == 2
        finally:
            stack.router.read_policy = "first"

    def test_quorum_detects_stale_replica_disagreement(self, stack, client):
        """The disagreement counter catches replica divergence.

        The service's cache-invalidation rule drops entries whose
        tagged EIDs appear in new scenarios' E-records; an ingest can
        still shift a cached answer through window coupling without
        naming the entry's targets.  Warm exactly one replica, ingest
        such a batch, and a quorum read sees stale-vs-fresh payloads:
        the read still answers, and the divergence is counted.
        """
        from repro.obs import get_registry
        from repro.stream.checkpoint import scenario_to_json

        message = {
            "verb": "match",
            "targets": [eid.index for eid in stack.targets],
            "algorithm": "ss",
        }
        # Warm only the preferred replica's cache.
        assert client.call(message)["status"] == STATUS_OK
        # Ingest a batch that does not name the cached targets (so the
        # invalidation rule leaves the warm entry in place).
        ingest = client.call(
            {
                "verb": "ingest",
                "scenarios": [
                    scenario_to_json(s) for s in stack.arriving[4:8]
                ],
            }
        )
        assert ingest["status"] == STATUS_OK
        counter = get_registry().counter(
            "ev_cluster_quorum_disagreements_total",
            "Quorum reads where replicas returned differing payloads",
        )
        before = counter.total()
        stack.router.read_policy = "quorum"
        try:
            response = client.call(message)
        finally:
            stack.router.read_policy = "first"
        # The read is still answered either way ...
        assert response["status"] == STATUS_OK
        assert response["responders"] == 2
        # ... and if the stale cache made the replicas diverge, the
        # disagreement was detected and counted, not papered over.
        if response["quorum"] < 2:
            assert counter.total() == before + 1


class TestEventStream:
    def test_sse_backlog_and_filter(self, stack, gateway):
        # The module log may hold started-events from earlier gateways;
        # stream the whole backlog of that type — the last is ours.
        backlog = len(
            [
                event
                for event in stack.log.events()
                if event["type"] == "cluster.gateway.started"
            ]
        )
        assert backlog >= 1
        with GatewayClient(gateway.host, gateway.port) as tail:
            pairs = list(
                tail.stream_events(
                    types=["cluster.gateway.started"],
                    max_events=backlog,
                    timeout_s=15.0,
                )
            )
        assert len(pairs) == backlog
        assert all(t == "cluster.gateway.started" for t, _ in pairs)
        assert pairs[-1][1]["fields"]["port"] == gateway.port

    def test_sse_delivers_live_events(self, stack, gateway):
        received = []

        def tail():
            with GatewayClient(gateway.host, gateway.port) as tail_client:
                for event_type, _ in tail_client.stream_events(
                    types=["cluster.route.failover"],
                    max_events=1,
                    timeout_s=15.0,
                ):
                    received.append(event_type)

        thread = threading.Thread(target=tail)
        thread.start()
        time.sleep(0.3)  # let the subscriber catch up to the backlog
        stack.log.emit("cluster.route.failover", verb="match", worker="w9")
        thread.join(timeout=15.0)
        assert received == ["cluster.route.failover"]


    def test_sse_streams_an_event_emitted_during_a_poll(self, gateway):
        """An event emitted while a poll copies the ring is streamed on
        the next poll, never skipped."""

        class RacingLog(EventLog):
            raced = False

            def events(self, type=None):
                snapshot = super().events(type)
                if not self.raced:
                    self.raced = True
                    self.emit("cluster.route.failover", worker="racer")
                return snapshot

        previous = set_event_log(RacingLog())
        try:
            with GatewayClient(gateway.host, gateway.port) as tail:
                # Under the 1 s keepalive: a skipped event ends the
                # stream empty instead of idling forever.
                pairs = list(
                    tail.stream_events(
                        types=["cluster.route.failover"],
                        max_events=1,
                        timeout_s=0.9,
                    )
                )
        finally:
            set_event_log(previous)
        assert [event["fields"]["worker"] for _t, event in pairs] == ["racer"]


class TestHungWorker:
    def test_hung_worker_does_not_stall_the_gateway(self, stack):
        timeout_s = 1.0
        supervisor = Supervisor(
            [
                WorkerSpec(
                    worker_id=f"h{i}",
                    dataset_path=str(stack.path),
                    service=ServiceConfig(workers=2, queue_size=64),
                )
                for i in range(2)
            ],
            # The heartbeat bound is far off: the request timeout, not
            # the hang detector, must be what frees the gateway.
            SupervisorConfig(
                request_timeout_s=timeout_s,
                heartbeat_timeout_s=120.0,
                ready_timeout_s=120.0,
            ),
        ).start()
        router = ClusterRouter(supervisor, replication=2)
        gateway = ClusterGateway(router, supervisor).start()
        message = {
            "verb": "match",
            "targets": [eid.index for eid in stack.targets],
            "algorithm": "ss",
        }
        victim = router.replicas_for(message)[0]
        pid = supervisor.worker(victim).pid
        try:
            os.kill(pid, signal.SIGSTOP)
            with GatewayClient(gateway.host, gateway.port) as data, \
                    GatewayClient(gateway.host, gateway.port) as control:
                outcome = {}

                def ask():
                    started = time.monotonic()
                    outcome["response"] = data.call(message)
                    outcome["elapsed"] = time.monotonic() - started

                thread = threading.Thread(target=ask)
                thread.start()
                time.sleep(0.2)  # the match now waits on the stopped worker
                started = time.monotonic()
                assert control.ping()
                assert control.call({"verb": "health"})["workers_total"] == 2
                assert time.monotonic() - started < timeout_s / 2
                thread.join(timeout=timeout_s + 30.0)
                response = outcome["response"]
                assert response["status"] == STATUS_OK, response
                assert response["worker"] != victim
                assert response["failovers"] == 1
                assert outcome["elapsed"] < timeout_s + 2.0

                # With one replica there is nothing to fail over to: the
                # client gets an error reply, not a hang.
                router.replication = 1
                started = time.monotonic()
                response = data.call(message)
                assert response["status"] == "error", response
                assert time.monotonic() - started < timeout_s + 2.0
        finally:
            os.kill(pid, signal.SIGCONT)
            gateway.drain(timeout=5.0)
            supervisor.stop()


class TestLoadgenSocketMode:
    def test_run_load_socket_end_to_end(self, stack, gateway):
        report = run_load_socket(
            gateway.host,
            gateway.port,
            stack.targets,
            LoadConfig(
                num_clients=3,
                requests_per_client=5,
                pool_size=4,
                targets_per_request=2,
                investigate_fraction=0.25,
                seed=3,
            ),
        )
        assert report.issued == 15
        assert report.ok == 15
        assert report.errors == 0
        assert len(report.latencies_s) == 15
        # health() is the gateway's verdict, proving the duck worked
        assert report.final_health is not None


class TestDrain:
    def test_draining_sheds_new_work_but_keeps_control_plane(
        self, stack, gateway, client
    ):
        gateway.draining = True
        try:
            response = client.call(
                {
                    "verb": "match",
                    "targets": [stack.targets[0].index],
                    "algorithm": "ss",
                }
            )
            assert response["status"] == STATUS_SHED
            assert client.ping()  # control plane still answers
            assert client.stats()["draining"] is True
        finally:
            gateway.draining = False
        recovered = client.submit(
            MatchRequest(targets=(stack.targets[0],))
        ).result(timeout=30)
        assert recovered.status == STATUS_OK

    def test_drain_waits_for_inflight_requests(
        self, stack, gateway, monkeypatch
    ):
        real_dispatch = stack.router.dispatch

        async def slow_dispatch(message):
            await asyncio.sleep(0.5)
            return await real_dispatch(message)

        monkeypatch.setattr(stack.router, "dispatch", slow_dispatch)
        results = []

        def issue():
            with GatewayClient(gateway.host, gateway.port) as c:
                results.append(
                    c.submit(MatchRequest(targets=(stack.targets[0],))).result(
                        timeout=30
                    )
                )

        thread = threading.Thread(target=issue)
        thread.start()
        time.sleep(0.2)  # the request is accepted and in flight
        summary = gateway.drain(timeout=10.0)
        thread.join(timeout=30.0)
        # drain blocked until the in-flight request resolved ...
        assert summary == {"drained": True, "inflight": 0}
        # ... and the accepted request was answered, not abandoned
        assert len(results) == 1
        assert results[0].status == STATUS_OK
        drained = [
            event
            for event in stack.log.events()
            if event["type"] == "cluster.gateway.drained"
        ]
        assert drained[-1]["fields"]["inflight_abandoned"] == 0

    def test_drained_gateway_refuses_new_connections(self, stack):
        gateway = ClusterGateway(stack.router, stack.supervisor).start()
        gateway.drain(timeout=5.0)
        with pytest.raises((GatewayError, OSError)):
            with GatewayClient(gateway.host, gateway.port, timeout_s=2.0) as c:
                c.ping()
