"""Integration tests for the distributed observability plane.

One real 2-process fleet behind a gateway, with tracing and the event
log enabled end to end.  These are the ISSUE's acceptance demos:

* one merged Chrome trace per cluster request, gateway + worker spans
  under a single ``trace_id``;
* the ``metrics`` verb serves worker-labelled federated series from
  every live worker, and federated counters survive a kill+restart
  (delta re-basing);
* the SSE ``events`` verb streams worker-originated flight-recorder
  events, correlated by worker id;
* the ``profile`` verb merges per-worker sampling profiles into one
  collapsed/speedscope document spanning >= 2 worker processes;
* the ``slowlog`` verb merges worker slow-query exemplars, slowest
  first, tagged with the originating worker.
"""

import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterGateway,
    ClusterRouter,
    GatewayClient,
    Supervisor,
    SupervisorConfig,
    WorkerSpec,
)
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import EVDataset, build_dataset
from repro.datagen.io import save_dataset
from repro.obs import EventLog, MetricsRegistry, set_event_log, set_registry
from repro.obs.slowlog import SlowLogConfig
from repro.obs.tracing import (
    TraceContext,
    Tracer,
    inject_trace,
    new_trace_id,
    set_tracer,
)
from repro.sensing.scenarios import ScenarioStore
from repro.service.api import STATUS_OK
from repro.service.server import ServiceConfig

#: Workers beat telemetry fast so polling tests stay quick.
TELEMETRY_INTERVAL_S = 0.25


@dataclass
class ObsStack:
    supervisor: Supervisor
    router: ClusterRouter
    gateway: ClusterGateway
    dataset: EVDataset
    log: EventLog


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    log = EventLog()
    previous_log = set_event_log(log)
    previous_tracer = set_tracer(Tracer())
    # Fresh registry: earlier test modules' fleets leave worker-labelled
    # gateway counters behind, which would satisfy the federation waits
    # before this fleet's first snapshot lands.
    previous_registry = set_registry(MetricsRegistry())
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
    workdir: Path = tmp_path_factory.mktemp("obs-world")
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
                service=ServiceConfig(
                    workers=2,
                    queue_size=64,
                    # A small artificial service time plus a tiny fixed
                    # slowlog threshold: every request becomes a
                    # slow-query exemplar, so the slowlog verb has
                    # records to merge.
                    worker_delay_s=0.005,
                    slowlog=SlowLogConfig(threshold_s=0.001),
                ),
                telemetry_interval_s=TELEMETRY_INTERVAL_S,
                # Sample fast so profile samples land within a short
                # polling window.
                profile_hz=200.0,
            )
            for i in range(2)
        ],
        SupervisorConfig(ready_timeout_s=120.0),
    ).start()
    router = ClusterRouter(supervisor, replication=2, read_policy="first")
    gateway = ClusterGateway(router, supervisor).start()
    yield ObsStack(
        supervisor=supervisor,
        router=router,
        gateway=gateway,
        dataset=dataset,
        log=log,
    )
    gateway.drain(timeout=5.0)
    supervisor.stop()
    set_event_log(previous_log)
    set_tracer(previous_tracer)
    set_registry(previous_registry)


@pytest.fixture()
def client(stack):
    with GatewayClient(stack.gateway.host, stack.gateway.port) as c:
        yield c


def match_message(stack: ObsStack, seed: int, trace: bool = False) -> dict:
    """A match request; with ``trace``, it carries a trace envelope of
    its own: only requests that carry one are traced."""
    targets = stack.dataset.sample_targets(
        min(3, len(stack.dataset.eids)), seed=seed
    )
    message = {
        "verb": "match",
        "targets": [eid.index for eid in targets],
        "algorithm": "ss",
    }
    if trace:
        inject_trace(message, TraceContext(new_trace_id()))
    return message


def federated_total(text: str, family: str, worker: str = "") -> float:
    """Sum one family's samples in an exposition, optionally for one
    worker label."""
    total = 0.0
    for line in text.splitlines():
        if not line.startswith(family + "{"):
            continue
        if worker and f'worker="{worker}"' not in line:
            continue
        total += float(line.rsplit(" ", 1)[1])
    return total


class TestMergedTrace:
    def test_one_request_yields_one_cross_process_trace(self, stack, client):
        response = client.call(match_message(stack, seed=21, trace=True))
        assert response["status"] == STATUS_OK
        trace_id = response["trace_id"]
        assert trace_id
        assert "spans" not in response  # harvested by the router

        merged = client.merged_trace(trace_id)
        chrome = merged["chrome"]
        assert merged["trace_id"] == trace_id
        assert chrome["otherData"]["trace_id"] == trace_id

        spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert {"gateway.request", "cluster.request", "worker.request"} \
            <= names
        assert "service.execute" in names
        # Spans from at least two processes (gateway + a worker) ...
        assert len({e["pid"] for e in spans}) >= 2
        # ... all under the single trace id ...
        assert {e["args"]["trace_id"] for e in spans} == {trace_id}
        # ... forming one tree: every non-root parent id resolves.
        ids = {e["args"]["span_id"] for e in spans}
        roots = [e for e in spans if e["args"]["parent_span_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "gateway.request"
        for event in spans:
            parent = event["args"]["parent_span_id"]
            assert parent is None or parent in ids
        # Process metadata names the gateway and the worker.
        labels = {
            e["args"]["name"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M"
        }
        assert "gateway" in labels
        assert any(label.startswith("worker w") for label in labels)

    def test_each_request_gets_its_own_trace(self, stack, client):
        first = client.call(match_message(stack, seed=22, trace=True))
        second = client.call(match_message(stack, seed=23, trace=True))
        assert first["trace_id"] != second["trace_id"]
        assert (
            client.merged_trace(first["trace_id"])["trace_id"]
            == first["trace_id"]
        )


class TestMetricsFederationLive:
    def wait_for_workers_in_exposition(self, client, deadline_s=30.0):
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            text = client.metrics_text()
            if 'worker="w0"' in text and 'worker="w1"' in text:
                return text
            time.sleep(TELEMETRY_INTERVAL_S)
        pytest.fail("worker-labelled series never appeared in /metrics")

    def test_exposition_is_worker_labelled_and_header_deduped(
        self, stack, client
    ):
        assert client.call(match_message(stack, seed=31))["status"] == STATUS_OK
        text = self.wait_for_workers_in_exposition(client)
        # Worker-side families arrive labelled; gateway families stay.
        assert "ev_cluster_gateway_requests_total" in text
        assert federated_total(text, "service_requests_total") > 0
        helps = re.findall(r"# HELP (\S+)", text)
        assert len(helps) == len(set(helps)), sorted(
            h for h in helps if helps.count(h) > 1
        )

    def test_counters_survive_worker_restart(self, stack, client):
        # Establish telemetry from both workers, then some traffic.
        for seed in (41, 42, 43):
            assert (
                client.call(match_message(stack, seed=seed))["status"]
                == STATUS_OK
            )
        text = self.wait_for_workers_in_exposition(client)
        deadline = time.monotonic() + 30.0
        while federated_total(text, "service_requests_total") <= 0:
            assert time.monotonic() < deadline, "no requests federated"
            time.sleep(TELEMETRY_INTERVAL_S)
            text = client.metrics_text()
        before_total = federated_total(text, "service_requests_total")

        victim = stack.supervisor.worker("w0")
        pid_before = victim.pid
        victim.kill()
        # Wait for the supervisor to restart it and for the new
        # generation's first telemetry beat to land.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            stats = client.stats()
            summary = stats["telemetry"]["workers"].get("w0", {})
            if (
                stats["workers"]["w0"]["state"] == "ready"
                and stats["workers"]["w0"]["pid"] != pid_before
                and summary.get("pid") == stats["workers"]["w0"]["pid"]
            ):
                break
            time.sleep(TELEMETRY_INTERVAL_S)
        else:
            pytest.fail("restarted worker never re-reported telemetry")

        # Delta re-basing: the fresh process restarted its counters at
        # zero, but the federated view must never go backward.
        text = client.metrics_text()
        assert 'worker="w0"' in text
        after_total = federated_total(text, "service_requests_total")
        assert after_total >= before_total
        # And new traffic keeps the federated counter rising.
        assert client.call(match_message(stack, seed=44))["status"] == STATUS_OK
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            grown = federated_total(
                client.metrics_text(), "service_requests_total"
            )
            if grown > after_total:
                break
            time.sleep(TELEMETRY_INTERVAL_S)
        else:
            pytest.fail("federated counter never advanced after restart")


class TestClusterEventStream:
    def test_sse_streams_worker_originated_events(self, stack, client):
        received = []

        def tail():
            with GatewayClient(
                stack.gateway.host, stack.gateway.port
            ) as tail_client:
                for event_type, event in tail_client.stream_events(
                    types=["match.provenance"],
                    max_events=1,
                    timeout_s=60.0,
                ):
                    received.append((event_type, event))

        thread = threading.Thread(target=tail)
        thread.start()
        time.sleep(0.5)  # let the subscriber pass the backlog
        # A fresh (uncached) match makes a worker emit provenance
        # events; the next beat ships them to the gateway's log.
        response = client.call(match_message(stack, seed=51))
        assert response["status"] == STATUS_OK
        thread.join(timeout=60.0)
        assert received, "no worker event reached the SSE stream"
        event_type, event = received[0]
        assert event_type == "match.provenance"
        assert event["fields"]["worker"] in {"w0", "w1"}
        assert event.get("origin_seq") is not None

    def test_cluster_profile_spans_at_least_two_workers(self, stack, client):
        """Acceptance demo: the ``profile`` verb returns one merged
        flamegraph whose stacks come from >= 2 worker processes."""
        deadline = time.monotonic() + 30.0
        seed = 61
        while True:
            # Keep the workers busy so the 200 Hz samplers land stacks.
            for _ in range(4):
                seed += 1
                assert (
                    client.call(match_message(stack, seed=seed))["status"]
                    == STATUS_OK
                )
            profile = client.merged_profile()
            sampled = [
                worker_id
                for worker_id in profile["workers"]
                if f"worker={worker_id};" in profile["collapsed"]
            ]
            if len(sampled) >= 2:
                break
            assert time.monotonic() < deadline, (
                f"merged profile never spanned 2 workers; "
                f"sampled={sampled} samples={profile['samples']}"
            )
            time.sleep(0.2)

        assert profile["status"] == STATUS_OK
        assert {"w0", "w1"} <= set(profile["workers"])
        assert profile["samples"] > 0
        # Every collapsed line is worker-rooted with a positive count.
        for line in profile["collapsed"].splitlines():
            stack_part, _, count = line.rpartition(" ")
            assert stack_part.startswith("worker=")
            assert int(count) > 0
        # The speedscope document carries one profile per worker, all
        # indexing one shared frame table.
        doc = profile["speedscope"]
        names = {p["name"] for p in doc["profiles"]}
        assert len(names) == len(doc["profiles"]) >= 2
        frames = doc["shared"]["frames"]
        for worker_profile in doc["profiles"]:
            for sample in worker_profile["samples"]:
                assert all(0 <= i < len(frames) for i in sample)

    def test_cluster_slowlog_merges_worker_exemplars(self, stack, client):
        for seed in (71, 72, 73):
            assert (
                client.call(match_message(stack, seed=seed))["status"]
                == STATUS_OK
            )
        payload = client.slowlog(limit=8)
        assert payload["status"] == STATUS_OK
        # Per-worker policy envelopes (records stripped).
        assert {"w0", "w1"} <= set(payload["workers"])
        for summary in payload["workers"].values():
            assert summary["mode"] == "fixed"
            assert summary["threshold_s"] == pytest.approx(0.001)
            assert "records" not in summary
        # The fixture's worker_delay_s guarantees every request was an
        # exemplar; merged records arrive slowest-first, worker-tagged.
        records = payload["records"]
        assert records
        assert len(records) <= 8
        latencies = [r["latency_s"] for r in records]
        assert latencies == sorted(latencies, reverse=True)
        for record in records:
            assert record["worker"] in {"w0", "w1"}
            assert record["endpoint"] == "match"
            assert record["latency_s"] >= record["threshold_s"]
            assert record["trace_id"]  # joins against merged traces
            assert record["backend_label"]
            assert record["spans"]["name"] == "service.execute"

    def test_stats_exposes_per_worker_telemetry_summaries(
        self, stack, client
    ):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            telemetry = client.stats()["telemetry"]
            workers = telemetry["workers"]
            if {"w0", "w1"} <= set(workers):
                break
            time.sleep(TELEMETRY_INTERVAL_S)
        else:
            pytest.fail("telemetry summaries never covered the fleet")
        for summary in workers.values():
            assert summary["backend"]
            assert summary["lag_s"] < 30.0
            assert "p99_ms" in summary
