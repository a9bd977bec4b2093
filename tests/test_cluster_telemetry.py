"""Unit tests for the cluster observability plane.

Everything here runs in one process with fakes — the companion
integration file (``test_cluster_observability.py``) proves the same
flows over real worker processes.  Covered:

* trace-envelope round-trips through both wire protocols;
* federation re-basing across worker restarts, and the invariant that
  the federated counter equals the sum of the per-worker counters
  (property-based);
* trace-id preservation through ``first``-mode failover and quorum
  fan-out (fake supervisor);
* event shipping loss accounting (ring falloff, per-collect cap) and
  the ``ev_obs_events_dropped_total`` ring-overwrite counter;
* the ``# HELP``/``# TYPE`` dedup regression in
  ``MatchService.metrics_text()``.
"""

import asyncio
import re
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.protocol import (
    decode_line,
    encode_line,
    encode_reply,
    read_reply,
    recv_frame,
    send_frame,
)
from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import WorkerError
from repro.cluster.telemetry import (
    TRACES_EVICTED_METRIC,
    ClusterTelemetry,
    MetricsFederation,
    TraceCollector,
)
from repro.obs.events import (
    EVENTS_DROPPED_METRIC,
    SHIP_LAG_METRIC,
    EventLog,
    EventShipper,
    set_event_log,
)
from repro.obs.registry import (
    MetricsRegistry,
    get_registry,
    merge_expositions,
    set_registry,
)
from repro.obs.tracing import (
    TRACE_KEY,
    TraceContext,
    Tracer,
    extract_trace,
    inject_trace,
    new_trace_id,
    set_tracer,
)


@pytest.fixture()
def fresh_obs():
    """Isolated registry + tracer + event log for one test."""
    registry = MetricsRegistry()
    previous_registry = set_registry(registry)
    tracer = Tracer()
    previous_tracer = set_tracer(tracer)
    log = EventLog()
    previous_log = set_event_log(log)
    yield registry, tracer, log
    set_registry(previous_registry)
    set_tracer(previous_tracer)
    set_event_log(previous_log)


class TestTraceEnvelope:
    def test_round_trip_over_frames(self):
        ctx = TraceContext(new_trace_id(), parent_span_id=42)
        message = {"verb": "match", "targets": [1, 2]}
        inject_trace(message, ctx)
        parent, child = socket.socketpair()
        try:
            send_frame(parent, message)
            received = recv_frame(child)
        finally:
            parent.close()
            child.close()
        assert extract_trace(received) == ctx
        assert received["verb"] == "match"

    def test_round_trip_over_ndjson(self):
        ctx = TraceContext(new_trace_id())
        message = {"verb": "investigate", "eid": 7}
        inject_trace(message, ctx)
        assert extract_trace(decode_line(encode_line(message))) == ctx

    def test_malformed_envelope_is_ignored(self):
        assert extract_trace({"verb": "match"}) is None
        assert extract_trace({TRACE_KEY: "not a dict"}) is None
        assert extract_trace({TRACE_KEY: {"parent_span_id": 3}}) is None

    def test_codec_decoders_tolerate_the_envelope(self):
        from repro.cluster.codec import request_from_wire

        message = {"verb": "match", "targets": [1], "algorithm": "ss"}
        inject_trace(message, TraceContext(new_trace_id(), 5))
        request = request_from_wire(message)
        assert [eid.index for eid in request.targets] == [1]


class TestMetricsFederation:
    def test_worker_label_and_single_headers(self):
        fed = MetricsFederation()
        for wid, value in (("w0", 3.0), ("w1", 4.0)):
            registry = MetricsRegistry()
            registry.counter("ev_x_total", "x").inc(value, verb="match")
            fed.update(wid, generation=1, state=registry.export_state())
        text = fed.render()
        assert text.count("# HELP ev_x_total") == 1
        assert text.count("# TYPE ev_x_total") == 1
        assert 'worker="w0"' in text and 'worker="w1"' in text
        assert fed.counter_value("ev_x_total") == 7.0

    def test_restart_rebases_counters(self):
        fed = MetricsFederation()
        registry = MetricsRegistry()
        registry.counter("ev_x_total", "x").inc(5)
        fed.update("w0", generation=100, state=registry.export_state())
        # Restart: new pid, counter restarts from zero then reaches 2.
        restarted = MetricsRegistry()
        restarted.counter("ev_x_total", "x").inc(2)
        fed.update("w0", generation=200, state=restarted.export_state())
        assert fed.counter_value("ev_x_total") == 7.0
        # The next beat of the same generation is cumulative, not added.
        restarted.counter("ev_x_total", "x").inc(1)
        fed.update("w0", generation=200, state=restarted.export_state())
        assert fed.counter_value("ev_x_total") == 8.0

    def test_restart_rebases_histograms_and_replaces_gauges(self):
        fed = MetricsFederation()
        registry = MetricsRegistry()
        registry.histogram("h_seconds", "h").observe(0.01)
        registry.gauge("g", "g").set(5.0)
        fed.update("w0", generation=1, state=registry.export_state())
        restarted = MetricsRegistry()
        restarted.histogram("h_seconds", "h").observe(0.02)
        restarted.gauge("g", "g").set(2.0)
        fed.update("w0", generation=2, state=restarted.export_state())
        text = fed.render()
        count_line = next(
            line for line in text.splitlines()
            if line.startswith("h_seconds_count")
        )
        assert count_line.endswith(" 2")  # both generations' observations
        assert fed.counter_value("g") == 2.0  # gauge: current only

    @settings(max_examples=50, deadline=None)
    @given(
        per_worker=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_federated_counter_is_sum_of_workers(self, per_worker):
        """Across arbitrary restart histories, the federated total is
        the sum of every increment any worker generation ever made."""
        fed = MetricsFederation()
        expected_total = 0.0
        for index, generations in enumerate(per_worker):
            wid = f"w{index}"
            expected_worker = 0.0
            for generation, value in enumerate(generations):
                registry = MetricsRegistry()
                registry.counter("ev_total", "t").inc(value)
                fed.update(wid, generation, registry.export_state())
                expected_worker += value
            assert fed.counter_value("ev_total", wid) == pytest.approx(
                expected_worker
            )
            expected_total += expected_worker
        assert fed.counter_value("ev_total") == pytest.approx(expected_total)
        assert fed.counter_value("ev_total") == pytest.approx(
            sum(fed.counter_value("ev_total", wid) for wid in fed.workers())
        )


class TestTraceCollector:
    @staticmethod
    def record(span_id, trace_id, pid=1, parent=None, ts=1000.0):
        return {
            "name": "worker.request",
            "span_id": span_id,
            "parent_span_id": parent,
            "trace_id": trace_id,
            "ts_us": ts,
            "dur_us": 10.0,
            "pid": pid,
            "tid": 0,
            "args": {"verb": "match"},
        }

    def test_merged_chrome_trace_shape(self):
        collector = TraceCollector()
        tid = new_trace_id()
        collector.add_records(
            tid, [self.record(1, tid, pid=10, ts=2000.0)], label="gateway"
        )
        collector.add_records(
            tid,
            [self.record(2, tid, pid=20, parent=1, ts=2500.0)],
            label="worker w0",
        )
        chrome = collector.chrome_trace(tid)
        assert chrome["otherData"]["trace_id"] == tid
        x = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        assert {e["pid"] for e in x} == {10, 20}
        assert {e["args"]["name"] for e in meta} == {"gateway", "worker w0"}
        # Timestamps re-based to the trace's earliest span.
        assert min(e["ts"] for e in x) == 0.0
        assert all(e["args"]["trace_id"] == tid for e in x)

    def test_lru_eviction_is_bounded(self):
        collector = TraceCollector(max_traces=2)
        ids = [new_trace_id() for _ in range(3)]
        for tid in ids:
            collector.add_records(tid, [self.record(1, tid)])
        assert collector.trace_ids() == ids[1:]
        assert collector.chrome_trace(ids[0]) is None
        assert collector.latest_trace_id() == ids[-1]
        assert collector.evicted["lru"] == 1

    def test_abandoned_traces_age_out(self, fresh_obs):
        """A trace that stops receiving records must not pin the store
        forever on a quiet gateway: the age sweep drops it and the
        eviction is counted by reason."""
        registry, _tracer, _log = fresh_obs
        clock = [0.0]
        collector = TraceCollector(
            max_traces=8, max_age_s=10.0, clock=lambda: clock[0]
        )
        abandoned, live = new_trace_id(), new_trace_id()
        collector.add_records(abandoned, [self.record(1, abandoned)])
        clock[0] = 6.0
        collector.add_records(live, [self.record(2, live)])
        # Touching a trace refreshes its age: at t=12 `live` (touched
        # at 6) survives, `abandoned` (touched at 0) is past 10s.
        clock[0] = 12.0
        assert collector.evict_stale() == 1
        assert collector.trace_ids() == [live]
        assert collector.chrome_trace(abandoned) is None
        assert collector.evicted == {"lru": 0, "age": 1}
        metric = registry.counter(TRACES_EVICTED_METRIC, "")
        assert metric.total() == 1
        # Idempotent: nothing else is old enough.
        assert collector.evict_stale() == 0

    def test_age_sweep_runs_on_add_records(self):
        clock = [0.0]
        collector = TraceCollector(
            max_traces=8, max_age_s=10.0, clock=lambda: clock[0]
        )
        stale = new_trace_id()
        collector.add_records(stale, [self.record(1, stale)])
        clock[0] = 30.0
        fresh = new_trace_id()
        collector.add_records(fresh, [self.record(2, fresh)])
        assert collector.trace_ids() == [fresh]
        assert collector.evicted["age"] == 1

    def test_explicit_now_overrides_the_clock(self):
        collector = TraceCollector(max_traces=8, max_age_s=10.0)
        tid = new_trace_id()
        collector.add_records(tid, [self.record(1, tid)])
        assert collector.evict_stale() == 0
        assert collector.evict_stale(now=time.monotonic() + 60.0) == 1
        assert collector.trace_ids() == []

    def test_describe_triggers_the_sweep(self):
        clock = [0.0]
        telemetry = ClusterTelemetry()
        telemetry.traces = TraceCollector(
            max_traces=8, max_age_s=10.0, clock=lambda: clock[0]
        )
        tid = new_trace_id()
        telemetry.traces.add_records(tid, [self.record(1, tid)])
        clock[0] = 30.0
        described = telemetry.describe()
        assert described["traces"] == 0
        assert telemetry.traces.evicted["age"] == 1


class _FakeHandle:
    """Scripted worker: a list of wire replies / WorkerError to raise."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    async def exchange(self, message):
        self.requests.append(message)
        outcome = self.outcomes.pop(0) if self.outcomes else WorkerError("dry")
        if isinstance(outcome, Exception):
            raise outcome
        reader = asyncio.StreamReader()
        reader.feed_data(outcome)
        reader.feed_eof()
        return await read_reply(reader)


class _FakeSupervisor:
    def __init__(self, handles):
        self.workers = dict(handles)
        self.worker_ids = list(handles)
        self.on_worker_ready = None

    def available(self):
        return list(self.workers)

    def worker(self, worker_id):
        return self.workers[worker_id]


def _worker_response(trace_id, span_id):
    """A traced worker's wire reply: the answer, with its span records
    in the trailer."""
    return encode_reply(
        b'{"verb":"match","status":"ok","matches":{}}',
        "ok",
        [TestTraceCollector.record(span_id, trace_id, pid=100 + span_id)],
    )


class TestRouterTracePreservation:
    def test_failover_keeps_the_trace_id(self, fresh_obs):
        """A dead first replica must not re-mint the trace: the retry
        carries the same envelope and the survivor's spans land in the
        collector under the original id."""
        trace_id = new_trace_id()
        handles = {"w0": _FakeHandle([]), "w1": _FakeHandle([])}
        supervisor = _FakeSupervisor(handles)
        collector = TraceCollector()
        router = ClusterRouter(
            supervisor, replication=2, trace_collector=collector
        )
        message = {"verb": "match", "targets": [1], "algorithm": "ss"}
        inject_trace(message, TraceContext(trace_id))
        # Script by ring order: the preferred replica dies, the next
        # one answers.
        first, second = router.replicas_for(message)
        handles[first].outcomes = [WorkerError("boom")]
        handles[second].outcomes = [_worker_response(trace_id, 1)]
        response = asyncio.run(router.dispatch(message))
        assert response["status"] == "ok"
        assert response["failovers"] == 1
        assert response["trace_id"] == trace_id
        assert "spans" not in response  # harvested, not leaked inline
        assert collector.trace_ids() == [trace_id]
        # Both attempts saw the same envelope.
        sent = [h.requests[0] for h in handles.values()]
        assert all(
            extract_trace(m).trace_id == trace_id for m in sent
        )

    def test_quorum_harvests_every_replica_and_still_agrees(self, fresh_obs):
        """Replica span records differ per replica; they must be popped
        before the digest so tracing cannot cause disagreement."""
        registry, _tracer, _log = fresh_obs
        trace_id = new_trace_id()
        handles = {
            "w0": _FakeHandle([_worker_response(trace_id, 1)]),
            "w1": _FakeHandle([_worker_response(trace_id, 2)]),
        }
        supervisor = _FakeSupervisor(handles)
        collector = TraceCollector()
        router = ClusterRouter(
            supervisor,
            replication=2,
            read_policy="quorum",
            trace_collector=collector,
        )
        message = {"verb": "match", "targets": [1], "algorithm": "ss"}
        inject_trace(message, TraceContext(trace_id))
        response = asyncio.run(router.dispatch(message))
        assert response["status"] == "ok"
        assert response["quorum"] == 2  # differing spans did not split the vote
        assert response["trace_id"] == trace_id
        chrome = collector.chrome_trace(trace_id)
        x = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in x} == {101, 102}  # both replicas folded
        disagreements = registry.counter(
            "ev_cluster_quorum_disagreements_total",
            "Quorum reads where replicas returned differing payloads",
        )
        assert disagreements.total() == 0


class TestEventShipping:
    def test_ring_overwrite_increments_dropped_counter(self, fresh_obs):
        registry, _tracer, _log = fresh_obs
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("service.request.shed", i=i)
        counter = registry.counter(EVENTS_DROPPED_METRIC, "")
        assert counter.total() == 6
        assert log.dropped == 6

    def test_shipper_counts_ring_falloff_and_cap(self, fresh_obs):
        log = EventLog(capacity=4)
        shipper = EventShipper(log, max_per_collect=3)
        log.emit("service.request.shed", i=0)
        fresh, dropped = shipper.collect()
        assert (len(fresh), dropped) == (1, 0)
        # Overrun the ring between collects: 6 events into capacity 4.
        for i in range(6):
            log.emit("service.request.shed", i=i)
        fresh, dropped = shipper.collect()
        # 2 fell off the ring, 1 more shed by the per-collect cap.
        assert len(fresh) == 3
        assert dropped == 3
        assert shipper.shipped == 4
        assert shipper.dropped == 3

    def test_ship_lag_gauge_tracks_per_collect_backlog(self, fresh_obs):
        """``ev_obs_ship_lag`` exposes how far each collect ran behind
        its per-beat budget — the signal for tuning
        ``--events-per-beat`` — and falls back to zero when a beat
        keeps up."""
        registry, _tracer, _log = fresh_obs
        log = EventLog(capacity=64)
        shipper = EventShipper(log, max_per_collect=3)
        gauge = registry.gauge(SHIP_LAG_METRIC, "")
        for i in range(8):
            log.emit("service.request.shed", i=i)
        fresh, dropped = shipper.collect()
        # 8 fresh against a budget of 3: 5 behind, all capped ones shed.
        assert (len(fresh), dropped) == (3, 5)
        assert shipper.lag == 5
        assert gauge.value() == 5
        log.emit("service.request.shed", i=99)
        fresh, dropped = shipper.collect()
        assert (len(fresh), dropped) == (1, 0)
        assert shipper.lag == 0
        assert gauge.value() == 0

    def test_telemetry_beat_adopts_events_and_counts_loss(self, fresh_obs):
        registry, _tracer, log = fresh_obs
        telemetry = ClusterTelemetry()
        remote = EventLog()
        remote.emit("service.request.shed", endpoint="match")
        telemetry.on_telemetry(
            "w0",
            {
                "pid": 4242,
                "metrics": {"metrics": []},
                "events": remote.events(),
                "events_dropped": 2,
                "summary": {"backend": "bitset"},
            },
        )
        adopted = [e for e in log.events() if e.get("origin_seq") is not None]
        assert len(adopted) == 1
        assert adopted[0]["fields"]["worker"] == "w0"
        assert adopted[0]["type"] == "service.request.shed"
        shipped_dropped = registry.counter(
            "ev_cluster_events_ship_dropped_total", ""
        )
        assert shipped_dropped.total() == 2
        described = telemetry.describe()
        assert described["workers"]["w0"]["backend"] == "bitset"
        assert described["workers"]["w0"]["lag_s"] >= 0


class TestTopologyTelemetry:
    """Topology counters flow end to end: from a worker's V stage into
    the federation (with worker labels and restart-proof sums), and
    into slow-query exemplars' kernel-counter deltas."""

    def _corrupted_evidence(self, dataset, count=4):
        """Honest sighting lists with one same-tick misread each, so a
        topology-enabled filter actually prunes something."""
        store = dataset.store
        evidence = {}
        for key in store.keys:
            for eid in store.e_scenario(key).inclusive:
                evidence.setdefault(eid, []).append(key)
        corrupted = {}
        for eid in sorted(evidence):
            keys = sorted(evidence[eid], key=lambda k: (k.tick, k.cell_id))
            if len(keys) < 8:
                continue
            victim = len(keys) // 2
            elsewhere = [
                k
                for k in store.keys_at_tick(keys[victim].tick)
                if k.cell_id != keys[victim].cell_id
                and len(store.v_scenario(k)) > 0
            ]
            if not elsewhere:
                continue
            keys[victim] = elsewhere[0]
            corrupted[eid] = keys
            if len(corrupted) >= count:
                break
        assert corrupted, "no corruptible targets in this world"
        return corrupted

    def test_topology_counters_federate_across_workers(
        self, ideal_dataset, fresh_obs
    ):
        from repro.core.vid_filtering import FilterConfig, VIDFilter
        from repro.topology import TopologyConfig

        fed = MetricsFederation()
        # Worker w0: a real topology-enabled V stage publishing into
        # its own (worker-local) registry.
        w0_registry = MetricsRegistry()
        previous = set_registry(w0_registry)
        try:
            vid_filter = VIDFilter(
                ideal_dataset.store,
                FilterConfig(
                    topology=TopologyConfig(model=ideal_dataset.topology)
                ),
            )
            vid_filter.match(self._corrupted_evidence(ideal_dataset))
        finally:
            set_registry(previous)
        pruned_w0 = float(vid_filter.topology_report()["pruned"])
        assert pruned_w0 > 0
        fed.update("w0", generation=1, state=w0_registry.export_state())
        # Worker w1: a synthetic beat with its own pruning tally.
        w1_registry = MetricsRegistry()
        w1_registry.counter("ev_topology_pruned_total", "").inc(5)
        fed.update("w1", generation=1, state=w1_registry.export_state())

        assert fed.counter_value("ev_topology_pruned_total") == pytest.approx(
            pruned_w0 + 5.0
        )
        assert fed.counter_value(
            "ev_topology_pruned_total", "w0"
        ) == pytest.approx(pruned_w0)
        text = fed.render()
        pruned_lines = [
            line
            for line in text.splitlines()
            if line.startswith("ev_topology_pruned_total{")
        ]
        assert any('worker="w0"' in line for line in pruned_lines)
        assert any('worker="w1"' in line for line in pruned_lines)
        # A worker restart must rebase, not double-count.
        restarted = MetricsRegistry()
        restarted.counter("ev_topology_pruned_total", "").inc(2)
        fed.update("w1", generation=2, state=restarted.export_state())
        assert fed.counter_value(
            "ev_topology_pruned_total", "w1"
        ) == pytest.approx(7.0)

    def test_slowlog_exemplar_carries_the_topology_delta(
        self, ideal_dataset, fresh_obs
    ):
        """Regression: the slow-query kernel-counter snapshot must
        include ``topology_pruned`` so an exemplar can distinguish
        "slow because pruning collapsed" from "slow because big"."""
        from dataclasses import replace

        from repro.core.vid_filtering import FilterConfig
        from repro.obs.slowlog import SlowLogConfig
        from repro.service.server import (
            STATUS_OK,
            MatchService,
            ServiceConfig,
        )
        from repro.topology import TopologyConfig

        config = ServiceConfig(
            workers=1,
            worker_delay_s=0.02,
            slowlog=SlowLogConfig(capacity=8, threshold_s=0.001),
        )
        config = replace(
            config,
            matcher=replace(
                config.matcher,
                filter=FilterConfig(
                    topology=TopologyConfig(model=ideal_dataset.topology)
                ),
            ),
        )
        with MatchService.from_dataset(ideal_dataset, config) as service:
            targets = list(ideal_dataset.sample_targets(3, seed=11))
            assert service.match(targets).status == STATUS_OK
            records = [
                r
                for r in service.slow_queries.records()
                if r["endpoint"] == "match"
            ]
        assert records, "no match exemplar captured"
        counters = records[0]["counters"]
        assert "topology_pruned" in counters
        # Honest split evidence: pruning is the identity, the bill is 0.
        assert counters["topology_pruned"] >= 0


class TestExpositionDedup:
    def test_merge_expositions_dedupes_family_headers(self):
        a = MetricsRegistry()
        a.counter("shared_total", "shared help").inc(1, side="a")
        b = MetricsRegistry()
        b.counter("shared_total", "shared help").inc(2, side="b")
        merged = merge_expositions(
            [a.render_prometheus(), b.render_prometheus()]
        )
        assert merged.count("# HELP shared_total") == 1
        assert merged.count("# TYPE shared_total") == 1
        assert 'side="a"' in merged and 'side="b"' in merged

    def test_service_metrics_text_has_unique_headers_per_family(
        self, fresh_obs
    ):
        """Regression: families present in both the service registry and
        the process-global registry used to render two header pairs."""
        from repro.datagen.config import ExperimentConfig
        from repro.datagen.dataset import build_dataset
        from repro.service.server import MatchService, ServiceConfig

        registry, _tracer, _log = fresh_obs
        dataset = build_dataset(
            ExperimentConfig(
                num_people=30,
                cells_per_side=2,
                duration=200.0,
                sample_dt=10.0,
                warmup=50.0,
                feature_dimension=8,
                seed=5,
            )
        )
        with MatchService.from_dataset(
            dataset, ServiceConfig(workers=1)
        ) as service:
            targets = list(dataset.sample_targets(2, seed=1))
            assert service.match(targets).status == "ok"
            # Force a family collision between the two registries.
            registry.counter(
                "service_requests_total", "Requests accepted, by endpoint"
            ).inc(endpoint="external")
            text = service.metrics_text().text
        helps = re.findall(r"# HELP (\S+)", text)
        types = re.findall(r"# TYPE (\S+)", text)
        assert len(helps) == len(set(helps)), sorted(
            h for h in helps if helps.count(h) > 1
        )
        assert len(types) == len(set(types)), sorted(
            t for t in types if types.count(t) > 1
        )
        assert helps.count("service_requests_total") == 1
        assert 'endpoint="external"' in text
