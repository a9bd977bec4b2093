"""Slow-query exemplars: SlowQueryLog policy + MatchService wiring.

Unit-level: thresholding modes (fixed / adaptive / warming / disabled),
bounded retention, span-tree serialization budgets.  Integration-level:
a live :class:`MatchService` with an artificial per-request delay and a
tiny fixed threshold must capture real exemplars carrying the span
tree, kernel-counter deltas, trace id and backend label the ``slowlog``
verb ships outward.
"""

import json

import pytest

from repro.obs.events import EventLog, set_event_log
from repro.obs.registry import MetricsRegistry, set_registry
from repro.obs.slowlog import (
    MAX_SPANS_PER_RECORD,
    SLOW_QUERIES_METRIC,
    SlowLogConfig,
    SlowQueryLog,
    serialize_span_tree,
)
from repro.obs.tracing import Tracer, set_tracer
from repro.service.server import MatchService, ServiceConfig, STATUS_OK


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


class TestThresholding:
    def test_fixed_threshold_captures_over_and_not_under(self, fresh_obs):
        slowlog = SlowQueryLog(SlowLogConfig(threshold_s=0.1))
        assert slowlog.threshold() == 0.1
        assert not slowlog.consider(
            endpoint="match", latency_s=0.05, status=STATUS_OK
        )
        assert slowlog.consider(
            endpoint="match", latency_s=0.15, status=STATUS_OK
        )
        assert slowlog.captured == 1
        assert slowlog.considered == 2
        registry, _, _ = fresh_obs
        assert registry.counter(SLOW_QUERIES_METRIC).total() == 1

    def test_adaptive_threshold_tracks_the_p99(self):
        p99 = [None]
        slowlog = SlowQueryLog(
            SlowLogConfig(adaptive_factor=3.0, min_threshold_s=0.005),
            p99_source=lambda: p99[0],
        )
        # Warming: no p99 yet -> capture nothing, however slow.
        assert slowlog.threshold() is None
        assert not slowlog.consider(
            endpoint="match", latency_s=10.0, status=STATUS_OK
        )
        # Window filled: threshold = factor * p99 ...
        p99[0] = 0.04
        assert slowlog.threshold() == pytest.approx(0.12)
        # ... clamped below by min_threshold_s for tiny p99s.
        p99[0] = 0.0001
        assert slowlog.threshold() == pytest.approx(0.005)

    def test_adaptive_floor_skips_the_p99_for_fast_requests(self, fresh_obs):
        calls = []

        def p99():
            calls.append(1)
            return 0.0001

        slowlog = SlowQueryLog(
            SlowLogConfig(min_threshold_s=0.005), p99_source=p99
        )
        # Under the floor no p99 can make a request slow: not read.
        assert not slowlog.consider(
            endpoint="match", latency_s=0.004, status=STATUS_OK
        )
        assert calls == [] and slowlog.considered == 1
        # At the floor the p99 is read, and the floor captures.
        assert slowlog.consider(
            endpoint="match", latency_s=0.005, status=STATUS_OK
        )
        assert len(calls) == 1 and slowlog.considered == 2
        # A zero floor reads the p99 for every request, as before.
        zero_floor = SlowQueryLog(
            SlowLogConfig(min_threshold_s=0.0), p99_source=p99
        )
        assert not zero_floor.consider(
            endpoint="match", latency_s=0.0002, status=STATUS_OK
        )
        assert len(calls) == 2
        # Fixed mode never reads the p99 and captures by its threshold.
        fixed = SlowQueryLog(
            SlowLogConfig(threshold_s=0.001, min_threshold_s=0.005),
            p99_source=p99,
        )
        assert fixed.consider(
            endpoint="match", latency_s=0.002, status=STATUS_OK
        )
        assert len(calls) == 2 and fixed.considered == 1

    def test_adaptive_without_a_source_captures_nothing(self):
        slowlog = SlowQueryLog(SlowLogConfig())
        assert slowlog.threshold() is None
        assert not slowlog.consider(
            endpoint="match", latency_s=99.0, status=STATUS_OK
        )

    def test_disabled_config_captures_nothing(self, fresh_obs):
        slowlog = SlowQueryLog(
            SlowLogConfig(threshold_s=0.001, enabled=False)
        )
        assert slowlog.threshold() is None
        assert not slowlog.consider(
            endpoint="match", latency_s=1.0, status=STATUS_OK
        )
        assert slowlog.describe()["enabled"] is False

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SlowLogConfig(capacity=0)
        with pytest.raises(ValueError):
            SlowLogConfig(threshold_s=0.0)
        with pytest.raises(ValueError):
            SlowLogConfig(adaptive_factor=0.5)
        with pytest.raises(ValueError):
            SlowLogConfig(min_threshold_s=-1.0)


class TestRetention:
    def test_ring_is_bounded_and_newest_first(self, fresh_obs):
        slowlog = SlowQueryLog(SlowLogConfig(capacity=3, threshold_s=0.01))
        for i in range(5):
            slowlog.consider(
                endpoint="match",
                latency_s=0.02,
                status=STATUS_OK,
                detail={"seq": i},
            )
        records = slowlog.records()
        assert len(records) == len(slowlog) == 3
        assert [r["detail"]["seq"] for r in records] == [4, 3, 2]
        assert [r["detail"]["seq"] for r in slowlog.records(limit=2)] == [4, 3]
        assert slowlog.captured == 5  # evictions do not uncount captures

    def test_describe_summary_shape(self, fresh_obs):
        slowlog = SlowQueryLog(SlowLogConfig(threshold_s=0.5))
        slowlog.consider(endpoint="match", latency_s=0.1, status=STATUS_OK)
        slowlog.consider(endpoint="match", latency_s=0.9, status=STATUS_OK)
        assert slowlog.describe() == {
            "enabled": True,
            "mode": "fixed",
            "threshold_s": 0.5,
            "retained": 1,
            "captured": 1,
            "considered": 2,
        }


class TestSpanSerialization:
    def test_span_tree_round_trips_as_json(self, fresh_obs):
        _, tracer, _ = fresh_obs
        with tracer.span("service.execute", batch=2) as root:
            with tracer.span("match"):
                with tracer.span("e.split", backend="python"):
                    pass
        tree = serialize_span_tree(root)
        assert tree["name"] == "service.execute"
        assert tree["args"] == {"batch": 2}
        (match_node,) = tree["children"]
        assert match_node["name"] == "match"
        (split_node,) = match_node["children"]
        assert split_node["name"] == "e.split"
        assert split_node["args"]["backend"] == "python"
        assert split_node["dur_ms"] >= 0.0
        json.dumps(tree)  # wire-safe

    def test_span_budget_elides_sibling_floods(self, fresh_obs):
        _, tracer, _ = fresh_obs
        with tracer.span("root") as root:
            for i in range(MAX_SPANS_PER_RECORD + 40):
                with tracer.span(f"child-{i}"):
                    pass
        tree = serialize_span_tree(root)
        kept = len(tree.get("children", []))
        assert kept < MAX_SPANS_PER_RECORD + 40
        assert tree["elided"] == (MAX_SPANS_PER_RECORD + 40) - kept
        # Budget counts nodes, not depth: root + kept == budget.
        assert kept + 1 == MAX_SPANS_PER_RECORD

    def test_none_span_serializes_to_none(self):
        assert serialize_span_tree(None) is None


class TestServiceWiring:
    @pytest.fixture()
    def slow_service(self, ideal_dataset, fresh_obs):
        svc = MatchService.from_dataset(
            ideal_dataset,
            ServiceConfig(
                workers=1,
                worker_delay_s=0.02,
                slowlog=SlowLogConfig(capacity=8, threshold_s=0.001),
            ),
        )
        svc.start()
        yield svc
        svc.stop()

    def test_slow_match_is_captured_with_full_context(
        self, ideal_dataset, slow_service, fresh_obs
    ):
        _, tracer, _ = fresh_obs
        targets = list(ideal_dataset.sample_targets(3, seed=11))
        # Submit under an active span: untraced requests open no
        # service.execute span, so the exemplar's tree would be None
        # (exactly what the worker's per-request span provides in a
        # cluster).
        with tracer.span("request"):
            response = slow_service.match(targets)
        assert response.status == STATUS_OK

        records = slow_service.slow_queries.records()
        match_records = [r for r in records if r["endpoint"] == "match"]
        assert match_records, f"no match exemplar captured: {records}"
        record = match_records[0]
        assert record["latency_s"] >= record["threshold_s"] == 0.001
        assert record["status"] == STATUS_OK
        # Standalone services have no distributed trace id (a cluster
        # client mints one per traced request); the key is still present
        # so the record joins against merged traces when there is one.
        assert "trace_id" in record
        assert record["backend_label"] == (
            slow_service.config.matcher.split.backend
        )
        assert set(record["detail"]) == {
            "targets", "algorithm", "batched_with", "cached",
        }
        assert record["detail"]["algorithm"] == "ss"
        # Kernel-counter deltas: the match examined real scenarios.
        assert record["counters"]["scenarios_examined"] > 0
        # The span tree is the serving-side execute subtree.
        spans = record["spans"]
        assert spans["name"] == "service.execute"
        assert spans["args"]["endpoint"] == "match"

        def names(node):
            yield node["name"]
            for child in node.get("children", ()):
                yield from names(child)

        assert "e.split" in set(names(spans))
        json.dumps(record)  # the verb ships this verbatim

    def test_investigate_is_captured_too(self, ideal_dataset, slow_service):
        eid = next(iter(ideal_dataset.sample_targets(1, seed=12)))
        response = slow_service.investigate(eid, min_shared=2)
        assert response.status == STATUS_OK
        records = [
            r
            for r in slow_service.slow_queries.records()
            if r["endpoint"] == "investigate"
        ]
        assert records
        assert records[0]["detail"] == {
            "eid": eid.index, "min_shared": 2,
        }

    def test_service_slowlog_envelope(self, ideal_dataset, slow_service):
        targets = list(ideal_dataset.sample_targets(2, seed=13))
        slow_service.match(targets)
        payload = slow_service.slowlog(limit=4)
        assert payload["enabled"] is True
        assert payload["mode"] == "fixed"
        assert payload["captured"] >= 1
        assert payload["considered"] >= 1
        assert len(payload["records"]) <= 4
        assert payload["records"][0]["endpoint"] in ("match", "investigate")
        json.dumps(payload)

    def test_default_config_is_adaptive_and_warming_captures_nothing(
        self, ideal_dataset, fresh_obs
    ):
        svc = MatchService.from_dataset(
            ideal_dataset, ServiceConfig(workers=1)
        )
        svc.start()
        try:
            targets = list(ideal_dataset.sample_targets(2, seed=14))
            svc.match(targets)
            summary = svc.slowlog()
            assert summary["mode"] == "adaptive"
            # One request cannot fill the p99 window (min_samples).
            assert summary["threshold_s"] is None
            assert summary["records"] == []
        finally:
            svc.stop()
