"""The stage catalogue (``repro.obs.stages``): catalogued spans publish
their stage's metrics and events under either tracer, and the
catalogue is the one documented in ``docs/architecture.md``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import MapReduceJob
from repro.obs import (
    EventLog,
    MetricsRegistry,
    Tracer,
    null_tracer,
    set_event_log,
    set_registry,
    set_tracer,
)
from repro.obs import events as ev
from repro.obs.stages import CANDIDATES_REMAINING, STAGES

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(params=["null", "tracer"])
def plane(request):
    """A fresh registry and info-level log under either tracer."""
    registry, log = MetricsRegistry(), EventLog(capacity=1024)
    tracer = Tracer() if request.param == "tracer" else null_tracer()
    previous = (set_registry(registry), set_event_log(log), set_tracer(tracer))
    try:
        yield registry, log, tracer
    finally:
        set_registry(previous[0])
        set_event_log(previous[1])
        set_tracer(previous[2])


class TestCatalogue:
    def test_every_catalogued_name_is_documented(self):
        text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
        names = {CANDIDATES_REMAINING.name}
        for stage in STAGES.values():
            names.add(stage.span)
            names.update(metric.name for metric in stage.metrics)
            names.update(metric.name for metric in stage.open_metrics)
            names.update(t for t in (stage.opened, stage.closed) if t)
        missing = sorted(name for name in names if f"`{name}`" not in text)
        assert not missing

    def test_catalogued_events_are_declared_event_types(self):
        for stage in STAGES.values():
            for event_type in (stage.opened, stage.closed):
                assert event_type is None or event_type in ev.EVENT_TYPES

    def test_a_family_keeps_one_help_text(self):
        helps = {}
        for stage in STAGES.values():
            for metric in stage.metrics + stage.open_metrics:
                assert helps.setdefault(metric.name, metric.help) == metric.help

    def test_obs_imports_nothing_from_the_rest_of_repro(self):
        for path in (ROOT / "src" / "repro" / "obs").glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    module = node.module or ""
                    assert not module.startswith("repro") or module.startswith(
                        "repro.obs"
                    ), (path.name, module)


class TestPublishing:
    def test_uncatalogued_names_share_the_no_op_span(self):
        tracer = null_tracer()
        assert tracer.span("v.match_one", eid=1) is tracer.span("mr.task")

    def test_a_closing_span_publishes_its_metrics_and_events(self, plane):
        registry, log, tracer = plane
        with tracer.span("e.split", backend="python", targets=3) as span:
            span.set(examined=7, recorded=2, distinguished=1, unresolved=2)
        counter = registry.get("ev_e_scenarios_examined_total")
        assert counter.value(backend="python") == 7
        assert registry.get("ev_e_split_seconds").count(backend="python") == 1
        started, converged = log.events()
        assert started["type"] == ev.E_SPLIT_STARTED
        assert started["fields"] == {"backend": "python", "targets": 3}
        assert converged["type"] == ev.E_SPLIT_CONVERGED
        assert converged["fields"]["examined"] == 7
        if isinstance(tracer, Tracer):
            (recorded,) = tracer.spans
            assert started["span_id"] == converged["span_id"] == recorded.span_id

    def test_an_attribute_the_span_lacks_publishes_nothing(self, plane):
        registry, _log, tracer = plane
        with tracer.span("v.filter", targets=2) as span:
            span.set(detections_extracted=5, comparisons=9)
        assert registry.get("ev_v_comparisons_total").total() == 9
        assert registry.get("ev_topology_pruned_total") is None

    def test_a_sparse_zero_registers_the_family_only(self, plane):
        registry, _log, tracer = plane
        with tracer.span("v.filter") as span:
            span.set(topology_pruned=0, topology_kept=4)
        assert registry.get("ev_topology_pruned_total").series() == []
        assert registry.get("ev_topology_kept_total").total() == 4

    def test_a_span_closed_by_an_exception_publishes_nothing(self, plane):
        registry, log, tracer = plane
        with pytest.raises(RuntimeError):
            with tracer.span("e.split", backend="python") as span:
                span.set(examined=7)
                raise RuntimeError("stage failed")
        assert registry.get("ev_e_scenarios_examined_total") is None
        assert [e["type"] for e in log.events()] == [ev.E_SPLIT_STARTED]

    def test_a_speculating_stage_reports_its_phase(self, plane):
        registry, log, _tracer = plane
        engine = MapReduceEngine(
            cluster=SimulatedCluster(
                ClusterConfig(
                    num_nodes=2, cores_per_node=2, skew_sigma=0.8,
                    speculate=True, task_overhead=0.0,
                )
            )
        )
        engine.dfs.write_records("xs", list(range(32)), num_partitions=32)
        job = MapReduceJob(name="spec", mapper=lambda x: (x,), map_cost=lambda x: 1.0)
        _, metrics = engine.run(job, "xs", "ys")
        copies = metrics.map_stats.speculative_copies
        assert copies > 0
        counter = registry.get("mr_speculative_copies_total")
        assert counter.value(stage="map") == copies
        (speculation,) = log.events(ev.MR_STAGE_SPECULATION)
        assert speculation["fields"]["stage"] == "map"
        assert speculation["fields"]["job"] == "spec"
        assert speculation["fields"]["speculative_copies"] == copies
