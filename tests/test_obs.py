"""repro.obs: registry thread-safety, span nesting, no-op mode,
Chrome-trace schema, and the pinned percentile convention."""

from __future__ import annotations

import contextvars
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.matcher import EVMatcher, MatcherConfig
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import build_dataset
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import MapReduceJob
from repro.metrics.timing import StageTimes
from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
    get_registry,
    get_tracer,
    nearest_rank,
    null_registry,
    null_tracer,
    set_registry,
    set_tracer,
    traced,
)


@pytest.fixture()
def registry():
    """A fresh global registry, restored after the test."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


@pytest.fixture()
def tracer():
    """A recording global tracer, restored after the test."""
    fresh = Tracer()
    previous = set_tracer(fresh)
    try:
        yield fresh
    finally:
        set_tracer(previous)


class TestRegistry:
    def test_counter_labels_and_totals(self, registry):
        c = registry.counter("widgets_total", "widgets")
        c.inc(2, kind="a")
        c.inc(3, kind="b")
        c.inc()
        assert c.value(kind="a") == 2
        assert c.value(kind="b") == 3
        assert c.value() == 1
        assert c.total() == 6

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_get_or_create_is_kind_checked(self, registry):
        registry.counter("x_total")
        with pytest.raises(TypeError):
            registry.gauge("x_total")

    def test_concurrent_increments_lose_nothing(self, registry):
        """The thread-safety contract: N threads x M increments land
        exactly N*M on the counter (and histogram counts agree)."""
        counter = registry.counter("hits_total")
        hist = registry.histogram("lat_seconds")
        threads, per_thread = 8, 500

        def worker(i: int) -> None:
            for _ in range(per_thread):
                counter.inc(worker=str(i % 2))
                hist.observe(0.001)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(worker, range(threads)))
        assert counter.total() == threads * per_thread
        assert hist.count() == threads * per_thread

    def test_prometheus_exposition_shape(self, registry):
        registry.counter("req_total", "requests").inc(3, ep="match")
        registry.gauge("depth").set(2.5)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        text = registry.render_prometheus()
        assert "# TYPE req_total counter" in text
        assert 'req_total{ep="match"} 3' in text
        assert "depth 2.5" in text
        assert 'lat_bucket{le="0.1"} 0' in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.5" in text
        assert "lat_count 1" in text


class TestKeptLabelKeys:
    """An instrument keeps the key of a label set that repeats; the
    series are the ones an unkept key gives."""

    def test_equal_values_of_other_types_stay_apart(self, registry):
        counter = registry.counter("kept_total")
        for _ in range(2):
            for value in ("1", 1, 1.0, True, None):
                counter.inc(flag=value)
        assert dict(counter.series()) == {
            (("flag", "1"),): 4.0,
            (("flag", "1.0"),): 2.0,
            (("flag", "True"),): 2.0,
            (("flag", "None"),): 2.0,
        }

    def test_label_order_and_unhashable_values(self, registry):
        gauge = registry.gauge("kept")
        gauge.set(1, a="x", b="y")
        gauge.set(2, b="y", a="x")
        gauge.set(3, a=["x"])
        assert gauge.value(a="x", b="y") == 2
        assert gauge.series() == [
            ((("a", "['x']"),), 3.0),
            ((("a", "x"), ("b", "y")), 2.0),
        ]

    def test_past_the_cap_keys_are_built_each_call(self, registry, monkeypatch):
        from repro.obs import registry as registry_module

        monkeypatch.setattr(registry_module, "_MAX_KEPT_KEYS", 2)
        hist = registry.histogram("kept_seconds")
        for i in range(4):
            hist.observe(0.5, shard=str(i))
            hist.observe(0.5, shard=str(i))
        assert len(hist._keys) == 2
        assert [hist.count(shard=str(i)) for i in range(4)] == [2, 2, 2, 2]


class TestPercentileConvention:
    def test_nearest_rank_is_pinned(self):
        # The documented convention: p50 of [1,2,3,4] is the
        # ceil(0.5*4)=2nd smallest — deterministically 2, never 2.5.
        assert nearest_rank([1, 2, 3, 4], 50) == 2
        assert nearest_rank([4, 3, 2, 1], 50) == 2
        assert nearest_rank([1, 2, 3, 4], 75) == 3
        assert nearest_rank([1, 2, 3, 4], 100) == 4
        assert nearest_rank([1, 2, 3, 4], 0) == 1
        assert nearest_rank([], 50) == 0.0

    def test_histogram_uses_nearest_rank(self):
        hist = Histogram("h")
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        assert hist.percentile(50) == 2.0

    def test_observe_many_matches_repeated_observe(self):
        values = [0.03, 0.4, 7.0, 0.4, 120.0]
        loop = Histogram("h_loop")
        batch = Histogram("h_batch")
        for v in values:
            loop.observe(v, stage="e")
        batch.observe_many(values, stage="e")
        batch.observe_many([], stage="e")  # empty batch is a no-op
        assert batch.count(stage="e") == loop.count(stage="e")
        assert batch.sum(stage="e") == loop.sum(stage="e")
        assert batch.samples(stage="e") == loop.samples(stage="e")
        (key_a, series_a), = loop.series()
        (key_b, series_b), = batch.series()
        assert key_a == key_b
        assert series_a.bucket_counts == series_b.bucket_counts

    def test_latency_histogram_matches(self):
        from repro.service.metrics import RequestLog, RequestRecord

        metrics = RequestLog()
        for v in (1.0, 2.0, 3.0, 4.0):
            metrics.write(RequestRecord("match", "ok", v))
        metrics.fold()
        assert metrics.latency.percentile(50, endpoint="match") == 2.0
        assert metrics.latency.count(endpoint="match") == 4
        assert metrics.snapshot()["match"]["latency_p50_s"] == 2.0


class TestNoOpMode:
    def test_null_instruments_retain_nothing(self):
        reg = null_registry()
        c = reg.counter("c_total")
        g = reg.gauge("g")
        h = reg.histogram("h")
        c.inc(5)
        g.set(3)
        h.observe(1.0)
        assert c.total() == 0
        assert g.value() == 0
        assert h.count() == 0
        assert h.samples() == []  # zero sample allocations retained
        assert reg.render_prometheus() == ""

    def test_null_tracer_hands_out_one_shared_span(self):
        t = null_tracer()
        spans = {id(t.span("a")), id(t.span("b", parent=None, k=1))}
        assert len(spans) == 1  # the singleton no-op span
        with t.span("c") as s:
            s.set(x=1)
        assert t.spans == ()
        assert t.to_chrome_trace() == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_default_tracer_is_noop(self):
        assert isinstance(get_tracer(), NullTracer) or isinstance(
            get_tracer(), Tracer
        )


class TestTracer:
    def test_nesting_follows_call_structure(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is None
        roots = tracer.roots
        assert [s.name for s in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner"]
        assert roots[0].children[0].parent is roots[0]

    def test_parenting_across_threads_via_copy_context(self, tracer):
        """A context snapshot carries the open span to a worker thread."""
        with tracer.span("stage"):
            contexts = [contextvars.copy_context() for _ in range(4)]
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(
                    lambda i: contexts[i].run(self._run_task, tracer, i),
                    range(4),
                ))
        stage = tracer.roots[0]
        tasks = [c for c in stage.children if c.name == "task"]
        assert len(tasks) == 4
        assert {c.parent for c in tasks} == {stage}
        # The worker really ran elsewhere: at least one differing tid.
        assert any(c.tid != stage.tid for c in tasks)

    @staticmethod
    def _run_task(tracer, i: int) -> None:
        with tracer.span("task", index=i):
            pass

    def test_decorator_and_traced(self, tracer):
        @tracer.trace("fn.span")
        def f(x):
            return x + 1

        @traced("g.span")
        def g(x):
            return x * 2

        assert f(1) == 2
        assert g(2) == 4
        names = {s.name for s in tracer.spans}
        assert {"fn.span", "g.span"} <= names

    def test_chrome_trace_schema(self, tracer):
        with tracer.span("a.outer", targets=3):
            with tracer.span("a.inner"):
                pass
        data = tracer.to_chrome_trace()
        text = json.dumps(data)  # must be valid JSON
        assert json.loads(text) == data
        events = data["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["cat"] == "a"
        # Sorted by start time: outer opened first.
        assert events[0]["name"] == "a.outer"
        assert events[0]["args"]["targets"] == 3
        # The child nests inside the parent's [ts, ts+dur] window.
        outer, inner = events[0], events[1]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3

    def test_render_tree_elides_siblings(self, tracer):
        with tracer.span("parent"):
            for i in range(15):
                with tracer.span("child", i=i):
                    pass
        text = tracer.render_tree(max_children=12)
        assert "... 3 more" in text


@pytest.fixture(scope="module")
def tiny_dataset():
    return build_dataset(
        ExperimentConfig(
            num_people=60,
            cells_per_side=3,
            duration=400.0,
            sample_dt=10.0,
            warmup=100.0,
            seed=11,
        )
    )


class TestPipelineInstrumentation:
    def test_match_records_spans_and_metrics(self, tiny_dataset, registry, tracer):
        matcher = EVMatcher(tiny_dataset.store, MatcherConfig())
        targets = list(tiny_dataset.sample_targets(6, seed=3))
        matcher.match(targets)
        names = {s.name for s in tracer.spans}
        assert {"match", "e.split", "v.filter", "v.match_one"} <= names
        assert registry.counter("ev_match_runs_total").value(algorithm="ss") == 1
        examined = registry.get("ev_e_scenarios_examined_total")
        assert examined is not None and examined.total() > 0
        extracted = registry.counter("ev_v_detections_extracted_total")
        assert extracted.total() > 0
        # Simulated stage times mirror the report via StageTimes.as_dict.
        sim = registry.counter("ev_simulated_stage_seconds_total")
        assert sim.value(stage="v", algorithm="ss") > 0

    def test_stage_times_as_dict(self):
        times = StageTimes(e_time=1.5, v_time=2.5)
        assert times.as_dict() == {"e": 1.5, "v": 2.5, "total": 4.0}

    def test_mapreduce_task_spans_parent_under_stage(self, registry, tracer):
        engine = MapReduceEngine()
        engine.dfs.write_records("in", list(range(40)), 8)
        job = MapReduceJob(
            name="sum",
            mapper=lambda r: [(r % 4, r)],
            reducer=lambda k, vs: [(k, sum(vs))],
            num_reducers=4,
        )
        engine.run(job, "in", "out")
        jobs = [s for s in tracer.spans if s.name == "mr.job"]
        assert len(jobs) == 1
        stages = [c for c in jobs[0].children if c.name == "mr.stage"]
        assert len(stages) == 2  # map + reduce
        map_stage = next(s for s in stages if s.args["stage"].endswith(":map"))
        tasks = [c for c in map_stage.children if c.name == "mr.task"]
        assert len(tasks) == 8
        assert all(c.parent is map_stage for c in tasks)
        assert registry.counter("mr_tasks_total").value(stage="map") == 8
        assert registry.counter("mr_jobs_total").total() == 1
        assert registry.counter("mr_records_in_total").total() == 40

    def test_service_metrics_verb(self, tiny_dataset, registry):
        from repro.service import MatchService

        with MatchService.from_dataset(tiny_dataset) as service:
            service.match(list(tiny_dataset.eids[:3]))
            text = service.metrics_text().text
        assert 'service_requests_total{endpoint="match"} 1' in text
        assert "service_latency_seconds_bucket" in text
        # The global registry's pipeline counters ride along.
        assert "ev_v_detections_extracted_total" in text
        assert "ev_v_comparisons_total" in text

    def test_noop_overhead_path_unchanged_results(self, tiny_dataset):
        """With the no-op registry/tracer installed, matching still
        produces identical results (instrumentation is inert)."""
        targets = list(tiny_dataset.sample_targets(4, seed=5))
        baseline = EVMatcher(tiny_dataset.store).match(targets)
        prev_reg = set_registry(null_registry())
        prev_tr = set_tracer(null_tracer())
        try:
            quiet = EVMatcher(tiny_dataset.store).match(targets)
        finally:
            set_registry(prev_reg)
            set_tracer(prev_tr)
        assert quiet.predictions() == baseline.predictions()
        assert quiet.num_selected == baseline.num_selected
