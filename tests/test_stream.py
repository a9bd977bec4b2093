"""Tests for ``repro.stream``: watermarks, queues, the windowed
assembler, checkpoint/restore, and the end-to-end pipeline guarantees
(batch equivalence, zero duplicate emission across a crash)."""

import json
import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.incremental import IncrementalMatcher
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import build_dataset
from repro.obs import EventLog, MetricsRegistry, set_event_log, set_registry
from repro.obs import events as ev
from repro.sensing.builder import VFrame
from repro.sensing.scenarios import Detection, ScenarioStore
from repro.service.server import MatchService, ServiceConfig
from repro.stream import (
    BoundedEventQueue,
    CheckpointMismatch,
    ReplayConfig,
    ServiceSink,
    StoreSink,
    StreamConfig,
    StreamPipeline,
    SyntheticLiveSource,
    TraceReplaySource,
    WatermarkTracker,
    WindowAssembler,
    diff_stores,
    load_checkpoint,
    restore_into,
    save_checkpoint,
    snapshot,
    stores_equivalent,
)
from repro.stream.events import event_count, event_kind
from repro.world.entities import EID, VID
from tests.oracles.stream import CellSighting, batches_of, explode


@pytest.fixture(scope="module")
def small_world():
    """A tiny but non-degenerate world for replay tests."""
    return build_dataset(
        ExperimentConfig(
            num_people=30,
            cells_per_side=3,
            duration=120.0,
            sample_dt=10.0,
            seed=7,
        )
    )


@pytest.fixture(scope="module")
def windowed_world():
    """A practical-style world with multi-tick windows."""
    return build_dataset(
        ExperimentConfig(
            num_people=25,
            cells_per_side=3,
            duration=160.0,
            sample_dt=10.0,
            window_ticks=2,
            vague_width=20.0,
            seed=11,
        )
    )


@contextmanager
def private_registry():
    """Route the process-global metrics to a fresh registry."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def kind_counts(items):
    counts = {"e": 0, "v": 0}
    for item in items:
        counts[event_kind(item)] += event_count(item)
    return counts


def published_events(registry):
    """``ev_stream_events_total`` split by kind, as a scrape sees it."""
    counter = registry.counter("ev_stream_events_total")
    return {kind: int(counter.value(kind=kind)) for kind in ("e", "v")}


def assert_population_eids(store, population):
    """Every EID in ``store`` is the population's object for its index."""
    by_index = {
        eid.index: eid for person in population.people for eid in person.all_eids
    }
    for key in store.keys:
        e = store.e_scenario(key)
        for eid in (*e.inclusive, *e.vague):
            assert eid is by_index[eid.index]


# ---------------------------------------------------------------------------
# watermark
# ---------------------------------------------------------------------------
class TestWatermark:
    def test_no_events_no_watermark(self):
        tracker = WatermarkTracker()
        assert tracker.watermark is None
        assert not tracker.window_closable(0, window_ticks=1)

    def test_in_order_advance(self):
        tracker = WatermarkTracker(allowed_lateness=0)
        tracker.observe(0)
        assert not tracker.window_closable(0, window_ticks=1)
        tracker.observe(1)
        # First event of window 1 proves window 0 complete.
        assert tracker.window_closable(0, window_ticks=1)
        assert not tracker.window_closable(1, window_ticks=1)

    def test_lateness_delays_closing(self):
        tracker = WatermarkTracker(allowed_lateness=2)
        tracker.observe(0)
        tracker.observe(1)
        assert not tracker.window_closable(0, window_ticks=1)
        tracker.observe(3)
        assert tracker.window_closable(0, window_ticks=1)

    def test_restore(self):
        tracker = WatermarkTracker(allowed_lateness=1)
        tracker.restore(max_tick=9, events_seen=40)
        assert tracker.watermark == 8
        assert tracker.events_seen == 40


# ---------------------------------------------------------------------------
# queues
# ---------------------------------------------------------------------------
class TestBoundedQueue:
    def test_block_policy_is_lossless(self):
        queue = BoundedEventQueue(capacity=4, policy="block")
        for i in range(4):
            assert queue.put(i)
        assert queue.depth == 4
        assert queue.shed == 0

    def test_shed_policy_drops_newest(self):
        queue = BoundedEventQueue(capacity=2, policy="shed")
        assert queue.put("a")
        assert queue.put("b")
        assert not queue.put("c")
        assert queue.shed == 1
        assert queue.offered == 3
        assert queue.get() == "a"

    def test_sentinel_delivered_under_shed(self):
        queue = BoundedEventQueue(capacity=1, policy="shed")
        queue.put("a")
        queue.put_sentinel()
        assert queue.get() == "a"
        assert queue.get() is None

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            BoundedEventQueue(capacity=0)
        with pytest.raises(ValueError, match="policy"):
            BoundedEventQueue(policy="reject")


# ---------------------------------------------------------------------------
# assembler
# ---------------------------------------------------------------------------
def _sighting(tick, cell, eid, vague=False):
    (batch,) = batches_of(
        [CellSighting(tick=tick, cell_id=cell, eid=EID(eid), vague=vague)]
    )
    return batch


class TestWindowAssembler:
    def test_window_closes_on_watermark_advance(self):
        assembler = WindowAssembler(window_ticks=1)
        closed, late = assembler.offer(_sighting(0, cell=0, eid=1))
        assert closed == [] and not late
        closed, late = assembler.offer(_sighting(1, cell=0, eid=1))
        assert len(closed) == 1 and not late
        (window,) = closed
        assert window.window == 0
        (scenario,) = window.scenarios
        assert scenario.key.cell_id == 0 and scenario.key.tick == 0
        assert scenario.e.inclusive == frozenset({EID(1)})

    def test_attribution_matches_batch_rule(self):
        # 1 of 2 ticks inside the window -> frac 0.5: vague band only.
        assembler = WindowAssembler(window_ticks=2)
        assembler.offer(_sighting(0, cell=0, eid=1))
        assembler.offer(_sighting(0, cell=0, eid=2))
        assembler.offer(_sighting(1, cell=0, eid=2))
        assembler.offer(VFrame.of(1, 0))
        (closed,) = assembler.flush()
        (scenario,) = closed.scenarios
        assert scenario.e.inclusive == frozenset({EID(2)})
        assert scenario.e.vague == frozenset({EID(1)})

    def test_late_event_dropped_and_counted(self):
        assembler = WindowAssembler(window_ticks=1)
        assembler.offer(_sighting(0, cell=0, eid=1))
        assembler.offer(_sighting(2, cell=0, eid=1))  # closes 0 and 1
        closed, late = assembler.offer(_sighting(0, cell=1, eid=2))
        assert late and closed == []
        assert assembler.late_dropped == 1

    def test_flush_closes_in_order(self):
        # Generous lateness keeps every window open until the flush.
        assembler = WindowAssembler(window_ticks=1, allowed_lateness=5)
        assembler.offer(_sighting(2, cell=0, eid=1))
        assembler.offer(_sighting(0, cell=1, eid=2))
        closed = assembler.flush()
        # Window 1 never saw an event, so it has nothing to close —
        # matching the batch builder, which emits no scenarios for an
        # unoccupied window either.
        assert [c.window for c in closed] == [0, 2]
        assert all(c.scenarios for c in closed)
        assert assembler.next_window == 3

    def test_peak_open_windows_tracked(self):
        assembler = WindowAssembler(window_ticks=1, allowed_lateness=3)
        for tick in range(4):
            assembler.offer(_sighting(tick, cell=0, eid=1))
        assert assembler.peak_open_windows == 4


# ---------------------------------------------------------------------------
# duplicate arrivals (satellite: pinned idempotence/raise semantics)
# ---------------------------------------------------------------------------
class TestDuplicateArrival:
    def test_store_add_raises_on_duplicate_key(self, small_world):
        store = ScenarioStore([])
        scenario = small_world.store.get(small_world.store.keys[0])
        store.add(scenario)
        with pytest.raises(ValueError, match="duplicate scenario key"):
            store.add(scenario)

    def test_incremental_matcher_ignores_duplicate_key(self, small_world):
        store = small_world.store
        matcher = IncrementalMatcher(store, small_world.eids)
        matcher.add_targets(list(small_world.eids[:5]))
        scenario = store.get(store.keys[0])
        first = matcher.observe(scenario)
        consumed = matcher.scenarios_consumed
        charged = matcher.clock.e_scenarios_examined
        evidence = {
            t: matcher.evidence_of(t)
            for t in small_world.eids[:5]
            if t in matcher.pending
        }
        again = matcher.observe(scenario)
        assert again == []
        assert first == first  # duplicate returns nothing new
        assert matcher.scenarios_consumed == consumed
        assert matcher.clock.e_scenarios_examined == charged
        assert matcher.duplicates_ignored == 1
        for target, trail in evidence.items():
            assert matcher.evidence_of(target) == trail

    def test_store_sink_suppresses_duplicates(self, small_world):
        store = ScenarioStore([])
        sink = StoreSink(store)
        scenarios = [small_world.store.get(k) for k in small_world.store.keys[:3]]
        applied, duplicates = sink.emit_window(scenarios)
        assert len(applied) == 3 and duplicates == 0
        applied, duplicates = sink.emit_window(scenarios)
        assert applied == [] and duplicates == 3
        assert len(store) == 3


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------
class TestCheckpoint:
    def _assembler_with_state(self):
        # Lateness 3 keeps both windows open through every offer below.
        assembler = WindowAssembler(window_ticks=2, allowed_lateness=3)
        assembler.offer(_sighting(0, cell=0, eid=1))
        assembler.offer(_sighting(1, cell=0, eid=1, vague=True))
        assembler.offer(
            VFrame.of(
                1,
                0,
                (
                    Detection(
                        detection_id=9,
                        feature=np.array([0.25, -1.5, 3.0]),
                        true_vid=VID(4),
                    ),
                ),
            )
        )
        assembler.offer(_sighting(3, cell=1, eid=2))
        return assembler

    def test_roundtrip_preserves_state(self, tmp_path):
        assembler = self._assembler_with_state()
        config = {"window_ticks": 2, "allowed_lateness": 1}
        state = snapshot(
            assembler, events_processed=4, scenarios_emitted=0, config=config
        )
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)

        restored = WindowAssembler(window_ticks=2, allowed_lateness=3)
        restore_into(restored, loaded, config)
        assert restored.next_window == assembler.next_window
        assert restored.watermark.max_tick == assembler.watermark.max_tick
        assert restored.export_state() == assembler.export_state()

    def test_features_roundtrip_exactly(self, tmp_path):
        assembler = self._assembler_with_state()
        config = {"window_ticks": 2}
        path = str(tmp_path / "ck.json")
        save_checkpoint(
            path,
            snapshot(assembler, events_processed=4, scenarios_emitted=0, config=config),
        )
        loaded = load_checkpoint(path)
        (feature,) = loaded.open_windows[0].frames[0].features
        np.testing.assert_array_equal(feature, np.array([0.25, -1.5, 3.0]))

    def test_config_mismatch_refused(self, tmp_path):
        assembler = self._assembler_with_state()
        path = str(tmp_path / "ck.json")
        save_checkpoint(
            path,
            snapshot(
                assembler,
                events_processed=4,
                scenarios_emitted=0,
                config={"window_ticks": 2},
            ),
        )
        loaded = load_checkpoint(path)
        fresh = WindowAssembler(window_ticks=3)
        with pytest.raises(CheckpointMismatch, match="window_ticks"):
            restore_into(fresh, loaded, {"window_ticks": 3})

    def test_version_mismatch_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(CheckpointMismatch, match="version"):
            load_checkpoint(str(path))

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        assembler = self._assembler_with_state()
        path = str(tmp_path / "ck.json")
        save_checkpoint(
            path,
            snapshot(assembler, events_processed=1, scenarios_emitted=0, config={}),
        )
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")


# ---------------------------------------------------------------------------
# pipeline: batch equivalence (the acceptance guarantee)
# ---------------------------------------------------------------------------
class TestBatchEquivalence:
    def test_in_order_replay_equals_batch_store(self, small_world):
        source = TraceReplaySource.from_dataset(small_world)
        store = ScenarioStore([])
        config = StreamConfig.from_builder(
            small_world.config.builder_config(), synchronous=True
        )
        report = StreamPipeline(source, StoreSink(store), config).run()
        assert report.late_dropped == 0
        assert diff_stores(small_world.store, store) == []
        assert stores_equivalent(small_world.store, store)
        assert_population_eids(store, small_world.population)
        # Assembled scenarios carry their frames' feature blocks.
        for key in store.keys:
            v = store.v_scenario(key)
            assert v.features is not None
            for row, detection in zip(v.features, v.detections):
                assert np.shares_memory(row, detection.feature)

    def test_in_order_replay_threaded(self, small_world):
        source = TraceReplaySource.from_dataset(small_world)
        store = ScenarioStore([])
        config = StreamConfig.from_builder(
            small_world.config.builder_config(), queue_capacity=32
        )
        report = StreamPipeline(source, StoreSink(store), config).run()
        assert report.shed == 0
        assert stores_equivalent(small_world.store, store)

    def test_jittered_replay_within_lateness_equals_batch(self, small_world):
        source = TraceReplaySource.from_dataset(
            small_world, ReplayConfig(jitter_ticks=3, seed=5)
        )
        store = ScenarioStore([])
        config = StreamConfig.from_builder(
            small_world.config.builder_config(),
            synchronous=True,
            allowed_lateness=3,
        )
        report = StreamPipeline(source, StoreSink(store), config).run()
        assert report.late_dropped == 0
        assert stores_equivalent(small_world.store, store)

    def test_multi_tick_windows_equal_batch(self, windowed_world):
        source = TraceReplaySource.from_dataset(
            windowed_world, ReplayConfig(jitter_ticks=2, seed=1)
        )
        store = ScenarioStore([])
        config = StreamConfig.from_builder(
            windowed_world.config.builder_config(),
            synchronous=True,
            allowed_lateness=2,
        )
        StreamPipeline(source, StoreSink(store), config).run()
        assert diff_stores(windowed_world.store, store) == []

    def test_insufficient_lateness_drops_late_events(self, small_world):
        source = TraceReplaySource.from_dataset(
            small_world, ReplayConfig(jitter_ticks=4, seed=2)
        )
        store = ScenarioStore([])
        config = StreamConfig.from_builder(
            small_world.config.builder_config(),
            synchronous=True,
            allowed_lateness=0,
        )
        report = StreamPipeline(source, StoreSink(store), config).run()
        assert report.late_dropped > 0


# ---------------------------------------------------------------------------
# pipeline: checkpoint/restore, zero duplicate emission
# ---------------------------------------------------------------------------
class TestKillRestore:
    def test_kill_and_restore_completes_without_duplicates(
        self, small_world, tmp_path
    ):
        checkpoint = str(tmp_path / "stream.ck.json")
        builder_config = small_world.config.builder_config()
        log = EventLog(capacity=100_000)
        previous = set_event_log(log)
        try:
            store = ScenarioStore([])
            killed = StreamPipeline(
                TraceReplaySource.from_dataset(small_world),
                StoreSink(store),
                StreamConfig.from_builder(
                    builder_config,
                    synchronous=True,
                    checkpoint_path=checkpoint,
                    checkpoint_every_windows=3,
                    max_events=240,
                ),
            ).run()
            assert killed.killed and killed.checkpoints_saved > 0
            assert os.path.exists(checkpoint)

            resumed = StreamPipeline(
                TraceReplaySource.from_dataset(small_world),
                StoreSink(store),
                StreamConfig.from_builder(
                    builder_config,
                    synchronous=True,
                    checkpoint_path=checkpoint,
                ),
            ).run()
        finally:
            set_event_log(previous)

        assert resumed.restored
        assert not resumed.killed
        assert stores_equivalent(small_world.store, store)
        assert (
            killed.events_applied + resumed.events_applied
            >= resumed.events_processed_total
        )
        # The flight recorder proves zero duplicate emissions: exactly
        # one emitted event per scenario across both attempts.
        emitted = [
            (event["fields"]["cell"], event["fields"]["window"])
            for event in log.events(ev.STREAM_SCENARIO_EMITTED)
        ]
        assert len(emitted) == len(set(emitted))
        assert len(emitted) == len(small_world.store)
        restores = log.events(ev.STREAM_CHECKPOINT_RESTORED)
        assert len(restores) == 1
        assert (
            restores[0]["fields"]["events_processed"]
            <= killed.events_processed_total
        )

    def test_kill_between_checkpoints_suppresses_reemission(
        self, small_world, tmp_path
    ):
        """Windows closed after the last checkpoint re-assemble on
        restore and must be swallowed by the idempotent sink."""
        checkpoint = str(tmp_path / "stream.ck.json")
        builder_config = small_world.config.builder_config()
        store = ScenarioStore([])
        killed = StreamPipeline(
            TraceReplaySource.from_dataset(small_world),
            StoreSink(store),
            StreamConfig.from_builder(
                builder_config,
                synchronous=True,
                checkpoint_path=checkpoint,
                checkpoint_every_windows=5,  # sparse: kill after a close
                max_events=300,
            ),
        ).run()
        assert killed.killed
        resumed = StreamPipeline(
            TraceReplaySource.from_dataset(small_world),
            StoreSink(store),
            StreamConfig.from_builder(
                builder_config, synchronous=True, checkpoint_path=checkpoint
            ),
        ).run()
        assert stores_equivalent(small_world.store, store)
        # Windows closed after the last checkpoint were re-assembled on
        # restore and suppressed by the sink, not double-added
        # (store.add would have raised otherwise).
        assert resumed.duplicates_suppressed > 0
        assert (
            resumed.scenarios_emitted_total + resumed.duplicates_suppressed
            == len(small_world.store)
        )

    def test_restore_refuses_changed_semantics(self, small_world, tmp_path):
        checkpoint = str(tmp_path / "stream.ck.json")
        builder_config = small_world.config.builder_config()
        StreamPipeline(
            TraceReplaySource.from_dataset(small_world),
            StoreSink(ScenarioStore([])),
            StreamConfig.from_builder(
                builder_config,
                synchronous=True,
                checkpoint_path=checkpoint,
                max_events=200,
            ),
        ).run()
        mismatched = StreamPipeline(
            TraceReplaySource.from_dataset(small_world),
            StoreSink(ScenarioStore([])),
            StreamConfig.from_builder(
                builder_config,
                synchronous=True,
                checkpoint_path=checkpoint,
                allowed_lateness=7,  # different semantics
            ),
        )
        with pytest.raises(CheckpointMismatch, match="allowed_lateness"):
            mismatched.run()

    def test_checkpoint_requires_lossless_policy(self):
        with pytest.raises(ValueError, match="block"):
            StreamConfig(checkpoint_path="x.json", overflow="shed")

    @pytest.mark.parametrize("jitter", [0, 2])
    def test_kill_and_checkpoint_mid_batch_restore_exactly_once(
        self, small_world, tmp_path, jitter
    ):
        """The kill cuts a batch, and the checkpoint taken on that
        batch's window close records the cut as the resume offset, so
        the restored source resumes inside the batch."""
        replay = ReplayConfig(jitter_ticks=jitter, seed=4)
        items = list(TraceReplaySource.from_dataset(small_world, replay).events())
        builder_config = small_world.config.builder_config()
        total = sum(event_count(item) for item in items)
        # Past the first third, find a batch whose first two events
        # close a window: the kill lands right after them.
        assembler = WindowAssembler(
            window_ticks=builder_config.window_ticks, allowed_lateness=jitter
        )
        offset, applied = None, 0
        for item in items:
            if applied > total // 3 and event_kind(item) == "e" and len(item) > 2:
                closed, _late = assembler.offer(item[:2])
                if closed:
                    offset = applied + 2
                    break
                assembler.offer(item[2:])
            else:
                assembler.offer(item)
            applied += event_count(item)
        assert offset is not None

        def source():
            return TraceReplaySource.from_dataset(small_world, replay)

        checkpoint = str(tmp_path / "stream.ck.json")
        log = EventLog(capacity=100_000)
        previous = set_event_log(log)
        try:
            store = ScenarioStore([])
            killed = StreamPipeline(
                source(),
                StoreSink(store),
                StreamConfig.from_builder(
                    builder_config,
                    synchronous=True,
                    allowed_lateness=jitter,
                    checkpoint_path=checkpoint,
                    max_events=offset,
                ),
            ).run()
            assert killed.killed and killed.events_applied == offset
            assert load_checkpoint(checkpoint).events_processed == offset
            resumed = StreamPipeline(
                source(),
                StoreSink(store),
                StreamConfig.from_builder(
                    builder_config,
                    synchronous=True,
                    allowed_lateness=jitter,
                    checkpoint_path=checkpoint,
                ),
            ).run()
        finally:
            set_event_log(previous)
        assert resumed.restored and not resumed.killed
        assert killed.events_applied + resumed.events_applied == total
        assert resumed.events_processed_total == total
        assert resumed.late_dropped == 0
        assert diff_stores(small_world.store, store) == []
        emitted = [
            (event["fields"]["cell"], event["fields"]["window"])
            for event in log.events(ev.STREAM_SCENARIO_EMITTED)
        ]
        assert len(emitted) == len(set(emitted)) == len(small_world.store)


# ---------------------------------------------------------------------------
# pipeline: sinks, sources, metrics
# ---------------------------------------------------------------------------
class TestPipelineIntegration:
    def test_service_sink_feeds_live_service(self, small_world):
        store = ScenarioStore([])
        service = MatchService(
            store,
            grid=small_world.grid,
            universe=small_world.eids,
            config=ServiceConfig(workers=1),
        )
        sink = ServiceSink(service)
        config = StreamConfig.from_builder(
            small_world.config.builder_config(), synchronous=True
        )
        report = StreamPipeline(
            TraceReplaySource.from_dataset(small_world), sink, config
        ).run()
        assert len(service.store) == len(small_world.store)
        assert report.scenarios_applied == len(small_world.store)
        assert stores_equivalent(small_world.store, service.store)
        # Feeding the same stream again is fully suppressed.
        again = StreamPipeline(
            TraceReplaySource.from_dataset(small_world), sink, config
        ).run()
        assert again.scenarios_applied == 0
        assert again.duplicates_suppressed == len(small_world.store)

    def test_store_sink_drives_watchlist(self, small_world):
        store = ScenarioStore([])
        watch = IncrementalMatcher(store, small_world.eids)
        watch.add_targets(list(small_world.eids[:8]))
        config = StreamConfig.from_builder(
            small_world.config.builder_config(), synchronous=True
        )
        StreamPipeline(
            TraceReplaySource.from_dataset(small_world),
            StoreSink(store, watch=watch),
            config,
        ).run()
        assert watch.scenarios_consumed == len(small_world.store)

    def test_synthetic_live_source_is_deterministic(self):
        config = ExperimentConfig(
            num_people=15, cells_per_side=3, duration=100.0, seed=3
        )
        runs = []
        for _ in range(2):
            store = ScenarioStore([])
            source = SyntheticLiveSource(config, max_windows=5)
            StreamPipeline(
                source,
                StoreSink(store),
                StreamConfig.from_builder(
                    config.builder_config(), synchronous=True
                ),
            ).run()
            assert_population_eids(store, source.population)
            runs.append(store)
        assert stores_equivalent(runs[0], runs[1])
        assert {k.tick for k in runs[0].keys} == {0, 1, 2, 3, 4}

    def test_shed_policy_conserves_events(self, small_world):
        source = TraceReplaySource.from_dataset(small_world)
        total = sum(event_count(item) for item in source.events())
        store = ScenarioStore([])
        config = StreamConfig.from_builder(
            small_world.config.builder_config(),
            queue_capacity=4,
            overflow="shed",
        )
        report = StreamPipeline(
            TraceReplaySource.from_dataset(small_world), StoreSink(store), config
        ).run()
        assert report.events_applied + report.shed == total

    def test_threaded_shed_counts_events(self, small_world):
        """A sink slower than the source makes the one-item queue shed
        whole batches; the report and the shed counter count their
        events, so applied + shed still equals the source's events."""
        import time

        class SlowSink(StoreSink):
            def emit_window(self, scenarios):
                time.sleep(0.002)
                return super().emit_window(scenarios)

        total = sum(
            event_count(item)
            for item in TraceReplaySource.from_dataset(small_world).events()
        )
        with private_registry() as registry:
            report = StreamPipeline(
                TraceReplaySource.from_dataset(small_world),
                SlowSink(ScenarioStore([])),
                StreamConfig.from_builder(
                    small_world.config.builder_config(),
                    queue_capacity=1,
                    overflow="shed",
                ),
            ).run()
        assert report.shed > 0
        assert report.events_applied + report.shed == total
        assert registry.counter("ev_stream_shed_total").total() == report.shed
        assert sum(published_events(registry).values()) == report.events_applied

    def test_metrics_recorded(self, small_world):
        with private_registry() as registry:
            store = ScenarioStore([])
            config = StreamConfig.from_builder(
                small_world.config.builder_config(), synchronous=True
            )
            report = StreamPipeline(
                TraceReplaySource.from_dataset(small_world),
                StoreSink(store),
                config,
            ).run()
        source_events = TraceReplaySource.from_dataset(small_world).events()
        assert published_events(registry) == kind_counts(source_events)
        assert sum(published_events(registry).values()) == report.events_applied
        assert registry.counter(
            "ev_stream_scenarios_emitted_total"
        ).total() == len(small_world.store)
        assert registry.counter("ev_stream_windows_closed_total").total() > 0

    def test_report_render_mentions_key_figures(self, small_world):
        store = ScenarioStore([])
        config = StreamConfig.from_builder(
            small_world.config.builder_config(), synchronous=True
        )
        report = StreamPipeline(
            TraceReplaySource.from_dataset(small_world), StoreSink(store), config
        ).run()
        text = report.render()
        assert "events applied" in text
        assert "duplicates suppressed" in text
        assert str(report.windows_closed) in text

    def test_replay_requires_traces(self, small_world):
        stripped = type(small_world)(
            config=small_world.config,
            population=small_world.population,
            grid=small_world.grid,
            traces=None,
            store=small_world.store,
        )
        with pytest.raises(ValueError, match="no traces"):
            TraceReplaySource.from_dataset(stripped)

    def test_replay_config_validation(self):
        with pytest.raises(ValueError, match="speedup"):
            ReplayConfig(speedup=-1.0)
        with pytest.raises(ValueError, match="jitter"):
            ReplayConfig(jitter_ticks=-2)


class TestEventCounter:
    """``ev_stream_events_total`` is tallied in the pipeline and
    published per window close and at run end: whenever it can be
    scraped, it equals the events applied so far, by kind."""

    def config(self, world, **overrides):
        return StreamConfig.from_builder(world.config.builder_config(), **overrides)

    def test_killed_run_publishes_its_events(self, small_world):
        source_events = explode(TraceReplaySource.from_dataset(small_world).events())
        max_events = len(source_events) // 2 + 1
        # The kill lands mid-window, after events no close published.
        window_ticks = small_world.config.builder_config().window_ticks
        last, before = source_events[max_events - 1], source_events[max_events - 2]
        assert last.tick // window_ticks == before.tick // window_ticks
        with private_registry() as registry:
            report = StreamPipeline(
                TraceReplaySource.from_dataset(small_world),
                StoreSink(ScenarioStore([])),
                self.config(small_world, synchronous=True, max_events=max_events),
            ).run()
        assert report.killed
        assert report.events_applied == max_events
        assert published_events(registry) == kind_counts(
            batches_of(source_events[:max_events])
        )

    def test_threaded_run_publishes_every_event(self, small_world):
        with private_registry() as registry:
            report = StreamPipeline(
                TraceReplaySource.from_dataset(small_world),
                StoreSink(ScenarioStore([])),
                self.config(small_world, queue_capacity=32),
            ).run()
        assert report.shed == 0
        assert published_events(registry) == kind_counts(
            TraceReplaySource.from_dataset(small_world).events()
        )

    def test_scrape_at_window_close_sees_every_applied_event(self, small_world):
        class CountingSource:
            def __init__(self, source):
                self.source = source
                self.counts = {"e": 0, "v": 0}

            def events(self):
                for item in self.source.events():
                    self.counts[event_kind(item)] += event_count(item)
                    yield item

        class ScrapingSink(StoreSink):
            def emit_window(self, scenarios):
                scrapes.append((published_events(registry), dict(source.counts)))
                return super().emit_window(scenarios)

        scrapes = []
        source = CountingSource(TraceReplaySource.from_dataset(small_world))
        with private_registry() as registry:
            report = StreamPipeline(
                source,
                ScrapingSink(ScenarioStore([])),
                self.config(small_world, synchronous=True),
            ).run()
        assert len(scrapes) == report.windows_closed
        for scraped, applied in scrapes:
            assert scraped == applied
