"""Property tests for the streaming assembler's batch-equivalence
guarantee:

* an **in-order** replay of any small world through the streaming
  pipeline reproduces the batch builder's scenario store exactly;
* any **bounded shuffle** of the arrival order (jitter within the
  assembler's ``allowed_lateness``) reaches the same end state;
* the assembler alone is order-insensitive for hand-built event
  streams permuted within the lateness bound;
* the batched pipeline closes the same windows with the same
  scenarios, and counts the same events, as the per-event oracle
  (``tests/oracles/stream.py``) under any jitter, lateness (too little
  included), batch split and ``max_events`` kill.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import build_dataset
from repro.obs import MetricsRegistry, set_registry
from repro.sensing.builder import VFrame
from repro.sensing.scenarios import ScenarioStore
from repro.stream import (
    ReplayConfig,
    StoreSink,
    StreamConfig,
    StreamPipeline,
    TraceReplaySource,
    WindowAssembler,
    diff_stores,
)
from repro.stream.events import event_count, event_kind
from repro.world.entities import EID
from tests.oracles.stream import CellSighting, batches_of, explode, run_events


@pytest.fixture(scope="module")
def replay_world():
    """One world shared by the arrival-order properties."""
    return build_dataset(
        ExperimentConfig(
            num_people=24,
            cells_per_side=3,
            duration=120.0,
            sample_dt=10.0,
            seed=13,
        )
    )


@settings(max_examples=8, deadline=None)
@given(
    num_people=st.integers(min_value=5, max_value=20),
    cells=st.integers(min_value=2, max_value=3),
    window_ticks=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_in_order_replay_equals_batch_for_any_world(
    num_people, cells, window_ticks, seed
):
    config = ExperimentConfig(
        num_people=num_people,
        cells_per_side=cells,
        duration=80.0,
        sample_dt=10.0,
        window_ticks=window_ticks,
        seed=seed,
    )
    dataset = build_dataset(config)
    store = ScenarioStore([])
    report = StreamPipeline(
        TraceReplaySource.from_dataset(dataset),
        StoreSink(store),
        StreamConfig.from_builder(config.builder_config(), synchronous=True),
    ).run()
    assert report.late_dropped == 0
    assert diff_stores(dataset.store, store) == []


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    jitter=st.integers(min_value=1, max_value=5),
    jitter_seed=st.integers(min_value=0, max_value=10_000),
)
def test_bounded_shuffle_within_lateness_equals_batch(
    replay_world, jitter, jitter_seed
):
    store = ScenarioStore([])
    report = StreamPipeline(
        TraceReplaySource.from_dataset(
            replay_world,
            ReplayConfig(jitter_ticks=jitter, seed=jitter_seed),
        ),
        StoreSink(store),
        StreamConfig.from_builder(
            replay_world.config.builder_config(),
            synchronous=True,
            allowed_lateness=jitter,
        ),
    ).run()
    assert report.late_dropped == 0
    assert diff_stores(replay_world.store, store) == []


# ---------------------------------------------------------------------------
# assembler-only order insensitivity
# ---------------------------------------------------------------------------
@st.composite
def event_streams(draw):
    """A random in-order event stream over a few windows, plus a
    bounded-disorder permutation of it."""
    window_ticks = draw(st.integers(min_value=1, max_value=3))
    num_windows = draw(st.integers(min_value=1, max_value=4))
    num_ticks = window_ticks * num_windows
    events = []
    for tick in range(num_ticks):
        for cell in range(draw(st.integers(min_value=1, max_value=2))):
            for eid in draw(
                st.lists(
                    st.integers(min_value=0, max_value=5),
                    unique=True,
                    max_size=4,
                )
            ):
                events.append(
                    CellSighting(
                        tick=tick,
                        cell_id=cell,
                        eid=EID(eid),
                        vague=draw(st.booleans()),
                    )
                )
        if tick % window_ticks == window_ticks // 2:
            events.append(VFrame.of(tick, 0))
    lateness = draw(st.integers(min_value=1, max_value=3))
    # A bounded shuffle: sort by tick + U[0, lateness) mirrors the
    # replay source's jitter model.
    rng_seed = draw(st.integers(min_value=0, max_value=2**16))
    import numpy as np

    rng = np.random.default_rng(rng_seed)
    keys = [event.tick + rng.uniform(0.0, lateness) for event in events]
    shuffled = [
        event
        for _key, _i, event in sorted(
            zip(keys, range(len(events)), events), key=lambda t: (t[0], t[1])
        )
    ]
    return window_ticks, lateness, events, shuffled


def _end_state(assembler, events):
    scenarios = {}
    for item in batches_of(events, cuts=range(len(events))):
        closed, _late = assembler.offer(item)
        for window in closed:
            for scenario in window.scenarios:
                scenarios[scenario.key] = scenario
    for window in assembler.flush():
        for scenario in window.scenarios:
            scenarios[scenario.key] = scenario
    return scenarios


@settings(max_examples=60, deadline=None)
@given(data=event_streams())
def test_assembler_is_order_insensitive_within_lateness(data):
    window_ticks, lateness, in_order, shuffled = data
    baseline = _end_state(WindowAssembler(window_ticks=window_ticks), in_order)
    reordered_assembler = WindowAssembler(
        window_ticks=window_ticks, allowed_lateness=lateness
    )
    reordered = _end_state(reordered_assembler, shuffled)
    assert reordered_assembler.late_dropped == 0
    assert set(baseline) == set(reordered)
    for key, scenario in baseline.items():
        other = reordered[key]
        assert scenario.e.inclusive == other.e.inclusive
        assert scenario.e.vague == other.e.vague
        assert scenario.v.detections == other.v.detections


# ---------------------------------------------------------------------------
# batched pipeline vs the per-event oracle
# ---------------------------------------------------------------------------
def _split(items, cuts):
    """``items`` with every sighting batch also cut before each event
    position in ``cuts``."""
    out = []
    position = 0
    for item in items:
        count = event_count(item)
        if event_kind(item) == "e":
            inner = sorted(
                c - position for c in cuts if position < c < position + count
            )
            for start, end in zip([0] + inner, inner + [count]):
                out.append(item[start:end])
        else:
            out.append(item)
        position += count
    return out


def _window_record(scenarios):
    return tuple(
        (
            s.key,
            frozenset(e.index for e in s.e.inclusive),
            frozenset(e.index for e in s.e.vague),
            tuple(d.detection_id for d in s.v.detections),
        )
        for s in scenarios
    )


class _RecordingSink(StoreSink):
    def __init__(self):
        super().__init__(ScenarioStore([]))
        self.windows = []

    def emit_window(self, scenarios):
        self.windows.append(_window_record(scenarios))
        return super().emit_window(scenarios)


class _ListSource:
    def __init__(self, items):
        self.items = items

    def events(self):
        return iter(self.items)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    num_people=st.integers(min_value=2, max_value=12),
    cells=st.integers(min_value=1, max_value=3),
    window_ticks=st.integers(min_value=1, max_value=3),
    num_ticks=st.integers(min_value=3, max_value=12),
    world_seed=st.integers(min_value=0, max_value=10_000),
    jitter=st.integers(min_value=0, max_value=4),
    lateness=st.integers(min_value=0, max_value=4),
    jitter_seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_batched_pipeline_equals_per_event_oracle(
    num_people, cells, window_ticks, num_ticks, world_seed, jitter, lateness,
    jitter_seed, data,
):
    config = ExperimentConfig(
        num_people=num_people,
        cells_per_side=cells,
        duration=10.0 * max(num_ticks, window_ticks),
        sample_dt=10.0,
        window_ticks=window_ticks,
        vague_width=12.0,
        e_drift_sigma=15.0,
        e_miss_rate=0.2,
        seed=world_seed,
    )
    dataset = build_dataset(config)
    items = list(
        TraceReplaySource.from_dataset(
            dataset, ReplayConfig(jitter_ticks=jitter, seed=jitter_seed)
        ).events()
    )
    events = explode(items)
    cuts = data.draw(
        st.sets(st.integers(min_value=1, max_value=max(1, len(events) - 1)))
    )
    max_events = data.draw(
        st.none() | st.integers(min_value=1, max_value=len(events))
    )
    builder_config = config.builder_config()
    oracle = run_events(
        events,
        window_ticks=window_ticks,
        inclusive_threshold=builder_config.inclusive_threshold,
        vague_threshold=builder_config.vague_threshold,
        allowed_lateness=lateness,
        max_events=max_events,
    )

    sink = _RecordingSink()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        report = StreamPipeline(
            _ListSource(_split(items, cuts)),
            sink,
            StreamConfig.from_builder(
                builder_config,
                synchronous=True,
                allowed_lateness=lateness,
                max_events=max_events,
            ),
        ).run()
    finally:
        set_registry(previous)

    assert sink.windows == [_window_record(c.scenarios) for c in oracle.closed]
    assert report.killed == oracle.killed
    assert report.events_applied == oracle.events_applied
    assert report.late_dropped == oracle.late_dropped
    assert report.windows_closed == oracle.windows_closed
    assert report.peak_open_windows == oracle.peak_open_windows
    assert report.watermark == oracle.watermark
    counter = registry.counter("ev_stream_events_total")
    assert {k: int(counter.value(kind=k)) for k in ("e", "v")} == oracle.kinds
