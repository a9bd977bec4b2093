"""The columnar world build equals the per-object one, bit for bit.

``tests/oracles/world.py`` keeps the object path as the executable
spec.  On small random worlds this suite checks that production
reproduces it exactly: trace positions, scenario keys with their
inclusive/vague EID sets, detection ids, true VIDs and feature bytes,
the fitted camera graph, and the event streams of both stream sources.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import build_dataset
from repro.stream import SyntheticLiveSource, TraceReplaySource
from repro.stream.events import event_kind
from tests.oracles.world import oracle_live_events, oracle_world

LIVE_WINDOWS = 4


def event_record(event):
    """A comparable, exact rendering of one stream event."""
    if event_kind(event) == "e":
        return ("e", event.tick, event.cell_id, event.eid.index, event.vague)
    return (
        "v",
        event.tick,
        event.cell_id,
        tuple(
            (detection_id, vid, feature.tobytes())
            for detection_id, vid, feature in zip(
                event.detection_ids.tolist(), event.vids.tolist(), event.features
            )
        ),
    )


def item_records(items):
    """The records of a production stream's events: one per sighting of
    each batch, one per frame."""
    records = []
    for item in items:
        if event_kind(item) == "v":
            records.append(event_record(item))
            continue
        for tick, cell, eid, vague in zip(
            item.ticks.tolist(), item.cells.tolist(), item.eids.tolist(), item.vague.tolist()
        ):
            records.append(("e", tick, cell, item.eid_table[eid].index, vague))
    return records


def scenario_record(scenario):
    return (
        scenario.key,
        scenario.e.inclusive,
        scenario.e.vague,
        tuple(
            (d.detection_id, d.true_vid.index, d.feature.tobytes())
            for d in scenario.v.detections
        ),
    )


@st.composite
def small_configs(draw):
    shape = draw(st.sampled_from(["grid", "hex"]))
    return ExperimentConfig(
        num_people=draw(st.integers(5, 60)),
        region_side=400.0,
        cells_per_side=draw(st.integers(1, 4)),
        cell_shape=shape,
        hex_radius=draw(st.sampled_from([60.0, 110.0])),
        mobility_model=draw(
            st.sampled_from(["random_waypoint", "random_walk", "gauss_markov", "hotspot"])
        ),
        vague_width=draw(st.sampled_from([0.0, 12.0])),
        duration=10.0 * draw(st.integers(3, 39)),
        sample_dt=10.0,
        warmup=draw(st.sampled_from([0.0, 40.0])),
        device_carry_rate=draw(st.sampled_from([1.0, 0.7])),
        multi_device_rate=draw(st.sampled_from([0.0, 0.3])),
        e_drift_sigma=draw(st.sampled_from([0.0, 15.0, 400.0])),
        e_miss_rate=draw(st.sampled_from([0.0, 0.2])),
        v_miss_rate=draw(st.sampled_from([0.0, 0.2])),
        window_ticks=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 10_000)),
    )


def _case(**overrides):
    base = dict(
        num_people=40, region_side=400.0, cells_per_side=3, duration=200.0,
        sample_dt=10.0, warmup=40.0, seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=small_configs())
@example(config=_case(warmup=0.0))
@example(config=_case(mobility_model="random_walk", e_drift_sigma=15.0, e_miss_rate=0.2))
@example(config=_case(mobility_model="gauss_markov", v_miss_rate=0.2, vague_width=12.0))
@example(config=_case(mobility_model="hotspot", window_ticks=3, vague_width=12.0,
                      e_drift_sigma=15.0))
@example(config=_case(device_carry_rate=0.7, multi_device_rate=0.3, window_ticks=2))
@example(config=_case(cell_shape="hex", hex_radius=60.0, vague_width=12.0,
                      e_drift_sigma=400.0, e_miss_rate=0.2, window_ticks=2))
def test_columnar_world_equals_object_world(config):
    dataset = build_dataset(config)
    oracle = oracle_world(config)

    assert np.array_equal(dataset.traces.positions, oracle.positions)

    store = dataset.store
    expected = {s.key: scenario_record(s) for s in oracle.scenarios}
    assert set(store.keys) == set(expected)
    for key in store.keys:
        assert scenario_record(store.get(key)) == expected[key]

    got, want = dataset.topology.to_arrays(), oracle.topology.to_arrays()
    assert got.keys() == want.keys()
    for name in got:
        assert np.array_equal(got[name], want[name]), name

    replay = TraceReplaySource.from_dataset(dataset).events()
    assert item_records(replay) == [
        event_record(e) for e in oracle.replay_events
    ]

    windows = min(LIVE_WINDOWS, config.num_ticks // config.window_ticks)
    live = SyntheticLiveSource(config, max_windows=windows).events()
    assert item_records(live) == [
        event_record(e) for e in oracle_live_events(config, windows)
    ]
