"""The V side keeps no per-detection objects.

A V-Scenario holds its detections as id, VID and feature columns, and a
:class:`~repro.sensing.scenarios.Detection` is only built when a caller
asks for one.  On the smoke world, building, loading and live-replaying
a store leave no new ``Detection`` alive; the live store still equals
the batch one; and a checkpoint taken mid-window, with open frames,
writes the same version-2 JSON as the per-detection encoding and
round-trips exactly.
"""

import gc
import json

import pytest

from repro.bench.datasets import default_config
from repro.datagen.dataset import build_dataset
from repro.datagen.io import load_dataset, save_dataset
from repro.sensing.builder import VFrame
from repro.sensing.scenarios import Detection, ScenarioStore
from repro.service import MatchService, ServiceConfig
from repro.stream import (
    ServiceSink,
    StreamConfig,
    StreamPipeline,
    TraceReplaySource,
    diff_stores,
)
from repro.stream.assembler import WindowAssembler
from repro.stream.checkpoint import load_checkpoint, save_checkpoint, snapshot
from tests.oracles.stream import checkpoint_document


@pytest.fixture(scope="module")
def smoke_world():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_BENCH_SCALE", "smoke")
        config = default_config()
    return build_dataset(config)


class NewDetections:
    """Collects the ``Detection`` objects alive on exit that were not
    alive on entry."""

    def __enter__(self):
        gc.collect()
        self._before = {id(o) for o in gc.get_objects() if isinstance(o, Detection)}
        self.found = []
        return self

    def __exit__(self, *exc):
        gc.collect()
        self.found = [
            o
            for o in gc.get_objects()
            if isinstance(o, Detection) and id(o) not in self._before
        ]
        return False


def test_build_keeps_no_detection_objects(smoke_world):
    with NewDetections() as new:
        dataset = build_dataset(smoke_world.config)
    assert new.found == []
    assert dataset.store.total_detections() > 0


def test_load_keeps_no_detection_objects(smoke_world, tmp_path):
    path = save_dataset(smoke_world, tmp_path / "world.npz")
    with NewDetections() as new:
        loaded = load_dataset(path)
    assert new.found == []
    assert diff_stores(smoke_world.store, loaded.store) == []


def test_live_replay_keeps_no_detection_objects(smoke_world):
    store = ScenarioStore([])
    with NewDetections() as new:
        service = MatchService(
            store,
            grid=smoke_world.grid,
            universe=smoke_world.eids,
            config=ServiceConfig(),
        ).start()
        try:
            report = StreamPipeline(
                TraceReplaySource.from_dataset(smoke_world),
                ServiceSink(service),
                StreamConfig.from_builder(
                    smoke_world.config.builder_config(), synchronous=True
                ),
            ).run()
        finally:
            service.stop()
    assert new.found == []
    assert report.scenarios_applied == len(smoke_world.store)
    assert diff_stores(smoke_world.store, store) == []


def test_mid_window_checkpoint_matches_object_encoding(smoke_world, tmp_path):
    config = StreamConfig.from_builder(smoke_world.config.builder_config())
    assembler = WindowAssembler(
        window_ticks=config.window_ticks,
        inclusive_threshold=config.inclusive_threshold,
        vague_threshold=config.vague_threshold,
    )
    # Stop after the third frame of window 5: its sightings and three
    # frames are open.
    offered = frames = 0
    for item in TraceReplaySource.from_dataset(smoke_world).events():
        assembler.offer(item)
        offered += 1
        if isinstance(item, VFrame) and item.tick // config.window_ticks == 5:
            frames += 1
            if frames == 3:
                break
    state = snapshot(
        assembler,
        events_processed=offered,
        scenarios_emitted=0,
        config=config.fingerprint(),
    )
    (open_window,) = state.open_windows.values()
    assert len(open_window.frames) == 3
    assert any(len(frame.detection_ids) for frame in open_window.frames.values())

    path = tmp_path / "ck.json"
    save_checkpoint(str(path), state)
    written = path.read_text(encoding="utf-8")
    assert written == json.dumps(checkpoint_document(state))

    again = tmp_path / "again.json"
    save_checkpoint(str(again), load_checkpoint(str(path)))
    assert again.read_text(encoding="utf-8") == written
    assert load_checkpoint(str(path)).open_windows == state.open_windows
