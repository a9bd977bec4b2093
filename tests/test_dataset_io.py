"""Tests for dataset persistence (save/load round trip)."""

import dataclasses
import zipfile

import numpy as np
import pytest

import repro.datagen.io as dataset_io
from repro.core.matcher import EVMatcher
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import build_dataset
from repro.datagen.io import FORMAT_VERSION, load_dataset, save_dataset
from repro.sensing.scenarios import (
    Detection,
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)


@pytest.fixture(scope="module")
def dataset():
    built = build_dataset(
        ExperimentConfig(
            num_people=50,
            cells_per_side=2,
            duration=200.0,
            warmup=0.0,
            vague_width=20.0,
            e_drift_sigma=5.0,
            v_miss_rate=0.1,
            seed=13,
        )
    )
    # Two ragged edge cases the flat columns must carry: a scenario
    # with EIDs but no detections, and one with detections but no EIDs.
    store = built.store
    donor = store.get(store.keys[0])
    tick = max(store.ticks) + 1
    first_id = 1 + max(
        d.detection_id for key in store.keys for d in store.get(key).v.detections
    )
    no_detections = ScenarioKey(cell_id=0, tick=tick)
    no_eids = ScenarioKey(cell_id=1, tick=tick)
    extra = [
        EVScenario(
            e=EScenario(key=no_detections, inclusive=donor.e.inclusive),
            v=VScenario.of(no_detections),
        ),
        EVScenario(
            e=EScenario(key=no_eids, inclusive=frozenset()),
            v=VScenario.of(
                no_eids,
                tuple(
                    Detection(first_id + j, d.feature, d.true_vid)
                    for j, d in enumerate(donor.v.detections)
                ),
            ),
        ),
    ]
    assert donor.e.inclusive and donor.v.detections
    return dataclasses.replace(
        built, store=ScenarioStore([store.get(k) for k in store.keys] + extra)
    )


def assert_same_world(loaded, original):
    """Keys, E sets, detections (ids, true VIDs, feature bytes) and the
    camera graph's arrays all equal."""
    assert loaded.store.keys == original.store.keys
    for key in original.store.keys:
        want = original.store.get(key)
        got = loaded.store.get(key)
        assert got.e.inclusive == want.e.inclusive
        assert got.e.vague == want.e.vague
        assert [d.detection_id for d in got.v.detections] == [
            d.detection_id for d in want.v.detections
        ]
        assert [d.true_vid for d in got.v.detections] == [
            d.true_vid for d in want.v.detections
        ]
        for restored, built in zip(got.v.detections, want.v.detections):
            assert restored.feature.dtype == built.feature.dtype
            assert np.array_equal(restored.feature, built.feature)
    want_topo = original.topology.to_arrays()
    got_topo = loaded.topology.to_arrays()
    assert got_topo.keys() == want_topo.keys()
    for name, array in want_topo.items():
        assert got_topo[name].dtype == array.dtype
        assert np.array_equal(got_topo[name], array), name


def rewrite(path, **members):
    """Re-save the archive at ``path`` with ``members`` replaced."""
    with np.load(path, allow_pickle=False) as archive:
        data = dict(archive)
    data.update(members)
    np.savez(path, **data)


def member(path, name):
    with np.load(path, allow_pickle=False) as archive:
        return archive[name].copy()


class TestRoundTrip:
    def test_suffix_enforced(self, dataset, tmp_path):
        written = save_dataset(dataset, tmp_path / "world")
        assert written.suffix == ".npz"
        assert written.exists()

    def test_store_identical(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "world.npz")
        assert_same_world(load_dataset(path), dataset)

    def test_edge_scenarios_survive(self, dataset, tmp_path):
        loaded = load_dataset(save_dataset(dataset, tmp_path / "world.npz"))
        sizes = [
            (len(s.e.inclusive) + len(s.e.vague), len(s.v.detections))
            for s in map(loaded.store.get, loaded.store.keys)
        ]
        assert any(eids and not detections for eids, detections in sizes)
        assert any(detections and not eids for eids, detections in sizes)

    def test_scenarios_hold_their_feature_rows(
        self, dataset, practical_dataset, tmp_path
    ):
        """Built and loaded worlds hand each V-Scenario the row block its
        detections' features are views of: no stacking, no copy."""
        loaded = load_dataset(save_dataset(dataset, tmp_path / "world.npz"))
        for world in (practical_dataset, loaded):
            for key in world.store.keys:
                v = world.store.v_scenario(key)
                assert v.features is not None
                assert v.features is v.features
                for row, detection in zip(v.features, v.detections):
                    assert np.shares_memory(row, detection.feature)

    def test_empty_store_roundtrip(self, dataset, tmp_path):
        empty = dataclasses.replace(dataset, store=ScenarioStore([]))
        loaded = load_dataset(save_dataset(empty, tmp_path / "empty.npz"))
        assert len(loaded.store) == 0

    def test_file_is_uncompressed(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "world.npz")
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {
                zipfile.ZIP_STORED
            }

    def test_compressed_archive_loads_identically(self, dataset, tmp_path):
        # Earlier builds wrote the same members through savez_compressed;
        # those worlds keep loading to the same store.
        path = save_dataset(dataset, tmp_path / "world.npz")
        with np.load(path, allow_pickle=False) as archive:
            members = dict(archive)
        old = tmp_path / "compressed.npz"
        np.savez_compressed(old, **members)
        assert_same_world(load_dataset(old), dataset)

    def test_interrupted_save_keeps_the_existing_file(
        self, dataset, tmp_path, monkeypatch
    ):
        path = save_dataset(dataset, tmp_path / "world.npz")
        before = path.read_bytes()

        def savez_then_fail(fh, **arrays):
            fh.write(b"half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(dataset_io.np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(dataset, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["world.npz"]

    def test_config_and_truth_identical(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "world.npz")
        loaded = load_dataset(path)
        assert loaded.config == dataset.config
        assert loaded.truth == dataset.truth
        assert loaded.traces is None

    def test_matching_results_identical(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "world.npz")
        loaded = load_dataset(path)
        targets = list(dataset.sample_targets(15, seed=2))
        original = EVMatcher(dataset.store).match(targets)
        restored = EVMatcher(loaded.store).match(targets)
        assert original.predictions() == restored.predictions()

    def test_version_check(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "world.npz")
        data = dict(np.load(path, allow_pickle=False))
        data["version"] = np.int64(FORMAT_VERSION + 1)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="format version"):
            load_dataset(path)

    def test_hex_dataset_roundtrip(self, tmp_path):
        from repro.world.cells import HexCellGrid

        dataset = build_dataset(
            ExperimentConfig(
                num_people=20,
                cell_shape="hex",
                hex_radius=120.0,
                region_side=300.0,
                duration=100.0,
                warmup=0.0,
                seed=3,
            )
        )
        loaded = load_dataset(save_dataset(dataset, tmp_path / "hex.npz"))
        assert isinstance(loaded.grid, HexCellGrid)
        assert loaded.store.keys == dataset.store.keys


class TestCorruptArchives:
    """A damaged archive fails loudly, naming the bad member."""

    @pytest.fixture
    def path(self, dataset, tmp_path):
        return save_dataset(dataset, tmp_path / "world.npz")

    def test_offsets_must_start_at_zero(self, path):
        offsets = member(path, "incl_offsets")
        offsets[0] = 1
        rewrite(path, incl_offsets=offsets)
        with pytest.raises(ValueError, match="incl_offsets starts at 1"):
            load_dataset(path)

    def test_offsets_must_not_decrease(self, path):
        offsets = member(path, "det_offsets")
        offsets[1] = offsets[-1]
        assert offsets[2] < offsets[1]
        rewrite(path, det_offsets=offsets)
        with pytest.raises(ValueError, match="det_offsets decreases"):
            load_dataset(path)

    def test_offsets_must_end_at_the_column_length(self, path):
        # A truncated flat column: the offsets run past its end.
        rewrite(path, vague_flat=member(path, "vague_flat")[:-1])
        with pytest.raises(ValueError, match="vague_offsets ends at"):
            load_dataset(path)

    def test_offsets_need_one_entry_per_scenario_boundary(self, path):
        rewrite(path, det_offsets=member(path, "det_offsets")[:-1])
        with pytest.raises(ValueError, match="det_offsets has shape"):
            load_dataset(path)

    def test_keys_must_be_pairs(self, path):
        rewrite(path, keys=member(path, "keys")[:, :1])
        with pytest.raises(ValueError, match="keys has shape"):
            load_dataset(path)

    def test_features_need_one_row_per_detection(self, path):
        rewrite(path, det_features=member(path, "det_features")[:-1])
        with pytest.raises(ValueError, match="det_features has"):
            load_dataset(path)

    def test_vids_need_one_entry_per_detection(self, path):
        rewrite(path, det_vids=member(path, "det_vids")[:-1])
        with pytest.raises(ValueError, match="det_vids has"):
            load_dataset(path)


def test_cluster_serve_never_parses_a_dataset_in_the_gateway(
    dataset, tmp_path, monkeypatch, capsys
):
    """``cluster serve --dataset`` hands the path to the workers; only
    they load the world.  Workers are spawned, so the patched loader
    below sees the gateway process's calls alone."""
    from repro.cli import main

    path = save_dataset(dataset, tmp_path / "world.npz")
    calls = []

    def record(target):
        calls.append(target)
        raise AssertionError("the gateway parsed the world")

    monkeypatch.setattr("repro.cli.load_dataset", record)
    monkeypatch.setattr("repro.datagen.io.load_dataset", record)
    code = main(
        [
            "cluster", "serve", "--dataset", str(path),
            "--processes", "1", "--replication", "1", "--threads", "1",
            "--serve-seconds", "0.1",
            "--journal-dir", str(tmp_path / "journals"),
        ]
    )
    assert code == 0
    assert calls == []
    captured = capsys.readouterr().out
    assert "cluster up" in captured and "drained clean" in captured
