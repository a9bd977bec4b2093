"""Tests for the E/V sensing models and scenario data types."""

import numpy as np
import pytest

from repro.sensing.e_sensing import ESensingConfig, ESensingModel
from repro.sensing.scenarios import (
    Detection,
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.sensing.v_sensing import VSensingConfig, VSensingModel
from repro.world.entities import EID, VID
from repro.world.features import AppearanceModel
from repro.world.geometry import Point


class TestESensing:
    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ESensingConfig(drift_sigma=-1.0)
        with pytest.raises(ValueError):
            ESensingConfig(miss_rate=1.5)

    def test_noise_free_sensing_is_exact(self):
        model = ESensingModel()
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        rng = np.random.default_rng(0)
        captured, observed = model.sense(points, rng)
        assert captured.tolist() == [0, 1]
        assert observed.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        # Noise-free sensing draws nothing.
        assert rng.random() == np.random.default_rng(0).random()

    def test_miss_rate_statistics(self):
        model = ESensingModel(ESensingConfig(miss_rate=0.5))
        points = np.zeros((1000, 2))
        captured, observed = model.sense(points, np.random.default_rng(1))
        assert 400 < len(captured) < 600
        assert observed.shape == (len(captured), 2)
        assert np.all(np.diff(captured) > 0)

    def test_drift_perturbs_positions(self):
        model = ESensingModel(ESensingConfig(drift_sigma=10.0))
        points = np.full((200, 2), 100.0)
        captured, observed = model.sense(points, np.random.default_rng(2))
        assert len(captured) == 200
        errors = np.hypot(observed[:, 0] - 100.0, observed[:, 1] - 100.0)
        # Rayleigh mean for sigma=10 is ~12.5 m.
        assert 9.0 < errors.mean() < 16.0

    def test_deterministic_given_rng(self):
        model = ESensingModel(ESensingConfig(drift_sigma=5.0, miss_rate=0.2))
        points = np.arange(100, dtype=float).reshape(50, 2)
        a = model.sense(points, np.random.default_rng(3))
        b = model.sense(points, np.random.default_rng(3))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestVSensing:
    @pytest.fixture
    def appearance(self):
        return AppearanceModel(num_vids=20, seed=0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            VSensingConfig(miss_rate=-0.1)

    def test_detects_everyone_without_misses(self, appearance):
        model = VSensingModel(appearance)
        (first, vids, block), (second, more_vids, _) = model.sense(
            [[1, 3], [2]], np.random.default_rng(0)
        )
        assert vids.tolist() == [1, 3]
        assert more_vids.tolist() == [2]
        assert first.tolist() + second.tolist() == [0, 1, 2]
        # Each frame's block holds its detections' features as rows.
        assert block.shape == (2, appearance.space.dimension)

    def test_detection_ids_globally_unique(self, appearance):
        model = VSensingModel(appearance)
        rng = np.random.default_rng(1)
        ids = []
        for _ in range(5):
            for frame, _vids, _block in model.sense([[0, 1], [], [5]], rng):
                ids.extend(frame.tolist())
        assert len(ids) == len(set(ids))
        assert model.detections_issued == len(ids)

    def test_miss_rate_statistics(self, appearance):
        model = VSensingModel(appearance, VSensingConfig(miss_rate=0.3))
        rng = np.random.default_rng(2)
        detected = sum(
            len(frame)
            for _ in range(100)
            for frame, _vids, _block in model.sense(
                [list(range(10)), list(range(10, 20))], rng
            )
        )
        assert 1200 < detected < 1600  # 2000 * 0.7 = 1400

    def test_features_unit_norm(self, appearance):
        model = VSensingModel(appearance)
        ((_ids, _vids, block),) = model.sense(
            [list(range(5))], np.random.default_rng(3)
        )
        for feature in block:
            assert np.linalg.norm(feature) == pytest.approx(1.0)

    def test_features_equal_one_at_a_time_observations(self, appearance):
        """Sensing a frame draws each person's outlier flag and noise in
        VID order, exactly as observing them one by one does."""
        model = VSensingModel(appearance)
        ((_ids, vids, block),) = model.sense([[2, 4, 7]], np.random.default_rng(4))
        rng = np.random.default_rng(4)
        for vid, feature in zip(vids.tolist(), block):
            expected = appearance.observe(VID(vid), rng)
            assert feature.tobytes() == expected.tobytes()


class TestScenarioTypes:
    def test_escenario_rejects_overlap(self):
        with pytest.raises(ValueError, match="inclusive and vague"):
            EScenario(
                key=ScenarioKey(0, 0),
                inclusive=frozenset({EID(1)}),
                vague=frozenset({EID(1)}),
            )

    def test_escenario_membership(self):
        s = EScenario(
            key=ScenarioKey(0, 0),
            inclusive=frozenset({EID(1)}),
            vague=frozenset({EID(2)}),
        )
        assert EID(1) in s and EID(2) in s and EID(3) not in s
        assert s.eids == frozenset({EID(1), EID(2)})
        assert len(s) == 2

    def test_detection_identity_semantics(self):
        f = np.ones(4) / 2.0
        a = Detection(detection_id=1, feature=f, true_vid=VID(0))
        b = Detection(detection_id=1, feature=f * 2, true_vid=VID(5))
        assert a == b  # identity is the detection id
        assert len({a, b}) == 1

    def test_vscenario_feature_matrix(self):
        f = np.ones(4) / 2.0
        v = VScenario.of(
            ScenarioKey(0, 0),
            (
                Detection(0, f, VID(0)),
                Detection(1, f, VID(1)),
            ),
        )
        assert v.features.shape == (2, 4)
        assert v.num_detections == 2
        # The block is held, not rebuilt; it is not part of equality.
        assert v.features is v.features
        assert v == VScenario.of(v.key, v.detections)

    def test_empty_vscenario_feature_matrix(self):
        v = VScenario.of(ScenarioKey(0, 0))
        assert v.features.size == 0

    def test_evscenario_key_mismatch(self):
        e = EScenario(key=ScenarioKey(0, 0), inclusive=frozenset())
        v = VScenario.of(ScenarioKey(1, 0))
        with pytest.raises(ValueError, match="mismatched"):
            EVScenario(e=e, v=v)


class TestScenarioStore:
    def make_store(self):
        scenarios = []
        for cell in range(2):
            for tick in range(3):
                key = ScenarioKey(cell, tick)
                scenarios.append(
                    EVScenario(
                        e=EScenario(key=key, inclusive=frozenset({EID(cell)})),
                        v=VScenario.of(key),
                    )
                )
        return ScenarioStore(scenarios)

    def test_indexing(self):
        store = self.make_store()
        assert len(store) == 6
        assert ScenarioKey(1, 2) in store
        assert store.get(ScenarioKey(1, 2)).key == ScenarioKey(1, 2)
        assert store.e_scenario(ScenarioKey(0, 0)).inclusive == frozenset({EID(0)})

    def test_duplicate_keys_rejected(self):
        s = self.make_store()
        key = ScenarioKey(0, 0)
        dup = EVScenario(
            e=EScenario(key=key, inclusive=frozenset()),
            v=VScenario.of(key),
        )
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioStore([dup, dup])

    def test_missing_key_raises(self):
        store = self.make_store()
        with pytest.raises(KeyError):
            store.get(ScenarioKey(9, 9))

    def test_ticks_and_keys_at_tick(self):
        store = self.make_store()
        assert store.ticks == (0, 1, 2)
        assert store.keys_at_tick(1) == (ScenarioKey(0, 1), ScenarioKey(1, 1))
        assert store.keys_at_tick(99) == ()

    def test_keys_sorted(self):
        store = self.make_store()
        assert list(store.keys) == sorted(store.keys)

    def test_e_scenarios_iteration_order(self):
        store = self.make_store()
        keys = [s.key for s in store.e_scenarios()]
        assert keys == list(store.keys)

    def test_add_appends_and_indexes(self):
        store = self.make_store()
        key = ScenarioKey(0, 3)
        store.add(
            EVScenario(
                e=EScenario(key=key, inclusive=frozenset({EID(5)})),
                v=VScenario.of(key),
            )
        )
        assert len(store) == 7
        assert key in store
        assert store.ticks == (0, 1, 2, 3)
        assert store.keys_at_tick(3) == (key,)
        assert list(store.keys) == sorted(store.keys)

    def test_add_rejects_duplicate_key(self):
        store = self.make_store()
        key = ScenarioKey(0, 0)
        dup = EVScenario(
            e=EScenario(key=key, inclusive=frozenset()),
            v=VScenario.of(key),
        )
        with pytest.raises(ValueError, match="duplicate"):
            store.add(dup)
