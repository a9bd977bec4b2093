"""Tests for the fusion layer: trajectories, tracklets, fused index."""

import numpy as np
import pytest

from repro.core.matcher import EVMatcher
from repro.fusion.index import FusedIndex
from repro.fusion.trajectories import (
    ETrajectory,
    build_e_trajectories,
    build_v_tracklets,
)
from repro.sensing.scenarios import (
    Detection,
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.world.entities import EID, VID


def unit(*values):
    v = np.array(values, dtype=float)
    return v / np.linalg.norm(v)


def tiny_store():
    """Cell 0 over 3 ticks: person 1 present throughout, person 2 joins
    at tick 1; person 1 is vague at tick 2."""
    f1, f2 = unit(1, 0, 0), unit(0, 1, 0)
    scenarios = []
    spec = [
        (0, [(1, f1)], []),
        (1, [(1, f1), (2, f2)], []),
        (2, [(2, f2)], [(1, f1)]),
    ]
    det_id = 0
    for tick, present, vague in spec:
        key = ScenarioKey(cell_id=0, tick=tick)
        detections = []
        for vid_index, feature in present + vague:
            detections.append(
                Detection(det_id, feature, VID(vid_index))
            )
            det_id += 1
        scenarios.append(
            EVScenario(
                e=EScenario(
                    key=key,
                    inclusive=frozenset(EID(i) for i, _f in present),
                    vague=frozenset(EID(i) for i, _f in vague),
                ),
                v=VScenario.of(key, tuple(detections)),
            )
        )
    return ScenarioStore(scenarios)


class TestETrajectories:
    def test_build_from_store(self):
        trajectories = build_e_trajectories(tiny_store())
        t1 = trajectories[EID(1)]
        assert t1.sightings == ((0, 0, False), (1, 0, False), (2, 0, True))
        assert trajectories[EID(2)].sightings == ((1, 0, False), (2, 0, False))

    def test_cell_at_ignores_vague(self):
        trajectories = build_e_trajectories(tiny_store())
        t1 = trajectories[EID(1)]
        assert t1.cell_at(0) == 0
        assert t1.cell_at(2) is None  # vague sighting untrusted

    def test_cells_visited(self):
        t = ETrajectory(
            eid=EID(0),
            sightings=((0, 3, False), (1, 3, False), (2, 5, False), (3, 3, True)),
        )
        assert t.cells_visited() == (3, 5)


class TestVTracklets:
    def test_links_same_person_across_ticks(self):
        tracklets = build_v_tracklets(tiny_store(), link_threshold=0.6)
        # Person 1 spans ticks 0-2 in cell 0, person 2 spans 1-2.
        by_identity = {}
        for t in tracklets:
            vid = t.detections[0][1].true_vid
            by_identity.setdefault(vid, []).append(t)
        assert len(by_identity[VID(1)]) == 1
        assert len(by_identity[VID(1)][0]) == 3
        assert len(by_identity[VID(2)][0]) == 2

    def test_purity_perfect_on_clean_features(self):
        for tracklet in build_v_tracklets(tiny_store()):
            assert tracklet.purity() == 1.0

    def test_threshold_breaks_links(self):
        # Same person, slightly different looks per window: a strict
        # threshold refuses the link, a lenient one takes it.
        looks = [unit(1, 0.1 * i, 0) for i in range(3)]
        scenarios = []
        for tick, feature in enumerate(looks):
            key = ScenarioKey(cell_id=0, tick=tick)
            scenarios.append(
                EVScenario(
                    e=EScenario(key=key, inclusive=frozenset({EID(1)})),
                    v=VScenario.of(key, (Detection(tick, feature, VID(1)),)),
                )
            )
        store = ScenarioStore(scenarios)
        strict = build_v_tracklets(store, link_threshold=0.99)
        lenient = build_v_tracklets(store, link_threshold=0.6)
        assert all(len(t) == 1 for t in strict)
        assert max(len(t) for t in lenient) == 3

    def test_invalid_parameters(self):
        store = tiny_store()
        with pytest.raises(ValueError):
            build_v_tracklets(store, link_threshold=0.0)
        with pytest.raises(ValueError):
            build_v_tracklets(store, max_gap=-1)

    def test_gap_tolerance(self):
        """A person missed in one window reconnects with max_gap=1."""
        f1 = unit(1, 0, 0)
        scenarios = []
        det_id = 0
        for tick, present in ((0, True), (1, False), (2, True)):
            key = ScenarioKey(cell_id=0, tick=tick)
            detections = ()
            if present:
                detections = (Detection(det_id, f1, VID(1)),)
                det_id += 1
            scenarios.append(
                EVScenario(
                    e=EScenario(key=key, inclusive=frozenset({EID(1)})),
                    v=VScenario.of(key, detections),
                )
            )
        store = ScenarioStore(scenarios)
        with_gap = build_v_tracklets(store, max_gap=1)
        without_gap = build_v_tracklets(store, max_gap=0)
        assert max(len(t) for t in with_gap) == 2
        assert max(len(t) for t in without_gap) == 1

    def test_tracklets_on_real_world(self, ideal_dataset):
        tracklets = build_v_tracklets(ideal_dataset.store)
        long_ones = [t for t in tracklets if len(t) >= 3]
        assert long_ones, "a real world must produce multi-window tracklets"
        purity = sum(t.purity() for t in long_ones) / len(long_ones)
        assert purity >= 0.95


class TestFusedIndex:
    @pytest.fixture(scope="class")
    def index(self, ideal_dataset):
        report = EVMatcher(ideal_dataset.store).match_universal()
        return FusedIndex(ideal_dataset.store, report)

    def test_profiles_cover_universe(self, index, ideal_dataset):
        assert index.num_profiles == len(ideal_dataset.eids)

    def test_profile_has_both_sides(self, index):
        eid = index.eids[0]
        profile = index.profile(eid)
        assert profile.e_trajectory is not None
        assert profile.centroid is not None
        assert profile.num_appearances > 0

    def test_unknown_eid_raises(self, index):
        with pytest.raises(KeyError):
            index.profile(EID(10**6))

    def test_attribution_mostly_correct(self, index, ideal_dataset):
        assert index.attribution_accuracy(ideal_dataset.truth) >= 0.9

    def test_identify_detection_roundtrip(self, index):
        eid = index.eids[3]
        appearances = index.appearances_of(eid)
        assert appearances
        _key, detection = appearances[0]
        assert index.identify_detection(detection.detection_id) == eid
        assert index.identify_detection(10**9) is None

    def test_who_was_at_consistency(self, index, ideal_dataset):
        key = ideal_dataset.store.keys[len(ideal_dataset.store) // 2]
        electronic, visual = index.who_was_at(key.cell_id, key.tick)
        assert electronic, "an occupied scenario must have electronic presence"
        overlap = set(electronic) & set(visual)
        # Fused sides must largely agree on who was there.
        assert len(overlap) >= 0.7 * len(visual)

    def test_who_was_at_missing_scenario(self, index):
        assert index.who_was_at(10**6, 10**6) == ([], [])

    def test_co_travelers(self, index):
        eid = index.eids[0]
        pairs = index.co_travelers(eid, min_shared=2)
        for other, shared in pairs:
            assert other != eid
            assert shared >= 2
        counts = [n for _e, n in pairs]
        assert counts == sorted(counts, reverse=True)
        with pytest.raises(ValueError):
            index.co_travelers(eid, min_shared=0)

    def test_invalid_threshold(self, ideal_dataset):
        report = EVMatcher(ideal_dataset.store).match_universal()
        with pytest.raises(ValueError):
            FusedIndex(ideal_dataset.store, report, attribution_threshold=1.0)


class TestSmoothing:
    def test_invalid_blend(self, ideal_dataset):
        from repro.fusion.smoothing import smooth_store

        with pytest.raises(ValueError):
            smooth_store(ideal_dataset.store, blend=1.5)

    def test_structure_preserved(self, ideal_dataset):
        from repro.fusion.smoothing import smooth_store

        smoothed = smooth_store(ideal_dataset.store)
        assert smoothed.keys == ideal_dataset.store.keys
        for key in ideal_dataset.store.keys:
            original = ideal_dataset.store.get(key)
            copy = smoothed.get(key)
            assert copy.e.inclusive == original.e.inclusive
            assert [d.detection_id for d in copy.v.detections] == [
                d.detection_id for d in original.v.detections
            ]

    def test_blend_zero_keeps_features(self, ideal_dataset):
        from repro.fusion.smoothing import smooth_store

        smoothed = smooth_store(ideal_dataset.store, blend=0.0)
        key = ideal_dataset.store.keys[0]
        np.testing.assert_allclose(
            smoothed.get(key).v.features,
            ideal_dataset.store.get(key).v.features,
        )

    def test_features_stay_unit_norm(self, ideal_dataset):
        from repro.fusion.smoothing import smooth_store

        smoothed = smooth_store(ideal_dataset.store)
        key = ideal_dataset.store.keys[0]
        norms = np.linalg.norm(smoothed.get(key).v.features, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-9)

    def test_smoothing_does_not_hurt_matching(self, ideal_dataset):
        from repro.fusion.smoothing import smooth_store

        targets = list(ideal_dataset.sample_targets(40, seed=7))
        raw = EVMatcher(ideal_dataset.store).match(targets)
        smoothed = EVMatcher(smooth_store(ideal_dataset.store)).match(targets)
        assert (
            smoothed.score(ideal_dataset.truth).accuracy
            >= raw.score(ideal_dataset.truth).accuracy - 0.03
        )
