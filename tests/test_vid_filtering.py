"""Tests for the V stage: membership vectors, scoring, choices, pooling."""

import numpy as np
import pytest

from repro.core.vid_filtering import (
    FilterConfig,
    MatchResult,
    VIDFilter,
    membership_vector,
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
from repro.world.features import AppearanceModel, FeatureSpace


def unit(*values):
    v = np.array(values, dtype=float)
    return v / np.linalg.norm(v)


def make_store_with_detections(cells, appearance=None, noise_rng=None):
    """cells: list of lists of VID indices; one scenario per entry."""
    if appearance is None:
        appearance = AppearanceModel(
            num_vids=32,
            space=FeatureSpace(observation_noise=0.2, outlier_rate=0.0),
            seed=0,
        )
    rng = noise_rng if noise_rng is not None else np.random.default_rng(0)
    scenarios = []
    det_id = 0
    for i, vids in enumerate(cells):
        key = ScenarioKey(cell_id=i, tick=i)
        detections = []
        for v in vids:
            detections.append(
                Detection(
                    detection_id=det_id,
                    feature=appearance.observe(VID(v), rng),
                    true_vid=VID(v),
                )
            )
            det_id += 1
        scenarios.append(
            EVScenario(
                e=EScenario(key=key, inclusive=frozenset({EID(v) for v in vids})),
                v=VScenario.of(key, tuple(detections)),
            )
        )
    return ScenarioStore(scenarios)


class TestMembershipVector:
    def test_self_membership_is_one(self):
        f = np.stack([unit(1, 0), unit(0, 1)])
        vec = membership_vector(f, f)
        np.testing.assert_allclose(vec, [1.0, 1.0])

    def test_empty_scenarios(self):
        f = np.stack([unit(1, 0)])
        assert membership_vector(np.empty((0, 0)), f).shape == (0,)
        np.testing.assert_allclose(
            membership_vector(f, np.empty((0, 0))), [0.0]
        )

    def test_picks_best_match(self):
        a = np.stack([unit(1, 0)])
        b = np.stack([unit(0, 1), unit(1, 0.1)])
        vec = membership_vector(a, b)
        # best match is the near-identical second row
        assert vec[0] > 0.9

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 8))
        b = rng.standard_normal((7, 8))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        vec = membership_vector(a, b)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)


class TestFilterConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_evidence": 0},
            {"agreement_threshold": 0.0},
            {"agreement_threshold": 1.0},
            {"min_agreement": 0.0},
            {"min_agreement": 1.5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FilterConfig(**kwargs)


class TestVIDFilter:
    def test_clean_features_match_correctly(self):
        store = make_store_with_detections(
            [[0, 1, 2], [0, 3, 4], [0, 5, 6]]
        )
        vid_filter = VIDFilter(store)
        result = vid_filter.match_one(EID(0), list(store.keys))
        assert not result.is_empty
        assert all(d.true_vid == VID(0) for d in result.chosen)
        assert result.best is not None and result.best.true_vid == VID(0)

    def test_one_choice_per_scenario(self):
        store = make_store_with_detections([[0, 1], [0, 2], [0, 3]])
        result = VIDFilter(store).match_one(EID(0), list(store.keys))
        assert len(result.chosen) == len(result.scenario_keys) == 3

    def test_empty_evidence_gives_empty_result(self):
        store = make_store_with_detections([[0, 1]])
        result = VIDFilter(store).match_one(EID(0), [])
        assert result.is_empty
        assert result.best is None
        assert not result.is_acceptable(FilterConfig())

    def test_detectionless_scenarios_skipped(self):
        store = make_store_with_detections([[0, 1], [], [0, 2]])
        keys = list(store.keys)
        result = VIDFilter(store).match_one(EID(0), keys)
        assert ScenarioKey(1, 1) not in result.scenario_keys
        assert len(result.chosen) == 2

    def test_duplicate_keys_deduplicated(self):
        store = make_store_with_detections([[0, 1], [0, 2]])
        keys = [store.keys[0], store.keys[0], store.keys[1]]
        result = VIDFilter(store).match_one(EID(0), keys)
        assert len(result.scenario_keys) == 2

    def test_max_evidence_cap(self):
        store = make_store_with_detections([[0, 1], [0, 2], [0, 3], [0, 4]])
        vid_filter = VIDFilter(store, FilterConfig(max_evidence=2))
        result = vid_filter.match_one(EID(0), list(store.keys))
        assert len(result.scenario_keys) == 2

    def test_extraction_charged_once_per_scenario(self):
        from repro.metrics.timing import SimulatedClock

        store = make_store_with_detections([[0, 1, 2], [0, 3]])
        clock = SimulatedClock()
        vid_filter = VIDFilter(store, clock=clock)
        vid_filter.match_one(EID(0), list(store.keys))
        first = clock.detections_extracted
        assert first == 5
        # A second target over the same scenarios: no new extraction.
        vid_filter.match_one(EID(1), list(store.keys))
        assert clock.detections_extracted == first
        assert vid_filter.scenarios_extracted == 2

    def test_comparisons_charged_per_target(self):
        from repro.metrics.timing import SimulatedClock

        store = make_store_with_detections([[0, 1], [0, 2]])
        clock = SimulatedClock()
        vid_filter = VIDFilter(store, clock=clock)
        vid_filter.match_one(EID(0), list(store.keys))
        first = clock.comparisons
        assert first == 8  # 2 scenarios x (2 dets x 2 dets) both directions
        vid_filter.match_one(EID(0), list(store.keys))
        assert clock.comparisons == 2 * first  # charged again (per-EID mappers)

    def test_batch_computes_each_shared_pair_once(self):
        from repro.metrics.timing import SimulatedClock

        # Scenario sizes 3, 2, 3, 3; the targets share scenarios 0-2.
        store = make_store_with_detections(
            [[0, 1, 2], [0, 3], [0, 1, 4], [1, 5, 6]]
        )
        k0, k1, k2, k3 = store.keys
        evidence = {
            EID(0): [k0, k1, k2],
            EID(1): [k0, k2, k3],
            EID(2): [k1, k2],
        }
        clock = SimulatedClock()
        vid_filter = VIDFilter(store, clock=clock)
        fetched = []
        features_of = vid_filter._features_of

        def spy(scenario_id):
            fetched.append(scenario_id)
            return features_of(scenario_id)

        vid_filter._features_of = spy
        vid_filter.match(evidence)
        # Unordered pairs {01, 02, 12, 03, 23}: the fill computes each
        # once, grouped by its lower id (partners of 0: 1, 2, 3; of 1:
        # 2; of 2: 3), for both directions; every target then reads its
        # own ordered pairs from the table.
        assert sorted(fetched) == sorted([0, 1, 2, 3] + [1, 2] + [2, 3])
        table = {
            (a, b): m for a, row in vid_filter._pairs.items() for b, m in row.items()
        }
        assert len(table) == 10
        # Charged per target and ordered pair, shared or not.
        assert clock.comparisons == (
            (3 * 2 + 3 * 3 + 2 * 3) * 2  # target 0: pairs 01, 02, 12
            + (3 * 3 + 3 * 3 + 3 * 3) * 2  # target 1: pairs 02, 03, 23
            + (2 * 3) * 2  # target 2: pair 12
        )
        # A long-lived filter matching again recomputes nothing.
        fetched.clear()
        vid_filter.match(evidence)
        assert fetched == []
        assert all(vid_filter._pairs[a][b] is m for (a, b), m in table.items())

    def test_agreement_high_for_consistent_choices(self):
        store = make_store_with_detections([[0, 1], [0, 2], [0, 3]])
        result = VIDFilter(store).match_one(EID(0), list(store.keys))
        assert result.agreement == 1.0
        assert result.is_acceptable(FilterConfig(min_agreement=0.75))

    def test_single_scenario_agreement_is_one(self):
        store = make_store_with_detections([[0, 1]])
        result = VIDFilter(store).match_one(EID(0), [store.keys[0]])
        assert result.agreement == 1.0

    def test_match_many(self):
        store = make_store_with_detections([[0, 1], [0, 1], [1, 2]])
        keys = list(store.keys)
        results = VIDFilter(store).match(
            {EID(0): keys[:2], EID(1): keys}
        )
        assert set(results.keys()) == {EID(0), EID(1)}

    def test_pool_merges_choices(self):
        store = make_store_with_detections([[0, 1], [0, 2], [0, 3], [0, 4]])
        keys = list(store.keys)
        vid_filter = VIDFilter(store)
        a = vid_filter.match_one(EID(0), keys[:2])
        b = vid_filter.match_one(EID(0), keys[2:])
        pooled = vid_filter.pool(a, b)
        assert len(pooled.chosen) == 4
        assert pooled.scenario_keys == a.scenario_keys + b.scenario_keys
        assert 0.0 <= pooled.agreement <= 1.0

    def test_pool_rejects_different_eids(self):
        store = make_store_with_detections([[0, 1], [1, 2]])
        vid_filter = VIDFilter(store)
        a = vid_filter.match_one(EID(0), [store.keys[0]])
        b = vid_filter.match_one(EID(1), [store.keys[1]])
        with pytest.raises(ValueError, match="different EIDs"):
            vid_filter.pool(a, b)

    def test_scores_are_probability_products(self):
        store = make_store_with_detections([[0, 1], [0, 2]])
        result = VIDFilter(store).match_one(EID(0), list(store.keys))
        for score in result.scores:
            assert 0.0 <= score <= 1.0

    def test_missing_target_detection_degrades_not_crashes(self):
        # Target 0 absent from the second scenario's V side entirely.
        store = make_store_with_detections([[0, 1], [2, 3]])
        result = VIDFilter(store).match_one(EID(0), list(store.keys))
        assert len(result.chosen) == 2  # still produces choices
