"""Tests for exclusion-based VID filtering (matched-VID reuse)."""

import numpy as np
import pytest

from repro.core.matcher import EVMatcher, MatcherConfig
from repro.core.refining import RefiningConfig
from repro.core.vid_filtering import FilterConfig, VIDFilter
from repro.sensing.scenarios import (
    Detection,
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.world.entities import EID, VID


def store_from_features(cells):
    """cells: list of [(vid_index, feature_vector), ...] per scenario."""
    scenarios = []
    det_id = 0
    for i, dets in enumerate(cells):
        key = ScenarioKey(cell_id=i, tick=i)
        detections = []
        eids = set()
        for vid_index, feature in dets:
            detections.append(
                Detection(
                    detection_id=det_id,
                    feature=np.asarray(feature, dtype=float),
                    true_vid=VID(vid_index),
                )
            )
            eids.add(EID(vid_index))
            det_id += 1
        scenarios.append(
            EVScenario(
                e=EScenario(key=key, inclusive=frozenset(eids)),
                v=VScenario.of(key, tuple(detections)),
            )
        )
    return ScenarioStore(scenarios)


def unit(*values):
    v = np.array(values, dtype=float)
    return v / np.linalg.norm(v)


class TestExclusionMechanics:
    def test_paper_example_two_eids(self):
        """The paper's Sec. IV-A example: EID1 is alone in scenario B,
        EID1 and EID2 share scenario A.  EID2's identity in A is
        ambiguous from similarities alone (both candidates look alike);
        ruling out the VID already matched to EID1 resolves it."""
        # Both people co-occur in every scenario of EID 2's list, so
        # their probability products tie and the per-scenario argmax
        # falls back to detection order — which picks person 1, wrongly,
        # unless person 1's matched appearance is ruled out.
        f1 = unit(1, 0, 0)
        f2 = unit(0, 1, 0)
        store = store_from_features(
            [
                [(1, f1), (2, f2)],  # scenario A: both present
                [(1, f1)],           # scenario B: only person 1
                [(1, f1), (2, f2)],  # scenario C: both again
            ]
        )
        keys = list(store.keys)
        vid_filter = VIDFilter(store, FilterConfig(exclusion_threshold=0.9))
        evidence = {
            EID(1): [keys[0], keys[1]],
            EID(2): [keys[0], keys[2]],
        }
        results = vid_filter.match(evidence, use_exclusion=True)
        # EID 1 (shorter list? both len 2; tie broken by EID order) is
        # matched first and claims its appearance; EID 2's choices must
        # then avoid person 1's detections.
        chosen_vids_2 = {d.true_vid for d in results[EID(2)].chosen}
        assert VID(2) in chosen_vids_2
        assert VID(1) not in chosen_vids_2

    def test_exclusion_never_empties_a_scenario(self):
        """If every candidate in a scenario looks claimed, suppression
        is skipped rather than choosing from nothing."""
        f = unit(1, 0)
        store = store_from_features([[(1, f)], [(1, f)]])
        keys = list(store.keys)
        vid_filter = VIDFilter(store, FilterConfig(exclusion_threshold=0.5))
        results = vid_filter.match(
            {EID(1): [keys[0]], EID(2): [keys[1]]}, use_exclusion=True
        )
        # EID 2's only candidate is person 1 (already claimed) — the
        # filter still returns a choice instead of crashing.
        assert len(results[EID(2)].chosen) == 1

    def test_shaky_matches_claim_nothing(self):
        """A low-agreement match must not claim an appearance."""
        store = store_from_features(
            [
                [(1, unit(1, 0, 0))],
                [(1, unit(0, 1, 0))],  # wildly inconsistent appearance
            ]
        )
        keys = list(store.keys)
        vid_filter = VIDFilter(store, FilterConfig(min_agreement=0.9))
        result = vid_filter.match_one(EID(1), keys)
        assert vid_filter._claim_centroid(result) is None

    def test_without_exclusion_order_is_irrelevant(self):
        f1, f2 = unit(1, 0), unit(0, 1)
        store = store_from_features([[(1, f1), (2, f2)], [(1, f1), (2, f2)]])
        keys = list(store.keys)
        vid_filter = VIDFilter(store)
        a = vid_filter.match({EID(1): keys, EID(2): keys})
        b = vid_filter.match({EID(2): keys, EID(1): keys})
        for eid in (EID(1), EID(2)):
            assert [d.detection_id for d in a[eid].chosen] == [
                d.detection_id for d in b[eid].chosen
            ]


class TestMatcherIntegration:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="exclusion"):
            MatcherConfig(
                use_exclusion=True, refining=RefiningConfig(max_rounds=2)
            )
        with pytest.raises(ValueError):
            FilterConfig(exclusion_threshold=1.0)

    def test_universal_with_exclusion_not_worse(self, ideal_dataset):
        plain = EVMatcher(ideal_dataset.store).match_universal()
        excl = EVMatcher(
            ideal_dataset.store, MatcherConfig(use_exclusion=True)
        ).match_universal()
        assert (
            excl.score(ideal_dataset.truth).accuracy
            >= plain.score(ideal_dataset.truth).accuracy - 0.02
        )
