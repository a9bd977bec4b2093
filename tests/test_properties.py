"""Cross-module property tests: invariants over randomly generated
scenario stores, tying the E stage, V stage and metrics together."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.edp import EDPConfig, EDPMatcher
from repro.core.set_splitting import SetSplitter, SplitConfig
from repro.core.vid_filtering import VIDFilter
from repro.sensing.scenarios import (
    Detection,
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.world.entities import EID, VID

# A random consistent store: per (cell, tick), a random subset of a
# small universe is present, with one detection per present person.
universe_size = 8


@st.composite
def consistent_stores(draw):
    num_cells = draw(st.integers(min_value=1, max_value=3))
    num_ticks = draw(st.integers(min_value=1, max_value=8))
    rng_seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(rng_seed)
    features = rng.standard_normal((universe_size, 8))
    features /= np.linalg.norm(features, axis=1, keepdims=True)
    scenarios = []
    det_id = 0
    for tick in range(num_ticks):
        # Partition people over cells at this tick.
        assignment = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_cells - 1),
                min_size=universe_size,
                max_size=universe_size,
            )
        )
        for cell in range(num_cells):
            members = [i for i in range(universe_size) if assignment[i] == cell]
            if not members:
                continue
            key = ScenarioKey(cell_id=cell, tick=tick)
            detections = tuple(
                Detection(det_id + j, features[i], VID(i))
                for j, i in enumerate(members)
            )
            det_id += len(members)
            scenarios.append(
                EVScenario(
                    e=EScenario(
                        key=key,
                        inclusive=frozenset(EID(i) for i in members),
                    ),
                    v=VScenario.of(key, detections),
                )
            )
    return ScenarioStore(scenarios)


class TestSplitterInvariants:
    @given(consistent_stores(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_evidence_invariants(self, store, seed):
        """For any store: evidence scenarios contain the target
        inclusively, candidates equal the evidence intersection, and
        recorded is duplicate-free and within the store."""
        universe = set()
        for e_scenario in store.e_scenarios():
            universe |= e_scenario.eids
        if not universe:
            return
        targets = sorted(universe)[:3]
        splitter = SetSplitter(store, SplitConfig(seed=seed, min_gap_ticks=0))
        result = splitter.run(targets, universe=universe)
        assert len(result.recorded) == len(set(result.recorded))
        for key in result.recorded:
            assert key in store
        for target in targets:
            expected = set(universe)
            for key in result.evidence[target]:
                e_scenario = store.e_scenario(key)
                assert target in e_scenario.inclusive
                expected &= set(e_scenario.inclusive | e_scenario.vague)
            assert result.candidates[target] == frozenset(expected)
            assert target in result.candidates[target]

    @given(consistent_stores())
    @settings(max_examples=20, deadline=None)
    def test_recorded_is_union_of_evidence(self, store):
        """Structural reuse invariant: the recorded set is exactly the
        union of per-target evidence lists — SS never charges the V
        stage for a scenario no target uses.  (SS beating EDP on
        *count* is a statistical property of large worlds, checked by
        the Fig. 5 benchmark, not a universal one: on toy stores EDP's
        per-target greedy can find near-minimal selections.)"""
        universe = set()
        for e_scenario in store.e_scenarios():
            universe |= e_scenario.eids
        if len(universe) < 4:
            return
        targets = sorted(universe)[:4]
        ss = SetSplitter(store, SplitConfig(seed=1, min_gap_ticks=0)).run(
            targets, universe=universe
        )
        used = {key for t in targets for key in ss.evidence[t]}
        assert set(ss.recorded) == used
        # And both algorithms distinguish the same toy targets when the
        # store permits it at all.
        edp = EDPMatcher(store, EDPConfig(seed=1, min_gap_ticks=0)).run(
            targets, universe=universe
        )
        assert ss.distinguished <= set(targets)
        assert edp.distinguished <= set(targets)


class TestFilterInvariants:
    @given(consistent_stores(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_choices_come_from_their_scenarios(self, store, seed):
        universe = set()
        for e_scenario in store.e_scenarios():
            universe |= e_scenario.eids
        if not universe:
            return
        target = sorted(universe)[0]
        splitter = SetSplitter(store, SplitConfig(seed=seed, min_gap_ticks=0))
        split = splitter.run([target], universe=universe)
        result = VIDFilter(store).match_one(target, split.evidence[target])
        assert len(result.chosen) == len(result.scenario_keys)
        for key, detection in zip(result.scenario_keys, result.chosen):
            scenario_ids = {
                d.detection_id for d in store.v_scenario(key).detections
            }
            assert detection.detection_id in scenario_ids
        for score in result.scores:
            assert 0.0 <= score <= 1.0 + 1e-9
        assert 0.0 <= result.agreement <= 1.0

    @given(consistent_stores())
    @settings(max_examples=20, deadline=None)
    def test_noise_free_distinguished_targets_match_perfectly(self, store):
        """With noise-free features, a fully distinguished target's
        choices are all the true person — the ideal-setting guarantee
        of Sec. IV-B."""
        universe = set()
        for e_scenario in store.e_scenarios():
            universe |= e_scenario.eids
        if not universe:
            return
        targets = sorted(universe)
        splitter = SetSplitter(store, SplitConfig(seed=2, min_gap_ticks=0))
        split = splitter.run(targets, universe=universe)
        vid_filter = VIDFilter(store)
        for target in split.distinguished:
            result = vid_filter.match_one(target, split.evidence[target])
            for detection in result.chosen:
                assert detection.true_vid == VID(target.index)
