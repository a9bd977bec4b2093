"""Tests for the EDP baseline matcher."""

import pytest

from repro.core.edp import EDPConfig, EDPMatcher
from repro.sensing.scenarios import (
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.world.entities import EID


def eids(*indices):
    return frozenset(EID(i) for i in indices)


def make_store(e_sets, vague_sets=None):
    scenarios = []
    for i, inclusive in enumerate(e_sets):
        vague = vague_sets[i] if vague_sets else ()
        key = ScenarioKey(cell_id=i, tick=i * 10)
        scenarios.append(
            EVScenario(
                e=EScenario(key=key, inclusive=eids(*inclusive), vague=eids(*vague)),
                v=VScenario.of(key),
            )
        )
    return ScenarioStore(scenarios)


class TestEDPConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_scenarios_per_eid": 0},
            {"greedy_sample": 0},
            {"min_gap_ticks": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EDPConfig(**kwargs)


class TestEDPMatcher:
    def test_filters_to_singleton(self):
        store = make_store([{0, 1, 2}, {0, 1}, {0, 2}])
        result = EDPMatcher(store).run([EID(0)], universe=eids(0, 1, 2))
        assert result.candidates[EID(0)] == eids(0)
        assert EID(0) in result.distinguished

    def test_evidence_contains_target(self):
        store = make_store([{0, 1}, {0, 2}, {1, 2}])
        result = EDPMatcher(store).run([EID(0)], universe=eids(0, 1, 2))
        for key in result.evidence[EID(0)]:
            assert EID(0) in store.e_scenario(key).eids

    def test_vague_folded_into_eids(self):
        """EDP has no vague machinery: a vague sighting counts as
        presence, both for scanning and intersection."""
        store = make_store([{1}, {2}], vague_sets=[{0}, {0}])
        result = EDPMatcher(store).run([EID(0)], universe=eids(0, 1, 2))
        # Scenario 0 ({0 vague,1}) intersect scenario 1 ({0 vague,2}) -> {0}.
        assert result.candidates[EID(0)] == eids(0)

    def test_independent_per_target_selection(self):
        """Each target's scan is independent: removing other targets
        does not change a target's evidence."""
        store = make_store([{0, 1, 2}, {0, 1}, {0, 2}, {1, 2}])
        alone = EDPMatcher(store, EDPConfig(seed=5)).run(
            [EID(0)], universe=eids(0, 1, 2)
        )
        together = EDPMatcher(store, EDPConfig(seed=5)).run(
            [EID(0), EID(1), EID(2)], universe=eids(0, 1, 2)
        )
        assert alone.evidence[EID(0)] == together.evidence[EID(0)]

    def test_recorded_deduplicates(self):
        store = make_store([{0, 1}, {0, 2}, {1, 2}])
        result = EDPMatcher(store).run(
            [EID(0), EID(1)], universe=eids(0, 1, 2)
        )
        recorded = result.recorded
        assert len(recorded) == len(set(recorded))
        assert result.num_selected == len(recorded)

    def test_budget_respected(self):
        store = make_store([{0, 1}, {0, 2}, {0, 3}, {0, 4}])
        config = EDPConfig(max_scenarios_per_eid=1, greedy_sample=1)
        result = EDPMatcher(store, config).run(
            [EID(0)], universe=eids(0, 1, 2, 3, 4)
        )
        assert len(result.evidence[EID(0)]) <= 1
        assert EID(0) in result.unresolved

    def test_greedy_prefers_stronger_shrink(self):
        # Batch contains a weak ({0,1,2,3}) and a strong ({0}) scenario;
        # greedy with a batch covering both must pick the strong one first.
        store = make_store([{0, 1, 2, 3}, {0}])
        config = EDPConfig(greedy_sample=2, seed=0)
        result = EDPMatcher(store, config).run(
            [EID(0)], universe=eids(0, 1, 2, 3)
        )
        assert result.evidence[EID(0)][0] in (ScenarioKey(1, 10),)
        assert len(result.evidence[EID(0)]) == 1

    def test_errors(self):
        store = make_store([{0, 1}])
        with pytest.raises(ValueError):
            EDPMatcher(store).run([])
        with pytest.raises(ValueError, match="duplicates"):
            EDPMatcher(store).run([EID(0), EID(0)])
        with pytest.raises(ValueError, match="not in universe"):
            EDPMatcher(store).run([EID(7)], universe=eids(0, 1))

    def test_deterministic(self, ideal_dataset):
        targets = list(ideal_dataset.sample_targets(10, seed=1))
        a = EDPMatcher(ideal_dataset.store, EDPConfig(seed=9)).run(targets)
        b = EDPMatcher(ideal_dataset.store, EDPConfig(seed=9)).run(targets)
        assert a.evidence == b.evidence

    def test_no_reuse_makes_edp_select_more(self, ideal_dataset):
        """The headline comparison: on a real dataset EDP's distinct
        selected scenarios exceed the set splitter's."""
        from repro.core.set_splitting import SetSplitter, SplitConfig

        targets = list(ideal_dataset.sample_targets(40, seed=1))
        edp = EDPMatcher(ideal_dataset.store, EDPConfig(seed=2)).run(targets)
        ss = SetSplitter(ideal_dataset.store, SplitConfig(seed=2)).run(targets)
        assert edp.num_selected > ss.num_selected

    def test_clock_charged(self, ideal_dataset):
        from repro.metrics.timing import SimulatedClock

        clock = SimulatedClock()
        EDPMatcher(ideal_dataset.store, EDPConfig(seed=1), clock).run(
            list(ideal_dataset.sample_targets(5, seed=1))
        )
        assert clock.e_scenarios_examined > 0
