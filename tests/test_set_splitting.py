"""Tests for the E stage: Algorithm 1, the practical variant, and the
production SetSplitter (candidates, evidence, strategies, bounds)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import ideal_lower_bound, ideal_upper_bound, practical_upper_bound
from repro.core.set_splitting import (
    SelectionStrategy,
    SetSplitter,
    SplitConfig,
    algorithm1_set_split,
    practical_universal_split,
)
from repro.metrics.timing import SimulatedClock
from repro.sensing.scenarios import (
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.world.entities import EID
from tests.oracles.e_walk import KeyWalkSetSplitter


def eids(*indices):
    return frozenset(EID(i) for i in indices)


def make_store(e_sets, vague_sets=None):
    """Build a store from lists of (inclusive, vague) EID index sets;
    one scenario per entry, each on its own (cell, tick)."""
    scenarios = []
    for i, inclusive in enumerate(e_sets):
        vague = vague_sets[i] if vague_sets else ()
        key = ScenarioKey(cell_id=i, tick=i)
        scenarios.append(
            EVScenario(
                e=EScenario(
                    key=key,
                    inclusive=eids(*inclusive),
                    vague=eids(*vague),
                ),
                v=VScenario.of(key),
            )
        )
    return ScenarioStore(scenarios)


class TestAlgorithm1:
    def test_distinguishes_with_adequate_scenarios(self):
        universe = eids(0, 1, 2, 3)
        store = make_store([{0, 1}, {0, 2}, {0, 3}])
        recorded, partition = algorithm1_set_split(
            universe, list(store.e_scenarios())
        )
        assert partition.num_sets == 4
        # {0,2} splits both {0,1} and {2,3}, so 2 scenarios can suffice.
        assert 2 <= len(recorded) <= 3

    def test_skips_ineffective_scenarios(self):
        universe = eids(0, 1)
        store = make_store([{0, 1}, {5, 6}, {0}])
        recorded, partition = algorithm1_set_split(
            universe, list(store.e_scenarios())
        )
        assert recorded == [ScenarioKey(2, 2)]
        assert partition.num_sets == 2

    def test_respects_budget(self):
        universe = eids(0, 1, 2, 3)
        store = make_store([{0}, {1}, {2}])
        recorded, partition = algorithm1_set_split(
            universe, list(store.e_scenarios()), max_scenarios=1
        )
        assert len(recorded) == 1
        assert partition.num_sets == 2

    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=11)),
            min_size=0,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_theorem_4_2_upper_bound(self, scenario_sets):
        """At most n-1 effective scenarios are ever recorded."""
        n = 12
        universe = eids(*range(n))
        store = make_store(scenario_sets or [set()])
        recorded, partition = algorithm1_set_split(
            universe, list(store.e_scenarios())
        )
        assert len(recorded) <= ideal_upper_bound(n)
        # Each recorded scenario grew the partition by at least one set.
        assert partition.num_sets >= len(recorded) + 1

    def test_theorem_4_2_lower_bound_achievable(self):
        """log2(n) scenarios suffice when they encode a binary code."""
        n = 8
        universe = eids(*range(n))
        bit_sets = [
            {i for i in range(n) if i & (1 << b)} for b in range(3)
        ]
        store = make_store(bit_sets)
        recorded, partition = algorithm1_set_split(
            universe, list(store.e_scenarios())
        )
        assert len(recorded) == ideal_lower_bound(n) == 3
        assert partition.num_sets == n


class TestPracticalUniversalSplit:
    def test_vague_never_distinguishes(self):
        universe = eids(0, 1, 2)
        # EID 2 is always vague: it can never be separated from anyone.
        store = make_store([{0}, {1}], vague_sets=[{2}, {2}])
        recorded, tracker = practical_universal_split(
            universe, list(store.e_scenarios())
        )
        assert not tracker.confusable(EID(0), EID(1))
        assert tracker.confusable(EID(2), EID(0))
        assert tracker.confusable(EID(2), EID(1))

    def test_ideal_input_fully_distinguishes(self):
        universe = eids(0, 1, 2, 3)
        store = make_store([{0, 1}, {0, 2}, {0, 3}])
        recorded, tracker = practical_universal_split(
            universe, list(store.e_scenarios())
        )
        assert tracker.num_distinguished() == 4
        assert 2 <= len(recorded) <= 3

    def test_theorem_4_4_bound(self):
        n = 6
        universe = eids(*range(n))
        sets = [{i} for i in range(n)] * n
        store_sets = sets[: n * n]
        store = make_store(store_sets)
        recorded, _tracker = practical_universal_split(
            universe, list(store.e_scenarios())
        )
        assert len(recorded) <= practical_upper_bound(n)

    def test_budget(self):
        universe = eids(0, 1, 2)
        store = make_store([{0}, {1}, {2}])
        recorded, tracker = practical_universal_split(
            universe, list(store.e_scenarios()), max_scenarios=1
        )
        assert len(recorded) <= 1


class TestSplitConfig:
    def test_invalid(self):
        with pytest.raises(ValueError):
            SplitConfig(max_scenarios=0)
        with pytest.raises(ValueError):
            SplitConfig(min_gap_ticks=-1)


class TestSetSplitter:
    def test_single_target(self):
        store = make_store([{0, 1, 2}, {0, 1}, {0, 2}])
        splitter = SetSplitter(store, SplitConfig(strategy=SelectionStrategy.SEQUENTIAL, min_gap_ticks=0))
        result = splitter.run([EID(0)], universe=eids(0, 1, 2))
        assert result.candidates[EID(0)] == eids(0)
        assert result.distinguished == eids(0)

    def test_candidates_equal_evidence_intersection(self):
        store = make_store([{0, 1, 2, 3}, {0, 1}, {0, 2}, {1, 3}])
        splitter = SetSplitter(store, SplitConfig(min_gap_ticks=0))
        result = splitter.run([EID(0), EID(1)], universe=eids(0, 1, 2, 3))
        for target in result.targets:
            expected = set(eids(0, 1, 2, 3))
            for key in result.evidence[target]:
                e = store.e_scenario(key)
                expected &= set(e.inclusive | e.vague)
            assert result.candidates[target] == frozenset(expected)

    def test_evidence_scenarios_contain_target_inclusively(self):
        store = make_store([{0, 1}, {0, 2}, {1, 2}, {0}])
        splitter = SetSplitter(store, SplitConfig(min_gap_ticks=0))
        result = splitter.run([EID(0)], universe=eids(0, 1, 2))
        for key in result.evidence[EID(0)]:
            assert EID(0) in store.e_scenario(key).inclusive

    def test_unresolvable_target_reported(self):
        # EIDs 0 and 1 always co-occur: nothing can separate them.
        store = make_store([{0, 1}, {0, 1, 2}])
        splitter = SetSplitter(store, SplitConfig(min_gap_ticks=0))
        result = splitter.run([EID(0)], universe=eids(0, 1, 2))
        assert EID(0) in result.unresolved
        assert result.candidates[EID(0)] == eids(0, 1)

    def test_vague_target_sightings_not_used(self):
        # EID 0 is only ever vague; it has no usable positive evidence.
        store = make_store([{1}, {2}], vague_sets=[{0}, {0}])
        splitter = SetSplitter(store, SplitConfig(min_gap_ticks=0))
        result = splitter.run([EID(0)], universe=eids(0, 1, 2))
        assert result.evidence[EID(0)] == []
        assert EID(0) in result.unresolved

    def test_vague_eids_not_ruled_out(self):
        # Scenario 0: {0 inclusive, 2 vague}.  Intersecting for target 0
        # must keep 2 as a candidate.
        store = make_store([{0}], vague_sets=[{2}])
        splitter = SetSplitter(store, SplitConfig(min_gap_ticks=0))
        result = splitter.run([EID(0)], universe=eids(0, 1, 2))
        assert result.candidates[EID(0)] == eids(0, 2)

    def test_treat_vague_as_inclusive_ablation(self):
        store = make_store([{0}], vague_sets=[{2}])
        splitter = SetSplitter(
            store,
            SplitConfig(min_gap_ticks=0, treat_vague_as_inclusive=True),
        )
        result = splitter.run([EID(0)], universe=eids(0, 1, 2))
        # With the ablation, the vague EID counts as present, so the
        # scenario cannot even serve as positive evidence filtering it out.
        assert result.candidates[EID(0)] == eids(0, 2)

    def test_recorded_counts_each_scenario_once(self):
        store = make_store([{0, 1}, {0, 2}, {1, 2}])
        splitter = SetSplitter(store, SplitConfig(min_gap_ticks=0))
        result = splitter.run([EID(0), EID(1), EID(2)], universe=eids(0, 1, 2))
        assert len(result.recorded) == len(set(result.recorded))

    def test_min_gap_rule_blocks_same_cell_adjacent_ticks(self):
        scenarios = []
        # Same cell, ticks 0 and 1: the second is informative but too
        # close in time to the first, so it must not become evidence.
        for tick, inclusive in ((0, {0, 1}), (1, {0, 3}), (50, {0, 2})):
            key = ScenarioKey(cell_id=0, tick=tick)
            scenarios.append(
                EVScenario(
                    e=EScenario(key=key, inclusive=eids(*inclusive)),
                    v=VScenario.of(key),
                )
            )
        store = ScenarioStore(scenarios)
        splitter = SetSplitter(
            store,
            SplitConfig(strategy=SelectionStrategy.SEQUENTIAL, min_gap_ticks=5),
        )
        result = splitter.run([EID(0)], universe=eids(0, 1, 2, 3))
        ticks = [k.tick for k in result.evidence[EID(0)]]
        assert ticks == [0, 50]

    def test_budget_respected(self):
        store = make_store([{0, 1}, {0, 2}, {0, 3}])
        splitter = SetSplitter(store, SplitConfig(max_scenarios=2, min_gap_ticks=0))
        result = splitter.run([EID(0)], universe=eids(0, 1, 2, 3))
        assert result.scenarios_examined <= 2

    def test_duplicate_targets_rejected(self):
        store = make_store([{0, 1}])
        with pytest.raises(ValueError, match="duplicates"):
            SetSplitter(store).run([EID(0), EID(0)])

    def test_empty_targets_rejected(self):
        store = make_store([{0, 1}])
        with pytest.raises(ValueError):
            SetSplitter(store).run([])

    def test_target_outside_universe_rejected(self):
        store = make_store([{0, 1}])
        with pytest.raises(ValueError, match="not in universe"):
            SetSplitter(store).run([EID(9)], universe=eids(0, 1))

    def test_exclude_skips_scenarios(self):
        store = make_store([{0, 1}, {0, 2}])
        splitter = SetSplitter(
            store, SplitConfig(strategy=SelectionStrategy.SEQUENTIAL, min_gap_ticks=0)
        )
        excluded = frozenset({ScenarioKey(0, 0)})
        result = splitter.run([EID(0)], universe=eids(0, 1, 2), exclude=excluded)
        assert ScenarioKey(0, 0) not in result.evidence[EID(0)]

    def test_strategies_all_distinguish(self, ideal_dataset):
        targets = list(ideal_dataset.sample_targets(15, seed=1))
        for strategy in SelectionStrategy:
            splitter = SetSplitter(
                ideal_dataset.store, SplitConfig(strategy=strategy, seed=2)
            )
            result = splitter.run(targets)
            assert len(result.unresolved) <= 1, strategy

    def test_deterministic_given_seed(self, ideal_dataset):
        targets = list(ideal_dataset.sample_targets(10, seed=1))
        a = SetSplitter(ideal_dataset.store, SplitConfig(seed=5)).run(targets)
        b = SetSplitter(ideal_dataset.store, SplitConfig(seed=5)).run(targets)
        assert a.recorded == b.recorded
        assert a.evidence == b.evidence

    def test_clock_charged(self, ideal_dataset):
        from repro.metrics.timing import SimulatedClock

        clock = SimulatedClock()
        splitter = SetSplitter(ideal_dataset.store, SplitConfig(seed=5), clock)
        splitter.run(list(ideal_dataset.sample_targets(10, seed=1)))
        assert clock.e_scenarios_examined > 0
        assert clock.times().e_time > 0

    def test_elastic_sizes_monotone_selection(self, ideal_dataset):
        """More targets never select fewer scenarios (reuse grows but
        coverage requirements grow too)."""
        small = SetSplitter(ideal_dataset.store, SplitConfig(seed=5)).run(
            list(ideal_dataset.sample_targets(5, seed=1))
        )
        large = SetSplitter(ideal_dataset.store, SplitConfig(seed=5)).run(
            list(ideal_dataset.sample_targets(60, seed=1))
        )
        assert large.num_selected >= small.num_selected


class TestStoreWalkOracle:
    """The streaming strategies walk the store's E-Scenarios and skip
    those naming no active target; the per-key walk they replaced
    (``tests/oracles/e_walk.py``) must agree on every output and on
    the simulated E time, bit for bit."""

    STREAMING = [s for s in SelectionStrategy if s is not SelectionStrategy.GREEDY]

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        strategy=st.sampled_from(STREAMING),
        seed=st.integers(0, 2**16),
        merge_vague=st.booleans(),
        gap=st.sampled_from([0, 5]),
        budget=st.one_of(st.none(), st.integers(1, 400)),
        grown_live=st.booleans(),
    )
    def test_store_walk_equals_key_walk(
        self,
        practical_dataset,
        data,
        strategy,
        seed,
        merge_vague,
        gap,
        budget,
        grown_live,
    ):
        full = practical_dataset.store
        store = full
        if grown_live:
            # A live store: every scenario arrives through ``add``, in
            # an order of its own.
            order = data.draw(st.permutations(list(full.keys)))
            store = ScenarioStore([])
            for key in order:
                store.add(full.get(key))
        universe = sorted(store.eid_universe)
        targets = data.draw(
            st.lists(st.sampled_from(universe), min_size=1, max_size=12, unique=True)
        )
        exclude = frozenset(
            data.draw(st.lists(st.sampled_from(list(full.keys)), max_size=60))
        )
        config = SplitConfig(
            strategy=strategy,
            seed=seed,
            max_scenarios=budget,
            treat_vague_as_inclusive=merge_vague,
            min_gap_ticks=gap,
        )
        # Both clocks start from the same uneven E time, so the charges
        # must add up in the same order to agree.
        outcomes = []
        for cls in (SetSplitter, KeyWalkSetSplitter):
            clock = SimulatedClock()
            clock.charge_e_scenarios(3)
            result = cls(store, config, clock).run(targets, exclude=exclude)
            outcomes.append((
                result.recorded,
                result.evidence,
                result.candidates,
                result.scenarios_examined,
                repr(clock.times().e_time),
                clock.e_scenarios_examined,
            ))
        assert outcomes[0] == outcomes[1]

    def test_store_keeps_e_scenarios_beside_keys(self, practical_dataset):
        full = practical_dataset.store
        store = ScenarioStore([])
        for key in reversed(full.keys):
            store.add(full.get(key))
        assert store.keys == full.keys
        assert [e.key for e in store.e_scenarios()] == list(store.keys)
        assert store.e_scenarios() == full.e_scenarios()
