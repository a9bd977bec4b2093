"""Tests for the streaming (incremental) matcher."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.incremental import IncrementalMatcher
from repro.core.set_splitting import SetSplitter, SplitConfig
from repro.core.vid_filtering import VIDFilter
from repro.metrics.accuracy import accuracy_of
from repro.metrics.timing import SimulatedClock
from repro.world.entities import EID
from tests.oracles.incremental import (
    AllPendingIncrementalMatcher,
    PerTargetIncrementalMatcher,
)


def replay_all(matcher, store):
    emissions = []
    for tick in store.ticks:
        emissions.extend(matcher.observe_tick(store, tick))
    return emissions


class TestStreamBasics:
    def test_empty_universe_rejected(self, ideal_dataset):
        with pytest.raises(ValueError):
            IncrementalMatcher(ideal_dataset.store, [])

    def test_unknown_target_rejected(self, ideal_dataset):
        matcher = IncrementalMatcher(ideal_dataset.store, ideal_dataset.eids)
        with pytest.raises(ValueError):
            matcher.add_target(EID(10**6))

    def test_evidence_of_untracked_raises(self, ideal_dataset):
        matcher = IncrementalMatcher(ideal_dataset.store, ideal_dataset.eids)
        with pytest.raises(KeyError):
            matcher.evidence_of(EID(0))

    def test_targets_emit_once(self, ideal_dataset):
        matcher = IncrementalMatcher(ideal_dataset.store, ideal_dataset.eids)
        targets = list(ideal_dataset.sample_targets(10, seed=1))
        matcher.add_targets(targets)
        emissions = replay_all(matcher, ideal_dataset.store)
        eids = [e.eid for e in emissions]
        assert len(eids) == len(set(eids))
        # Re-adding an emitted target is a no-op.
        matcher.add_target(eids[0])
        assert eids[0] not in matcher.pending


class TestStreamSemantics:
    def test_replay_matches_batch_accuracy(self, ideal_dataset):
        """Streaming a store in tick order must land in the same
        accuracy band as the batch matcher."""
        targets = list(ideal_dataset.sample_targets(30, seed=2))
        stream = IncrementalMatcher(
            ideal_dataset.store, ideal_dataset.eids, SplitConfig(seed=7)
        )
        stream.add_targets(targets)
        replay_all(stream, ideal_dataset.store)
        chosen = {
            eid: em.result.chosen for eid, em in stream.emissions.items()
        }
        report = accuracy_of(chosen, ideal_dataset.truth, targets=targets)
        assert report.accuracy >= 0.8

    def test_stream_evidence_is_valid_batch_evidence(self, ideal_dataset):
        """Every streamed evidence list satisfies the batch invariants:
        target inclusive in each scenario, intersection singleton."""
        targets = list(ideal_dataset.sample_targets(10, seed=3))
        stream = IncrementalMatcher(
            ideal_dataset.store, ideal_dataset.eids, SplitConfig(seed=7)
        )
        stream.add_targets(targets)
        replay_all(stream, ideal_dataset.store)
        for eid, emission in stream.emissions.items():
            expected = set(ideal_dataset.eids)
            for key in emission.result.scenario_keys:
                e_scenario = ideal_dataset.store.e_scenario(key)
                assert eid in e_scenario.inclusive
                expected &= set(e_scenario.inclusive | e_scenario.vague)
            # The V stage may drop detection-less scenarios, so check
            # against the raw evidence list instead when they differ.
            raw = stream.evidence_of(eid)
            raw_expected = set(ideal_dataset.eids)
            for key in raw:
                e_scenario = ideal_dataset.store.e_scenario(key)
                raw_expected &= set(e_scenario.inclusive | e_scenario.vague)
            assert raw_expected == {eid}

    def test_latency_monotone_in_arrival(self, ideal_dataset):
        """Targets added later cannot have fired earlier."""
        store = ideal_dataset.store
        early_target, late_target = ideal_dataset.sample_targets(2, seed=4)
        stream = IncrementalMatcher(store, ideal_dataset.eids, SplitConfig(seed=7))
        stream.add_target(early_target)
        ticks = list(store.ticks)
        midpoint = ticks[len(ticks) // 2]
        for tick in ticks:
            if tick == midpoint:
                stream.add_target(late_target)
            stream.observe_tick(store, tick)
        latency = stream.latency_report()
        if late_target in latency:
            assert latency[late_target] >= midpoint

    def test_mid_stream_target_only_uses_later_evidence(self, ideal_dataset):
        store = ideal_dataset.store
        target = ideal_dataset.sample_targets(1, seed=5)[0]
        stream = IncrementalMatcher(store, ideal_dataset.eids, SplitConfig(seed=7))
        ticks = list(store.ticks)
        midpoint = ticks[len(ticks) // 2]
        for tick in ticks:
            if tick == midpoint:
                stream.add_target(target)
            stream.observe_tick(store, tick)
        evidence = stream.evidence_of(target)
        assert all(key.tick >= midpoint for key in evidence)

    def test_latency_report_contents(self, ideal_dataset):
        """latency_report covers exactly the emitted targets, and each
        reported tick is the tick its emission fired at."""
        targets = list(ideal_dataset.sample_targets(12, seed=8))
        stream = IncrementalMatcher(
            ideal_dataset.store, ideal_dataset.eids, SplitConfig(seed=7)
        )
        stream.add_targets(targets)
        replay_all(stream, ideal_dataset.store)
        latency = stream.latency_report()
        assert set(latency) == set(stream.emissions)
        assert set(latency).isdisjoint(stream.pending)
        ticks = set(ideal_dataset.store.ticks)
        for eid, tick in latency.items():
            assert tick == stream.emissions[eid].emitted_at_tick
            assert tick in ticks

    def test_pending_shrinks_over_ticks(self, ideal_dataset):
        """Without new targets, the pending set only ever shrinks, by
        exactly the emissions each tick fires."""
        targets = list(ideal_dataset.sample_targets(15, seed=9))
        stream = IncrementalMatcher(
            ideal_dataset.store, ideal_dataset.eids, SplitConfig(seed=7)
        )
        stream.add_targets(targets)
        assert stream.pending == frozenset(targets)
        previous = stream.pending
        for tick in ideal_dataset.store.ticks:
            fired = stream.observe_tick(ideal_dataset.store, tick)
            current = stream.pending
            assert current <= previous
            assert previous - current == {em.eid for em in fired}
            previous = current
        assert stream.pending == frozenset(targets) - set(stream.emissions)
        assert len(stream.emissions) > 0

    def test_add_target_mid_stream_is_tracked_fresh(self, ideal_dataset):
        """A mid-stream add_target starts pending with no evidence and
        every candidate still possible."""
        store = ideal_dataset.store
        early, late = ideal_dataset.sample_targets(2, seed=10)
        stream = IncrementalMatcher(store, ideal_dataset.eids, SplitConfig(seed=7))
        stream.add_target(early)
        ticks = list(store.ticks)
        for tick in ticks[: len(ticks) // 2]:
            stream.observe_tick(store, tick)
        stream.add_target(late)
        assert late in stream.pending
        assert stream.evidence_of(late) == ()
        for tick in ticks[len(ticks) // 2 :]:
            stream.observe_tick(store, tick)
        # The late target either matched from post-add evidence only,
        # or is still pending; it never borrows earlier scenarios.
        if late in stream.emissions:
            assert all(
                key.tick >= ticks[len(ticks) // 2]
                for key in stream.emissions[late].result.scenario_keys
            )

    def test_emission_metadata(self, ideal_dataset):
        targets = list(ideal_dataset.sample_targets(5, seed=6))
        stream = IncrementalMatcher(
            ideal_dataset.store, ideal_dataset.eids, SplitConfig(seed=7)
        )
        stream.add_targets(targets)
        emissions = replay_all(stream, ideal_dataset.store)
        for emission in emissions:
            assert emission.scenarios_consumed <= stream.scenarios_consumed
            assert emission.result.scenario_keys
            assert emission.emitted_at_tick == emission.result.scenario_keys[-1].tick


def stream_run(matcher_cls, dataset, keys, targets, late, add_at, split_config):
    """Feed ``keys`` of the dataset's store to a fresh matcher, adding
    ``late`` targets before the ``add_at``-th scenario; returns every
    observable outcome plus the number of targets each scenario fired."""
    store = dataset.store
    clock = SimulatedClock()
    matcher = matcher_cls(store, dataset.eids, split_config, clock=clock)
    matcher.add_targets(targets)
    emissions, fired_per_scenario = [], []
    for i, key in enumerate(keys):
        if i == add_at:
            matcher.add_targets(late)
        fired = matcher.observe(store.get(key))
        emissions.extend(fired)
        fired_per_scenario.append(len(fired))
    tracked = list(dict.fromkeys([*targets, *late]))
    outcome = (
        emissions,
        {t: matcher.evidence_of(t) for t in tracked},
        clock.times(),
        clock.comparisons,
        matcher.pending,
        matcher.duplicates_ignored,
    )
    return outcome, fired_per_scenario


class TestObserveOrderOracle:
    """``observe`` visits only the pending targets a scenario names;
    the all-pending loop it replaced (``tests/oracles/incremental.py``)
    must agree on emissions in order, evidence and the clock."""

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        min_gap_ticks=st.integers(min_value=0, max_value=6),
        treat_vague_as_inclusive=st.booleans(),
        shuffle_seed=st.one_of(st.none(), st.integers(0, 2**16)),
    )
    def test_observe_equals_all_pending_loop(
        self,
        practical_dataset,
        data,
        min_gap_ticks,
        treat_vague_as_inclusive,
        shuffle_seed,
    ):
        dataset = practical_dataset
        eids = sorted(dataset.eids)
        targets = data.draw(
            st.lists(st.sampled_from(eids), min_size=1, max_size=40, unique=True)
        )
        late = data.draw(st.lists(st.sampled_from(eids), max_size=10, unique=True))
        keys = list(dataset.store.keys)
        if shuffle_seed is not None:
            random.Random(shuffle_seed).shuffle(keys)
        # Re-offered scenarios must be ignored alike.
        keys += keys[: data.draw(st.integers(0, 5))]
        add_at = data.draw(st.integers(0, len(keys) - 1))
        split_config = SplitConfig(
            min_gap_ticks=min_gap_ticks,
            treat_vague_as_inclusive=treat_vague_as_inclusive,
        )
        args = (dataset, keys, targets, late, add_at, split_config)
        fast, _ = stream_run(IncrementalMatcher, *args)
        oracle, _ = stream_run(AllPendingIncrementalMatcher, *args)
        assert fast == oracle

    def test_several_targets_fire_on_one_scenario(self, practical_dataset):
        """Watching every EID makes scenarios fire several targets at
        once; their emission order is still the watch order."""
        dataset = practical_dataset
        targets = list(dataset.eids)[::-1]
        args = (dataset, list(dataset.store.keys), targets, [], 0, SplitConfig())
        fast, fired = stream_run(IncrementalMatcher, *args)
        oracle, _ = stream_run(AllPendingIncrementalMatcher, *args)
        assert max(fired) >= 2
        assert fast == oracle


def replay_emissions(matcher_cls, dataset, targets):
    """Every emission of a tick-by-tick replay with ``targets`` watched
    from the start, plus what stayed pending."""
    matcher = matcher_cls(dataset.store, dataset.eids)
    matcher.add_targets(targets)
    return replay_all(matcher, dataset.store), matcher.pending


def assert_same_emissions(batched, per_target):
    """Same targets, timing and choices; scores to ``rtol=1e-12``: a
    batch fills its scenario pairs in larger BLAS blocks than one
    target does, which moves the products' last bits."""
    assert [e.eid for e in batched] == [e.eid for e in per_target]
    # Some window distinguished several targets at once.
    ticks = [e.emitted_at_tick for e in batched]
    assert max(map(ticks.count, ticks)) >= 2
    for got, want in zip(batched, per_target):
        assert got.emitted_at_tick == want.emitted_at_tick
        assert got.scenarios_consumed == want.scenarios_consumed
        assert got.result.scenario_keys == want.result.scenario_keys
        assert [d.detection_id for d in got.result.chosen] == [
            d.detection_id for d in want.result.chosen
        ]
        assert got.result.agreement == want.result.agreement
        np.testing.assert_allclose(
            got.result.scores, want.result.scores, rtol=1e-12, atol=0.0
        )


@pytest.fixture(scope="module")
def paper_world():
    """The paper-shape world: 1000 people, 5x5 cells."""
    from repro.bench.datasets import default_config
    from repro.datagen.dataset import build_dataset

    return build_dataset(default_config())


class TestBatchedVStage:
    """A window's distinguished targets share one ``VIDFilter.match``;
    the per-target ``match_one`` it replaced must emit the same."""

    def test_practical_world(self, practical_dataset):
        targets = list(practical_dataset.eids)[::-1]
        batched, pending = replay_emissions(
            IncrementalMatcher, practical_dataset, targets
        )
        per_target, oracle_pending = replay_emissions(
            PerTargetIncrementalMatcher, practical_dataset, targets
        )
        assert len(batched) > len(targets) // 2
        assert pending == oracle_pending
        assert_same_emissions(batched, per_target)

    def test_paper_world_replay(self, paper_world):
        targets = list(paper_world.sample_targets(600, seed=1))
        batched, pending = replay_emissions(IncrementalMatcher, paper_world, targets)
        per_target, oracle_pending = replay_emissions(
            PerTargetIncrementalMatcher, paper_world, targets
        )
        assert len(batched) == len(targets)
        assert pending == oracle_pending
        assert_same_emissions(batched, per_target)
