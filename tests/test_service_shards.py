"""Tests for the store's EID index — the lookups the investigate verb,
EDP, convoy mining and :class:`ScenarioIndex` all read — and for the
one co-occurrence count the investigate path shares with convoy mining
and the fused index."""

import gc
import random
import weakref
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.fusion.convoys import ConvoyQuery
from repro.fusion.index import FusedIndex
from repro.sensing.index import ScenarioIndex
from repro.sensing.scenarios import (
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
    co_travelers,
    presence_windows,
)
from repro.service.server import MatchService
from repro.world.entities import EID
from tests.oracles import cotravel


def scanned(store, eid):
    """The oracle: every key whose E side holds ``eid``, by a full scan
    in key order."""
    return tuple(key for key in store.keys if eid in store.e_scenario(key))


class TestLookups:
    def test_scenarios_of_matches_monolithic_index(self, ideal_dataset):
        store = ideal_dataset.store
        index = ScenarioIndex(store, ideal_dataset.grid)
        for eid in ideal_dataset.sample_targets(15, seed=3):
            assert store.scenarios_of(eid) == scanned(store, eid)
            assert index.scenarios_of(eid) == store.scenarios_of(eid)

    def test_presence_windows_match_monolithic_index(self, ideal_dataset):
        store = ideal_dataset.store
        index = ScenarioIndex(store, ideal_dataset.grid)
        for eid in ideal_dataset.sample_targets(10, seed=4):
            runs = presence_windows(store.scenarios_of(eid))
            assert runs == index.presence_windows(eid)
            covered = {
                (cell, tick)
                for cell, first, last in runs
                for tick in range(first, last + 1)
            }
            assert covered == {tuple(key) for key in scanned(store, eid)}

    def test_unknown_eid(self, ideal_dataset):
        ghost = EID(10**6)
        assert ideal_dataset.store.scenarios_of(ghost) == ()
        assert presence_windows(()) == []

    def test_co_travelers_counts_confident_cooccurrence(self, ideal_dataset):
        store = ideal_dataset.store
        eid = ideal_dataset.sample_targets(1, seed=6)[0]
        pairs = co_travelers(store, eid, store.scenarios_of(eid), 2)
        counts = {}
        for key in store.keys:
            e_scenario = store.e_scenario(key)
            if eid in e_scenario.inclusive:
                for other in e_scenario.inclusive:
                    if other != eid:
                        counts[other] = counts.get(other, 0) + 1
        expected = sorted(
            ((e, n) for e, n in counts.items() if n >= 2),
            key=lambda en: (-en[1], en[0]),
        )
        assert pairs == expected

    def test_min_shared_validated(self, ideal_dataset):
        store = ideal_dataset.store
        with pytest.raises(ValueError):
            co_travelers(store, EID(0), store.scenarios_of(EID(0)), 0)


class TestIngestRouting:
    def test_add_scenario_updates_routing(self, ideal_dataset):
        store = ideal_dataset.store
        keys = list(store.keys)
        held_out = keys[len(keys) // 2]
        partial = ScenarioStore([store.get(k) for k in keys if k != held_out])
        scenario = store.get(held_out)
        for eid in scenario.e.eids:  # built before the add
            assert held_out not in partial.scenarios_of(eid)
        partial.add(scenario)
        for eid in scenario.e.eids:
            assert held_out in partial.scenarios_of(eid)
            assert partial.scenarios_of(eid) == store.scenarios_of(eid)


def scenario(cell, tick, inclusive, vague=()):
    key = ScenarioKey(cell_id=cell, tick=tick)
    return EVScenario(
        e=EScenario(
            key=key,
            inclusive=frozenset(EID(i) for i in inclusive),
            vague=frozenset(EID(i) for i in vague),
        ),
        v=VScenario.of(key),
    )


#: EID indices the drawn stores use: small ones, and two past 32 bits
#: (the cluster codec passes any index through; MACs span 40 bits).
BIG = 2**32 + 7
INDICES = [0, 1, 2, 3, 4, 5, BIG, 2**40 - 1]
#: Seen only as vague in every drawn store.
VAGUE_ONLY = 99
#: Never seen.
UNKNOWN = 12345

#: One drawn scenario: (inclusive ids, vague ids, cell, tick).
scenario_entries = st.lists(
    st.tuples(
        st.sets(st.sampled_from(INDICES), min_size=1, max_size=6),
        st.sets(st.sampled_from(INDICES + [VAGUE_ONLY]), max_size=3),
        st.integers(0, 3),
        st.integers(0, 9),
    ),
    min_size=1,
    max_size=14,
)


def build_scenarios(entries):
    """One scenario per distinct key; vague made disjoint from inclusive."""
    scenarios = {}
    for inclusive, vague, cell, tick in entries:
        scenarios.setdefault(
            (cell, tick), scenario(cell, tick, inclusive, vague - inclusive)
        )
    return list(scenarios.values())


def fused_index(store, eids):
    """A FusedIndex with a profile per EID and no appearance: its
    co-traveler query reads the electronic side only."""
    report = SimpleNamespace(
        results={eid: SimpleNamespace(chosen=(), agreement=1.0) for eid in eids}
    )
    return FusedIndex(store, report)


def assert_callers_match_oracle(store, batch, queried, min_shared):
    """All three callers of the count against the oracle on ``batch``."""
    fused = fused_index(store, queried)
    convoys = ConvoyQuery(store, min_shared=min_shared)
    for eid in queried:
        expected = cotravel.co_travelers(batch, eid, batch.keys, min_shared)
        investigated = co_travelers(store, eid, store.scenarios_of(eid), min_shared)
        assert investigated == expected
        assert fused.co_travelers(eid, min_shared) == expected
        own_keys = convoys._inclusive_keys(eid)
        assert convoys._candidates(eid, own_keys) == sorted(
            other for other, _n in expected
        )
        for other in set(INDICES) - {eid.index}:
            assert convoys._shared_keys(own_keys, EID(other)) == (
                cotravel.shared_keys(batch, EID(other), own_keys)
            )


#: Every EID a drawn store can hold, plus one seen only as vague and
#: one never seen.
QUERIED = [EID(i) for i in INDICES + [VAGUE_ONLY, UNKNOWN]]


class TestStoreIndex:
    """A store grown by :meth:`ScenarioStore.add` answers every EID
    lookup as the store built from the same scenarios at once, whether
    its index was built before the adds (each add extends it) or after
    them (one walk of the grown store)."""

    @settings(max_examples=60, deadline=None)
    @given(
        entries=scenario_entries,
        cut=st.integers(0, 14),
        seed=st.integers(0, 2**16),
    )
    def test_grown_equals_batch(self, entries, cut, seed):
        scenarios = build_scenarios(entries)
        batch = ScenarioStore(scenarios)
        cut = min(cut, len(scenarios))
        arriving = scenarios[cut:]
        random.Random(seed).shuffle(arriving)
        for read_first in (True, False):
            grown = ScenarioStore(scenarios[:cut])
            if read_first:
                assert grown.scenarios_of(EID(0)) == scanned(grown, EID(0))
            for fresh in arriving:
                grown.add(fresh)
            for eid in QUERIED:
                expected = scanned(batch, eid)
                assert batch.scenarios_of(eid) == expected
                assert grown.scenarios_of(eid) == expected


class TestCoTravelCount:
    """The one count: the investigate path, convoy screening and the
    fused index, against the dict-loop oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        entries=scenario_entries,
        cut=st.integers(1, 14),
        min_shared=st.integers(1, 3),
    )
    def test_callers_equal_oracle_batch_and_grown(self, entries, cut, min_shared):
        scenarios = build_scenarios(entries)
        batch = ScenarioStore(scenarios)
        assert_callers_match_oracle(batch, batch, QUERIED, min_shared)
        # The same scenarios, part at build time and the rest through
        # the live ingest path, with the index read before the adds.
        cut = min(cut, len(scenarios))
        grown = ScenarioStore(scenarios[:cut])
        grown.scenarios_of(EID(0))
        for fresh in scenarios[cut:]:
            grown.add(fresh)
        assert_callers_match_oracle(grown, batch, QUERIED, min_shared)

    def store(self):
        return ScenarioStore(
            [
                scenario(0, 0, {0, 1, BIG}, {VAGUE_ONLY}),
                scenario(1, 1, {0, 1, BIG}),
                scenario(2, 2, {0, BIG}, {1}),
                scenario(3, 3, {1, 2}, {0, VAGUE_ONLY}),
            ]
        )

    def test_counts_inclusive_sightings_only(self):
        store = self.store()
        assert co_travelers(store, EID(0), store.keys, 1) == [
            (EID(BIG), 3),
            (EID(1), 2),
        ]
        assert co_travelers(store, EID(0), store.keys, 3) == [(EID(BIG), 3)]

    def test_index_past_32_bits(self):
        store = self.store()
        assert co_travelers(store, EID(BIG), store.keys, 1) == [
            (EID(0), 3),
            (EID(1), 2),
        ]

    def test_vague_only_unknown_and_empty_keys(self):
        store = self.store()
        assert co_travelers(store, EID(VAGUE_ONLY), store.keys, 1) == []
        assert co_travelers(store, EID(UNKNOWN), store.keys, 1) == []
        assert co_travelers(store, EID(0), [], 1) == []

    def test_min_shared_validated(self):
        with pytest.raises(ValueError, match="min_shared"):
            co_travelers(self.store(), EID(0), (), 0)


@contextmanager
def collector_off():
    """Only reference counting frees objects inside: anything still
    alive there is kept by a reference, not by an uncollected cycle."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestStoreLifetime:
    """A store is freed the moment its last user lets go."""

    def make_store(self):
        return ScenarioStore(
            [scenario(0, 0, {0, 1}, {2}), scenario(1, 1, {1, 2})]
        )

    def test_sharded_dataset_frees_its_store(self):
        """A store whose EID index was built and then grown."""
        with collector_off():
            store = self.make_store()
            store.scenarios_of(EID(0))
            store.add(scenario(2, 2, {0, 3}))
            ref = weakref.ref(store)
            del store
            assert ref() is None

    def test_stopped_service_frees_its_store(self):
        with collector_off():
            store = self.make_store()
            service = MatchService(store).start()
            service.ingest_tick([scenario(2, 2, {0, 3})])
            service.stop()
            ref = weakref.ref(store)
            del store, service
            assert ref() is None
