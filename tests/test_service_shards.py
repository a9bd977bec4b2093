"""Tests for the region-banded dataset shards, and for the one
co-occurrence count their investigate path shares with convoy mining
and the fused index."""

import gc
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
)
from repro.service.dataset_shards import ShardedDataset, _band
from repro.service.server import MatchService
from repro.world.entities import EID
from tests.oracles import cotravel


class TestBanding:
    def test_bands_partition_cells(self):
        cells = list(range(11))
        bands = _band(cells, 4)
        assert len(bands) == 4
        flat = [c for band in bands for c in band]
        assert flat == cells  # contiguous, order-preserving
        sizes = [len(band) for band in bands]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_cells(self):
        assert _band([], 3) == [[], [], []]

    def test_invalid_shard_count(self, ideal_dataset):
        with pytest.raises(ValueError):
            ShardedDataset(ideal_dataset.store, num_shards=0)

    def test_shards_clamped_to_cell_count(self, ideal_dataset):
        sharded = ShardedDataset(
            ideal_dataset.store, ideal_dataset.grid, num_shards=100
        )
        assert sharded.num_shards == ideal_dataset.grid.num_cells


class TestTopology:
    def test_every_cell_routed_once(self, ideal_dataset):
        sharded = ShardedDataset(
            ideal_dataset.store, ideal_dataset.grid, num_shards=4
        )
        seen = {}
        for shard in sharded.shards:
            for cell_id in shard.cell_ids:
                assert cell_id not in seen, "cell assigned to two shards"
                seen[cell_id] = shard.shard_id
        for cell in ideal_dataset.grid.cells:
            assert sharded.shard_of_cell(cell.cell_id) is not None

    def test_all_scenarios_indexed(self, ideal_dataset):
        sharded = ShardedDataset(
            ideal_dataset.store, ideal_dataset.grid, num_shards=4
        )
        assert sum(sharded.balance().values()) == len(ideal_dataset.store)


class TestLookups:
    def test_scenarios_of_matches_monolithic_index(self, ideal_dataset):
        sharded = ShardedDataset(
            ideal_dataset.store, ideal_dataset.grid, num_shards=4
        )
        index = ScenarioIndex(ideal_dataset.store, ideal_dataset.grid)
        for eid in ideal_dataset.sample_targets(15, seed=3):
            assert sharded.scenarios_of(eid) == index.scenarios_of(eid)

    def test_presence_windows_match_monolithic_index(self, ideal_dataset):
        sharded = ShardedDataset(
            ideal_dataset.store, ideal_dataset.grid, num_shards=4
        )
        index = ScenarioIndex(ideal_dataset.store, ideal_dataset.grid)
        for eid in ideal_dataset.sample_targets(10, seed=4):
            assert sharded.presence_windows(eid) == index.presence_windows(eid)

    def test_lookup_probes_only_routed_shards(self, ideal_dataset):
        sharded = ShardedDataset(
            ideal_dataset.store, ideal_dataset.grid, num_shards=4
        )
        eid = ideal_dataset.sample_targets(1, seed=5)[0]
        before = sharded.shard_probes
        sharded.scenarios_of(eid)
        probed = sharded.shard_probes - before
        assert probed == len(sharded.shards_of_eid(eid))
        assert probed <= sharded.num_shards

    def test_unknown_eid(self, ideal_dataset):
        sharded = ShardedDataset(ideal_dataset.store, num_shards=2)
        ghost = EID(10**6)
        assert ghost not in sharded
        assert sharded.scenarios_of(ghost) == ()
        assert sharded.presence_windows(ghost) == []

    def test_co_travelers_counts_confident_cooccurrence(self, ideal_dataset):
        sharded = ShardedDataset(ideal_dataset.store, num_shards=3)
        eid = ideal_dataset.sample_targets(1, seed=6)[0]
        pairs = sharded.co_travelers(eid, min_shared=2)
        counts = {}
        for key in ideal_dataset.store.keys:
            e_scenario = ideal_dataset.store.e_scenario(key)
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
        sharded = ShardedDataset(ideal_dataset.store, num_shards=2)
        with pytest.raises(ValueError):
            sharded.co_travelers(EID(0), min_shared=0)


class TestIngestRouting:
    def test_add_scenario_updates_routing(self, ideal_dataset):
        store = ideal_dataset.store
        keys = list(store.keys)
        held_out = keys[-1]
        from repro.sensing.scenarios import ScenarioStore

        partial = ScenarioStore([store.get(k) for k in keys[:-1]])
        sharded = ShardedDataset(partial, ideal_dataset.grid, num_shards=4)
        scenario = store.get(held_out)
        shard_id = sharded.add_scenario(scenario)
        assert shard_id == sharded.shard_of_cell(held_out.cell_id)
        for eid in scenario.e.eids:
            assert shard_id in sharded.shards_of_eid(eid)
            assert held_out in sharded.scenarios_of(eid)

    def test_unseen_cell_assigned_round_robin(self, ideal_dataset):
        from repro.sensing.scenarios import (
            EScenario,
            EVScenario,
            ScenarioKey,
            VScenario,
        )

        sharded = ShardedDataset(
            ideal_dataset.store, ideal_dataset.grid, num_shards=3
        )
        new_cell = max(c.cell_id for c in ideal_dataset.grid.cells) + 5
        key = ScenarioKey(cell_id=new_cell, tick=0)
        eid = ideal_dataset.eids[0]
        scenario = EVScenario(
            e=EScenario(key=key, inclusive=frozenset([eid])),
            v=VScenario.of(key),
        )
        shard_id = sharded.add_scenario(scenario)
        assert shard_id == new_cell % sharded.num_shards
        assert key in sharded.scenarios_of(eid)


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


def assert_callers_match_oracle(store, sharded, batch, queried, min_shared):
    """All three callers of the count against the oracle on ``batch``."""
    fused = fused_index(store, queried)
    convoys = ConvoyQuery(store, min_shared=min_shared)
    for eid in queried:
        expected = cotravel.co_travelers(batch, eid, batch.keys, min_shared)
        assert sharded.co_travelers(eid, min_shared) == expected
        assert fused.co_travelers(eid, min_shared) == expected
        own_keys = convoys._inclusive_keys(eid)
        assert convoys._candidates(eid, own_keys) == sorted(
            other for other, _n in expected
        )
        for other in set(INDICES) - {eid.index}:
            assert convoys._shared_keys(own_keys, EID(other)) == (
                cotravel.shared_keys(batch, EID(other), own_keys)
            )


class TestCoTravelCount:
    """The one count: shards (investigate), convoy screening and the
    fused index, against the dict-loop oracle."""

    QUERIED = [EID(i) for i in INDICES + [VAGUE_ONLY, UNKNOWN]]

    @settings(max_examples=40, deadline=None)
    @given(
        entries=scenario_entries,
        cut=st.integers(1, 14),
        min_shared=st.integers(1, 3),
    )
    def test_callers_equal_oracle_batch_and_grown(self, entries, cut, min_shared):
        scenarios = build_scenarios(entries)
        batch = ScenarioStore(scenarios)
        sharded = ShardedDataset(batch, num_shards=2)
        assert_callers_match_oracle(
            batch, sharded, batch, self.QUERIED, min_shared
        )
        # The same scenarios, part at build time and the rest through
        # the live ingest path.
        cut = min(cut, len(scenarios))
        grown = ScenarioStore(scenarios[:cut])
        grown_shards = ShardedDataset(grown, num_shards=2)
        for fresh in scenarios[cut:]:
            grown.add(fresh)
            grown_shards.add_scenario(fresh)
        assert_callers_match_oracle(
            grown, grown_shards, batch, self.QUERIED, min_shared
        )

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
        with collector_off():
            store = self.make_store()
            shards = ShardedDataset(store, num_shards=2)
            fresh = scenario(2, 2, {0, 3})
            store.add(fresh)
            shards.add_scenario(fresh)
            ref = weakref.ref(store)
            del store, shards
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
