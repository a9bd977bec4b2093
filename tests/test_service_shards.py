"""Tests for the region-banded dataset shards."""

import pytest

from repro.sensing.index import ScenarioIndex
from repro.service.dataset_shards import ShardedDataset, _band
from repro.world.entities import EID


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
