"""Unit tests for the packed co-occurrence index (repro.core.accel)."""

import gc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.accel import (
    EIDInterner,
    ScenarioMatrix,
    matrix_for,
    pack_ids,
    popcount,
    unpack_ids,
)
from repro.sensing.scenarios import (
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.service.dataset_shards import ShardedDataset
from repro.service.server import MatchService
from repro.world.entities import EID


def eids(*indices):
    return frozenset(EID(i) for i in indices)


def scenario(cell, tick, inclusive, vague=()):
    key = ScenarioKey(cell_id=cell, tick=tick)
    return EVScenario(
        e=EScenario(key=key, inclusive=eids(*inclusive), vague=eids(*vague)),
        v=VScenario.of(key),
    )


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        ids = [0, 1, 63, 64, 127]
        row = pack_ids(ids, 2)
        assert row.dtype == np.uint64
        assert list(unpack_ids(row)) == ids

    def test_popcount_rows(self):
        rows = np.array([pack_ids([0, 63, 64], 2), pack_ids([], 2)])
        assert list(popcount(rows)) == [3, 0]

    def test_popcount_single_row_is_scalar(self):
        assert int(popcount(pack_ids(range(70), 2))) == 70


class TestEIDInterner:
    def test_dense_first_intern_order(self):
        interner = EIDInterner([EID(5), EID(2), EID(9)])
        assert [interner.id_of(EID(e)) for e in (5, 2, 9)] == [0, 1, 2]
        assert interner.eid_of(1) == EID(2)
        assert len(interner) == 3

    def test_pack_skips_unknown_eids(self):
        interner = EIDInterner([EID(1), EID(2)])
        row = interner.pack(eids(1, 2, 77))
        assert interner.unpack(row) == eids(1, 2)

    def test_num_words_grows(self):
        interner = EIDInterner()
        assert interner.num_words == 1
        for i in range(65):
            interner.intern(EID(i))
        assert interner.num_words == 2


class TestScenarioMatrix:
    def test_rows_mirror_store(self):
        store = ScenarioStore(
            [scenario(0, 0, {0, 1}, {2}), scenario(1, 1, {2, 3})]
        )
        matrix = ScenarioMatrix(store)
        key = ScenarioKey(0, 0)
        assert len(matrix) == 2
        assert matrix.interner.unpack(matrix.inclusive_row(key)) == eids(0, 1)

    def test_live_add_syncs_incrementally(self):
        store = ScenarioStore([scenario(0, 0, {0, 1})])
        matrix = ScenarioMatrix(store)
        assert matrix.sync() == 0  # nothing new
        store.add(scenario(1, 1, {1, 2}))
        assert ScenarioKey(1, 1) not in matrix
        assert matrix.sync() == 1
        key = ScenarioKey(1, 1)
        assert matrix.interner.unpack(matrix.inclusive_row(key)) == eids(1, 2)
        # EID 2 was first seen live: appended to the interner, nobody
        # renumbered.
        assert matrix.interner.id_of(EID(2)) == 2

    def test_growth_past_word_and_row_capacity(self):
        store = ScenarioStore([scenario(0, 0, set(range(10)))])
        matrix = ScenarioMatrix(store)
        for i in range(70):
            store.add(scenario(1 + i, 1 + i, {100 + i, i % 10}))
        matrix.sync()
        assert len(matrix) == 71
        assert matrix.num_words >= 2
        key = ScenarioKey(70, 70)
        assert matrix.interner.unpack(matrix.inclusive_row(key)) == eids(169, 9)

    def test_co_occurrence_counts(self):
        store = ScenarioStore(
            [
                scenario(0, 0, {0, 1}, {3}),
                scenario(1, 1, {0, 1, 2}),
                scenario(2, 2, {1, 2}),
            ]
        )
        matrix = ScenarioMatrix(store)
        counts = matrix.co_occurrence_counts(
            [ScenarioKey(0, 0), ScenarioKey(1, 1)]
        )
        of = lambda e: int(counts[matrix.interner.id_of(EID(e))])
        assert (of(0), of(1), of(2)) == (2, 2, 1)
        assert of(3) == 0  # vague bits do not count
        assert not matrix.co_occurrence_counts([]).any()

    def test_matrix_for_is_shared_per_store(self):
        store = ScenarioStore([scenario(0, 0, {0, 1})])
        assert matrix_for(store) is matrix_for(store)



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
    """A store is freed the moment its last user lets go: the shared
    matrix registry must not keep it (or its matrix) alive."""

    def make_store(self):
        return ScenarioStore(
            [scenario(0, 0, {0, 1}, {2}), scenario(1, 1, {1, 2})]
        )

    def test_matrix_for_frees_its_store(self):
        with collector_off():
            store = self.make_store()
            matrix = matrix_for(store)
            ref = weakref.ref(store)
            del store
            assert ref() is None
            assert matrix.store is None
            assert matrix.sync() == 0

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
