"""Tests for the MapReduce infrastructure: failures, storage, shuffle."""

import pytest

from repro.mapreduce.failures import (
    FailureInjector,
    FailurePolicy,
    InjectedTaskFailure,
)
from repro.mapreduce.shuffle import (
    HashPartitioner,
    bucket_pairs,
    merge_buckets,
)
from repro.mapreduce.storage import InMemoryDFS


class TestFailurePolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [{"failure_rate": 1.0}, {"failure_rate": -0.1}, {"max_attempts": 0}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FailurePolicy(**kwargs)


class TestFailureInjector:
    def test_zero_rate_never_fails(self):
        injector = FailureInjector(FailurePolicy(failure_rate=0.0))
        assert not any(
            injector.should_fail("job", task, attempt)
            for task in range(50)
            for attempt in range(1, 4)
        )

    def test_deterministic(self):
        a = FailureInjector(FailurePolicy(failure_rate=0.3, seed=1))
        b = FailureInjector(FailurePolicy(failure_rate=0.3, seed=1))
        decisions_a = [a.should_fail("j", t, 1) for t in range(100)]
        decisions_b = [b.should_fail("j", t, 1) for t in range(100)]
        assert decisions_a == decisions_b

    def test_seed_changes_decisions(self):
        a = FailureInjector(FailurePolicy(failure_rate=0.5, seed=1))
        b = FailureInjector(FailurePolicy(failure_rate=0.5, seed=2))
        decisions_a = [a.should_fail("j", t, 1) for t in range(200)]
        decisions_b = [b.should_fail("j", t, 1) for t in range(200)]
        assert decisions_a != decisions_b

    def test_rate_statistics(self):
        injector = FailureInjector(FailurePolicy(failure_rate=0.25, seed=3))
        failures = sum(
            injector.should_fail("j", t, a) for t in range(500) for a in (1, 2)
        )
        assert 180 < failures < 320  # ~250 expected

    def test_check_raises(self):
        injector = FailureInjector(FailurePolicy(failure_rate=0.999999, seed=4))
        with pytest.raises(InjectedTaskFailure) as exc:
            for t in range(100):
                injector.check("job", t, 1)
        assert exc.value.job_id == "job"


class TestInMemoryDFS:
    def test_write_and_read(self):
        dfs = InMemoryDFS(num_nodes=3)
        handle = dfs.write("a", [[1, 2], [3]])
        assert handle.num_partitions == 2
        assert handle.num_records == 3
        assert dfs.read_partition("a", 0) == (1, 2)
        assert dfs.read_all("a") == [1, 2, 3]

    def test_write_records_round_robin(self):
        dfs = InMemoryDFS()
        dfs.write_records("a", list(range(7)), num_partitions=3)
        assert dfs.num_partitions("a") == 3
        assert dfs.read_partition("a", 0) == (0, 3, 6)

    def test_datasets_immutable_names(self):
        dfs = InMemoryDFS()
        dfs.write("a", [[1]])
        with pytest.raises(ValueError, match="already exists"):
            dfs.write("a", [[2]])

    def test_delete(self):
        dfs = InMemoryDFS()
        dfs.write("a", [[1]])
        dfs.delete("a")
        assert not dfs.exists("a")
        with pytest.raises(KeyError):
            dfs.delete("a")

    def test_block_placement_round_robin(self):
        dfs = InMemoryDFS(num_nodes=2)
        dfs.write("a", [[1], [2], [3]])
        assert [dfs.node_of("a", i) for i in range(3)] == [0, 1, 0]

    def test_missing_dataset_raises(self):
        dfs = InMemoryDFS()
        with pytest.raises(KeyError):
            dfs.read_all("nope")
        with pytest.raises(KeyError):
            dfs.node_of("nope", 0)

    def test_partition_index_bounds(self):
        dfs = InMemoryDFS()
        dfs.write("a", [[1]])
        with pytest.raises(IndexError):
            dfs.read_partition("a", 5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            InMemoryDFS(num_nodes=0)
        dfs = InMemoryDFS()
        with pytest.raises(ValueError):
            dfs.write_records("a", [1], num_partitions=0)

    def test_datasets_listing(self):
        dfs = InMemoryDFS()
        dfs.write("b", [[1]])
        dfs.write("a", [[2]])
        assert dfs.datasets() == ("a", "b")


class TestPartitioners:
    def test_hash_partitioner_stable(self):
        p = HashPartitioner(8)
        assert p.partition(("eid", 5)) == p.partition(("eid", 5))
        assert 0 <= p.partition("anything") < 8

    def test_hash_partitioner_spreads_keys(self):
        p = HashPartitioner(8)
        buckets = {p.partition(i) for i in range(200)}
        assert len(buckets) == 8

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestBucketing:
    def test_bucket_and_merge_roundtrip(self):
        p = HashPartitioner(4)
        pairs = [(k, k * 10) for k in range(20)]
        task_a = bucket_pairs(pairs[:10], p)
        task_b = bucket_pairs(pairs[10:], p)
        seen = {}
        for reducer in range(4):
            grouped = merge_buckets([task_a, task_b], reducer)
            for key, values in grouped.items():
                seen[key] = values
        assert seen == {k: [k * 10] for k in range(20)}

    def test_values_grouped_per_key(self):
        p = HashPartitioner(1)
        buckets = bucket_pairs([("a", 1), ("a", 2), ("b", 3)], p)
        grouped = merge_buckets([buckets], 0)
        assert grouped == {"a": [1, 2], "b": [3]}
