"""Tests for the MapReduce engine: map-only and shuffled jobs, retry
under injected failures, cost scheduling."""

import pytest

from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.engine import JobFailedError, MapReduceEngine
from repro.mapreduce.failures import FailurePolicy
from repro.mapreduce.job import MapReduceJob


def word_count_job(name="wc"):
    return MapReduceJob(
        name=name,
        mapper=lambda line: ((word, 1) for word in line.split()),
        reducer=lambda word, counts: ((word, sum(counts)),),
        num_reducers=4,
    )


@pytest.fixture
def engine():
    return MapReduceEngine(
        cluster=SimulatedCluster(ClusterConfig(num_nodes=2, cores_per_node=2))
    )


class TestEngineBasics:
    def test_word_count(self, engine):
        engine.dfs.write_records(
            "lines", ["a b a", "b c", "a"], num_partitions=2
        )
        handle, metrics = engine.run(word_count_job(), "lines", "counts")
        counts = dict(engine.dfs.read_all("counts"))
        assert counts == {"a": 3, "b": 2, "c": 1}
        assert metrics.map_tasks == 2
        assert metrics.reduce_tasks == 4
        assert metrics.records_in == 3
        assert metrics.records_out == 3

    def test_map_only_job_preserves_partitioning(self, engine):
        engine.dfs.write("input", [[1, 2], [3]])
        job = MapReduceJob(name="double", mapper=lambda x: (x * 2,))
        handle, metrics = engine.run(job, "input", "output")
        assert handle.num_partitions == 2
        assert engine.dfs.read_partition("output", 0) == (2, 4)
        assert engine.dfs.read_partition("output", 1) == (6,)
        assert metrics.reduce_tasks == 0

    def test_wall_time_recorded(self, engine):
        engine.dfs.write_records("xs", [1, 2, 3], num_partitions=1)
        _, metrics = engine.run(
            MapReduceJob(name="noop", mapper=lambda x: (x,)), "xs", "ys"
        )
        assert metrics.wall_time > 0

class TestCostScheduling:
    def test_map_costs_drive_simulated_time(self):
        engine = MapReduceEngine(
            cluster=SimulatedCluster(
                ClusterConfig(num_nodes=1, cores_per_node=1, task_overhead=0.0)
            )
        )
        engine.dfs.write_records("xs", [1] * 10, num_partitions=2)
        job = MapReduceJob(
            name="costly",
            mapper=lambda x: ((x, x),),
            reducer=lambda k, vs: (k,),
            map_cost=lambda x: 2.0,
        )
        _, metrics = engine.run(job, "xs", "ys")
        assert metrics.map_stats.serial_cost == pytest.approx(20.0)
        # Reduce tasks carry no simulated work of their own.
        assert metrics.reduce_stats.serial_cost == 0.0
        assert metrics.simulated_time == pytest.approx(20.0)

    def test_more_slots_shrink_makespan(self):
        def run(slots):
            engine = MapReduceEngine(
                cluster=SimulatedCluster(
                    ClusterConfig(num_nodes=slots, cores_per_node=1, task_overhead=0.0)
                )
            )
            engine.dfs.write_records("xs", list(range(8)), num_partitions=8)
            job = MapReduceJob(
                name="par", mapper=lambda x: (x,), map_cost=lambda x: 1.0
            )
            _, metrics = engine.run(job, "xs", f"ys{slots}")
            return metrics.map_stats.makespan

        assert run(8) == pytest.approx(run(1) / 8)


class TestFailureRecovery:
    def test_retries_recover(self):
        engine = MapReduceEngine(
            failure_policy=FailurePolicy(failure_rate=0.4, max_attempts=10, seed=1)
        )
        engine.dfs.write_records("lines", ["a b"] * 6, num_partitions=6)
        handle, metrics = engine.run(word_count_job(), "lines", "counts")
        assert dict(engine.dfs.read_all("counts")) == {"a": 6, "b": 6}
        assert metrics.retries > 0
        assert metrics.map_attempts > metrics.map_tasks

    def test_job_fails_after_max_attempts(self):
        engine = MapReduceEngine(
            failure_policy=FailurePolicy(
                failure_rate=0.97, max_attempts=2, seed=2
            )
        )
        engine.dfs.write_records("xs", list(range(20)), num_partitions=20)
        with pytest.raises(JobFailedError):
            engine.run(
                MapReduceJob(name="doomed", mapper=lambda x: (x,)), "xs", "ys"
            )

    def test_failed_attempts_charged_to_schedule(self):
        quiet = MapReduceEngine(
            cluster=SimulatedCluster(
                ClusterConfig(num_nodes=1, cores_per_node=1, task_overhead=0.0)
            )
        )
        flaky = MapReduceEngine(
            cluster=SimulatedCluster(
                ClusterConfig(num_nodes=1, cores_per_node=1, task_overhead=0.0)
            ),
            failure_policy=FailurePolicy(failure_rate=0.5, max_attempts=20, seed=3),
        )
        for engine, out in ((quiet, "q"), (flaky, "f")):
            engine.dfs.write_records("xs", list(range(10)), num_partitions=10)
            job = MapReduceJob(name="j", mapper=lambda x: (x,), map_cost=lambda x: 1.0)
            _, metrics = engine.run(job, "xs", out)
            if out == "q":
                quiet_time = metrics.map_stats.makespan
            else:
                flaky_time = metrics.map_stats.makespan
                assert metrics.retries > 0
        assert flaky_time > quiet_time
