"""Property tests: the MapReduce engine against reference semantics.

For arbitrary generated inputs, a full engine run (any partitioning,
with injected failures) must equal a plain Python reference
implementation of map -> group -> reduce.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.failures import FailurePolicy
from repro.mapreduce.job import MapReduceJob

records_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), st.integers(-100, 100)),
    min_size=0,
    max_size=60,
)


def reference_sum_by_key(records):
    grouped = defaultdict(int)
    for key, value in records:
        grouped[key] += value
    return dict(grouped)


def run_engine(records, num_partitions, failure_rate=0.0, seed=0):
    engine = MapReduceEngine(
        cluster=SimulatedCluster(ClusterConfig(num_nodes=2, cores_per_node=2)),
        failure_policy=FailurePolicy(
            failure_rate=failure_rate, max_attempts=12, seed=seed
        ),
    )
    engine.dfs.write_records("in", records, num_partitions=num_partitions)
    job = MapReduceJob(
        name="sum",
        mapper=lambda kv: (kv,),
        reducer=lambda k, vs: ((k, sum(vs)),),
        num_reducers=3,
    )
    engine.run(job, "in", "out")
    return dict(engine.dfs.read_all("out"))


class TestEngineSemantics:
    @given(records_strategy, st.integers(min_value=1, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, records, partitions):
        assert run_engine(records, partitions) == reference_sum_by_key(records)

    @given(
        records_strategy.filter(lambda r: len(r) > 0),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_failures_are_invisible_to_results(self, records, seed):
        quiet = run_engine(records, 4)
        flaky = run_engine(records, 4, failure_rate=0.3, seed=seed)
        assert quiet == flaky

    @given(records_strategy)
    @settings(max_examples=25, deadline=None)
    def test_partitioning_is_transparent(self, records):
        """Output must not depend on how the input was split."""
        results = {
            p: run_engine(records, p) for p in (1, 3, 6)
        }
        assert results[1] == results[3] == results[6]
