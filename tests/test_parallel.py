"""Tests for the parallel pipeline (Algorithm 3, V-stage jobs, EDP job,
driver) including serial-vs-parallel equivalence."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.edp import EDPConfig, EDPMatcher
from repro.core.matcher import EVMatcher, MatcherConfig
from repro.core.set_splitting import SelectionStrategy, SetSplitter, SplitConfig
from repro.core.vid_filtering import FilterConfig, VIDFilter
from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.engine import MapReduceEngine
from repro.parallel.driver import ParallelEVMatcher
from repro.parallel.edp_job import ParallelEDP
from repro.parallel.filter_job import ParallelVIDFilter
from repro.parallel.split_job import ParallelSetSplitter
from repro.topology import TopologyConfig


@pytest.fixture
def engine():
    return MapReduceEngine()


class TestParallelSetSplitter:
    def test_distinguishes_targets(self, ideal_dataset, engine):
        targets = list(ideal_dataset.sample_targets(20, seed=1))
        splitter = ParallelSetSplitter(
            ideal_dataset.store, engine, SplitConfig(seed=7)
        )
        result, stats = splitter.run(targets)
        assert len(result.unresolved) <= 1
        assert stats.iterations > 0
        assert stats.job_metrics, "iterations must run MapReduce jobs"

    def test_evidence_contains_target(self, ideal_dataset, engine):
        targets = list(ideal_dataset.sample_targets(10, seed=2))
        splitter = ParallelSetSplitter(
            ideal_dataset.store, engine, SplitConfig(seed=7)
        )
        result, _stats = splitter.run(targets)
        for target in targets:
            for key in result.evidence[target]:
                assert target in ideal_dataset.store.e_scenario(key).inclusive

    def test_candidates_are_positive_intersections(self, ideal_dataset, engine):
        targets = list(ideal_dataset.sample_targets(8, seed=3))
        splitter = ParallelSetSplitter(
            ideal_dataset.store, engine, SplitConfig(seed=7)
        )
        result, _stats = splitter.run(targets)
        universe = set()
        for scenario in ideal_dataset.store.e_scenarios():
            universe |= scenario.eids
        for target in targets:
            expected = set(universe)
            for key in result.evidence[target]:
                e = ideal_dataset.store.e_scenario(key)
                expected &= set(e.inclusive | e.vague)
            assert result.candidates[target] == frozenset(expected)

    def test_simulated_time_accumulates(self, ideal_dataset, engine):
        targets = list(ideal_dataset.sample_targets(10, seed=4))
        splitter = ParallelSetSplitter(
            ideal_dataset.store, engine, SplitConfig(seed=7)
        )
        _result, stats = splitter.run(targets)
        assert stats.simulated_time > 0
        assert stats.total_pairs_shuffled > 0

    def test_errors(self, ideal_dataset, engine):
        splitter = ParallelSetSplitter(ideal_dataset.store, engine)
        with pytest.raises(ValueError):
            splitter.run([])
        from repro.world.entities import EID

        with pytest.raises(ValueError, match="not in universe"):
            splitter.run([EID(10**6)])

    def test_rejects_an_examination_budget(self, ideal_dataset, engine):
        # Algorithm 3 examines whole ticks; a scenario budget has no
        # counterpart there and must not be silently ignored.
        with pytest.raises(ValueError, match="max_scenarios"):
            ParallelSetSplitter(
                ideal_dataset.store, engine, SplitConfig(max_scenarios=50)
            )


class TestParallelVIDFilter:
    def test_matches_serial_filter_exactly(self, ideal_dataset, engine):
        targets = list(ideal_dataset.sample_targets(12, seed=5))
        split = SetSplitter(ideal_dataset.store, SplitConfig(seed=7)).run(targets)
        serial = VIDFilter(ideal_dataset.store, FilterConfig()).match(split.evidence)
        par_filter = ParallelVIDFilter(ideal_dataset.store, engine, FilterConfig())
        parallel, stats = par_filter.match(split.evidence)
        assert_same_results(parallel, serial)

    def test_extraction_deduplicated(self, ideal_dataset, engine):
        targets = list(ideal_dataset.sample_targets(12, seed=6))
        split = SetSplitter(ideal_dataset.store, SplitConfig(seed=7)).run(targets)
        par_filter = ParallelVIDFilter(ideal_dataset.store, engine)
        _results, stats = par_filter.match(split.evidence)
        distinct = {k for keys in split.evidence.values() for k in keys}
        assert stats.scenarios_extracted == len(
            {k for k in distinct if len(ideal_dataset.store.v_scenario(k)) > 0}
        )

    def test_empty_evidence(self, ideal_dataset, engine):
        par_filter = ParallelVIDFilter(ideal_dataset.store, engine)
        results, stats = par_filter.match({})
        assert results == {}
        assert stats.simulated_time == 0.0


class TestParallelEDP:
    def test_matches_serial_edp_exactly(self, ideal_dataset, engine):
        targets = list(ideal_dataset.sample_targets(10, seed=7))
        serial = EDPMatcher(ideal_dataset.store, EDPConfig(seed=9)).run(targets)
        par = ParallelEDP(ideal_dataset.store, engine, EDPConfig(seed=9))
        parallel, stats = par.run(targets)
        assert serial.evidence == parallel.evidence
        assert serial.candidates == parallel.candidates
        assert stats.e_metrics is not None
        assert stats.e_metrics.map_tasks == len(targets)

    def test_one_mapper_per_eid(self, ideal_dataset, engine):
        targets = list(ideal_dataset.sample_targets(7, seed=8))
        par = ParallelEDP(ideal_dataset.store, engine, EDPConfig(seed=9))
        _result, stats = par.run(targets)
        assert stats.e_metrics.map_tasks == 7


class TestParallelDriver:
    def test_match_report_shape(self, ideal_dataset):
        matcher = ParallelEVMatcher(ideal_dataset.store)
        targets = list(ideal_dataset.sample_targets(15, seed=9))
        report = matcher.match(targets)
        assert report.algorithm == "ss"
        assert set(report.results.keys()) == set(targets)
        assert report.times.v_time > report.times.e_time
        assert report.score(ideal_dataset.truth).accuracy >= 0.7

    def test_edp_report(self, ideal_dataset):
        matcher = ParallelEVMatcher(ideal_dataset.store)
        targets = list(ideal_dataset.sample_targets(15, seed=10))
        report = matcher.match_edp(targets)
        assert report.algorithm == "edp"
        assert report.score(ideal_dataset.truth).accuracy >= 0.7

    def test_ss_beats_edp_on_time(self, ideal_dataset):
        # A small cluster, so the extraction stage needs several waves:
        # on an over-provisioned cluster (more slots than selected
        # scenarios) both algorithms finish in one wave and the reuse
        # advantage disappears — a real small-scale crossover.
        matcher = ParallelEVMatcher(
            ideal_dataset.store, cluster=ClusterConfig(num_nodes=2, cores_per_node=2)
        )
        targets = list(ideal_dataset.sample_targets(30, seed=11))
        ss = matcher.match(targets)
        edp = matcher.match_edp(targets)
        assert ss.num_selected < edp.num_selected
        assert ss.times.total < edp.times.total

    def test_bigger_cluster_is_faster(self, ideal_dataset):
        targets = list(ideal_dataset.sample_targets(20, seed=12))
        small = ParallelEVMatcher(
            ideal_dataset.store, cluster=ClusterConfig(num_nodes=1, cores_per_node=1)
        ).match(targets)
        large = ParallelEVMatcher(
            ideal_dataset.store, cluster=ClusterConfig(num_nodes=14, cores_per_node=4)
        ).match(targets)
        assert large.times.total < small.times.total

    def test_serial_vs_parallel_same_accuracy_band(self, ideal_dataset):
        # The MapReduce split examines scenarios in random-tick order,
        # so the serial pipeline with that strategy is its exact twin.
        targets = list(ideal_dataset.sample_targets(30, seed=14))
        split = SplitConfig(seed=7, strategy=SelectionStrategy.RANDOM_TICK)
        serial = EVMatcher(
            ideal_dataset.store, MatcherConfig(split=split)
        ).match(targets)
        parallel = ParallelEVMatcher(
            ideal_dataset.store, split_config=split
        ).match(targets)
        assert serial.score(ideal_dataset.truth) == parallel.score(
            ideal_dataset.truth
        )
        assert parallel.num_selected == serial.num_selected
        assert_same_results(parallel.results, serial.results)


class TestFaultTolerantPipeline:
    def test_matching_survives_injected_failures(self, ideal_dataset):
        """The full distributed pipeline under a 20% task-kill rate
        must produce the same matches as a quiet cluster (retry makes
        faults invisible to results; only the schedule stretches)."""
        from repro.mapreduce.failures import FailurePolicy

        targets = list(ideal_dataset.sample_targets(20, seed=15))
        quiet = ParallelEVMatcher(
            ideal_dataset.store, split_config=SplitConfig(seed=7)
        ).match(targets)
        flaky = ParallelEVMatcher(
            ideal_dataset.store,
            split_config=SplitConfig(seed=7),
            failure_policy=FailurePolicy(failure_rate=0.2, max_attempts=8, seed=3),
        ).match(targets)
        assert {
            e: [d.detection_id for d in r.chosen] for e, r in quiet.results.items()
        } == {
            e: [d.detection_id for d in r.chosen] for e, r in flaky.results.items()
        }
        # Retried attempts occupied slots: the flaky schedule is no faster.
        assert flaky.times.total >= quiet.times.total


def assert_same_results(parallel, serial):
    """Field-for-field equality, with bit-equal scores and agreement."""
    assert list(parallel) == list(serial)
    for eid, want in serial.items():
        got = parallel[eid]
        assert got.eid == want.eid
        assert got.scenario_keys == want.scenario_keys
        assert got.chosen == want.chosen
        assert got.scores == want.scores
        assert got.agreement == want.agreement


class TestSerialEquivalence:
    """The MapReduce jobs run the production stages, so their results
    equal the serial ones for every config, by construction.

    The V stage also gets ``decoys`` random scenarios appended to each
    target's evidence: split evidence is transit-consistent on this
    world, and the decoys give the topology pruner and prior something
    to drop and downweight.
    """

    @settings(max_examples=12, deadline=None)
    @given(
        num_targets=st.integers(min_value=1, max_value=25),
        target_seed=st.integers(min_value=0, max_value=10**4),
        split_seed=st.integers(min_value=0, max_value=10**4),
        max_evidence=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        agreement_threshold=st.floats(min_value=0.3, max_value=0.9),
        topology=st.sampled_from(
            [None, (True, True), (True, False), (False, True)]
        ),
        decoys=st.integers(min_value=0, max_value=3),
    )
    def test_mapreduce_equals_serial(
        self,
        practical_dataset,
        num_targets,
        target_seed,
        split_seed,
        max_evidence,
        agreement_threshold,
        topology,
        decoys,
    ):
        store = practical_dataset.store
        targets = list(practical_dataset.sample_targets(num_targets, seed=target_seed))
        split_config = SplitConfig(seed=split_seed)
        serial_split = SetSplitter(
            store, replace(split_config, strategy=SelectionStrategy.RANDOM_TICK)
        ).run(targets)
        parallel_split, _stats = ParallelSetSplitter(
            store, MapReduceEngine(), split_config
        ).run(targets)
        assert parallel_split.evidence == serial_split.evidence
        assert parallel_split.recorded == serial_split.recorded
        assert parallel_split.candidates == serial_split.candidates

        topology_config = None
        if topology is not None:
            prune, prior = topology
            topology_config = TopologyConfig(
                model=practical_dataset.topology, prune=prune, prior=prior
            )
        filter_config = FilterConfig(
            max_evidence=max_evidence,
            agreement_threshold=agreement_threshold,
            topology=topology_config,
        )
        keys = list(store.keys)
        rng = random.Random(split_seed)
        evidence = {
            eid: list(evidence) + rng.sample(keys, decoys)
            for eid, evidence in serial_split.evidence.items()
        }
        serial = VIDFilter(store, filter_config).match(evidence)
        parallel, _stats = ParallelVIDFilter(
            store, MapReduceEngine(), filter_config
        ).match(evidence)
        assert_same_results(parallel, serial)
