"""Edge-case tests across modules: empty inputs, degenerate worlds,
configuration corners that the mainline tests do not reach."""

import numpy as np
import pytest

from repro.core.matcher import EVMatcher, MatcherConfig
from repro.core.set_splitting import SetSplitter, SplitConfig
from repro.core.vid_filtering import FilterConfig, VIDFilter
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import build_dataset
from repro.mapreduce.engine import MapReduceEngine
from repro.parallel.filter_job import ParallelVIDFilter
from repro.sensing.scenarios import (
    Detection,
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.world.entities import EID, VID


def single_scenario_store():
    key = ScenarioKey(0, 0)
    f = np.array([1.0, 0.0])
    return ScenarioStore(
        [
            EVScenario(
                e=EScenario(key=key, inclusive=frozenset({EID(0), EID(1)})),
                v=VScenario.of(
                    key,
                    (
                        Detection(0, f, VID(0)),
                        Detection(1, np.array([0.0, 1.0]), VID(1)),
                    ),
                ),
            )
        ]
    )


class TestDegenerateStores:
    def test_splitter_with_one_scenario_cannot_distinguish(self):
        store = single_scenario_store()
        result = SetSplitter(store, SplitConfig(min_gap_ticks=0)).run(
            [EID(0)], universe=frozenset({EID(0), EID(1)})
        )
        # One scenario containing both EIDs separates nothing.
        assert EID(0) in result.unresolved

    def test_matcher_on_degenerate_store_does_not_crash(self):
        store = single_scenario_store()
        matcher = EVMatcher(store)
        report = matcher.match([EID(0)])
        assert EID(0) in report.results

    def test_universe_of_one_is_trivially_distinguished(self):
        key = ScenarioKey(0, 0)
        store = ScenarioStore(
            [
                EVScenario(
                    e=EScenario(key=key, inclusive=frozenset({EID(0)})),
                    v=VScenario.of(key),
                )
            ]
        )
        result = SetSplitter(store, SplitConfig(min_gap_ticks=0)).run(
            [EID(0)], universe=frozenset({EID(0)})
        )
        # Candidate set starts as {EID(0)}: already a singleton.
        assert result.distinguished == frozenset({EID(0)})
        assert result.evidence[EID(0)] == []

    def test_store_with_no_eids_rejected_by_splitter(self):
        key = ScenarioKey(0, 0)
        store = ScenarioStore(
            [
                EVScenario(
                    e=EScenario(key=key, inclusive=frozenset()),
                    v=VScenario.of(key),
                )
            ]
        )
        with pytest.raises(ValueError, match="no EIDs"):
            SetSplitter(store).run([EID(0)])


class TestFilterEdges:
    def test_all_scenarios_empty_yields_empty_result(self):
        key0, key1 = ScenarioKey(0, 0), ScenarioKey(0, 1)
        store = ScenarioStore(
            [
                EVScenario(
                    e=EScenario(key=k, inclusive=frozenset({EID(0)})),
                    v=VScenario.of(k),
                )
                for k in (key0, key1)
            ]
        )
        result = VIDFilter(store).match_one(EID(0), [key0, key1])
        assert result.is_empty
        assert result.agreement == 0.0

    def test_parallel_filter_max_evidence(self, ideal_dataset):
        engine = MapReduceEngine()
        split = SetSplitter(ideal_dataset.store, SplitConfig(seed=7)).run(
            list(ideal_dataset.sample_targets(5, seed=1))
        )
        filt = ParallelVIDFilter(
            ideal_dataset.store, engine, FilterConfig(max_evidence=2)
        )
        results, _stats = filt.match(split.evidence)
        for result in results.values():
            assert len(result.scenario_keys) <= 2


class TestWorldEdges:
    def test_one_cell_world_matches_nothing_distinguishable(self):
        """A single giant cell: everyone always co-occurs, so nobody is
        electronically distinguishable; matching degrades gracefully."""
        dataset = build_dataset(
            ExperimentConfig(
                num_people=20,
                cells_per_side=1,
                region_side=200.0,
                duration=100.0,
                warmup=0.0,
                seed=5,
            )
        )
        matcher = EVMatcher(dataset.store)
        report = matcher.match(list(dataset.sample_targets(5, seed=1)))
        split_result = SetSplitter(dataset.store).run(
            list(dataset.sample_targets(5, seed=1))
        )
        assert len(split_result.unresolved) == 5
        # The V stage has no evidence to work with: empty results, no crash.
        for result in report.results.values():
            assert result.is_empty

    def test_single_person_world(self):
        dataset = build_dataset(
            ExperimentConfig(
                num_people=1,
                cells_per_side=2,
                region_side=200.0,
                duration=100.0,
                warmup=0.0,
                seed=6,
            )
        )
        matcher = EVMatcher(dataset.store)
        result = matcher.match_one(EID(0))
        # A universe of one is trivially matched to the only appearance.
        assert result.eid == EID(0)

    def test_very_short_trace(self):
        dataset = build_dataset(
            ExperimentConfig(
                num_people=10,
                cells_per_side=2,
                region_side=200.0,
                duration=10.0,
                sample_dt=10.0,
                warmup=0.0,
                seed=7,
            )
        )
        assert dataset.traces.num_ticks == 2
        assert len(dataset.store) > 0


class TestReportEdges:
    def test_score_counts_unmatched_targets(self):
        store = single_scenario_store()
        matcher = EVMatcher(store)
        report = matcher.match([EID(0), EID(1)])
        score = report.score({EID(0): VID(0), EID(1): VID(1)})
        assert score.total == 2

    def test_match_universal_with_explicit_universe(self, ideal_dataset):
        universe = list(ideal_dataset.eids)[:30]
        matcher = EVMatcher(ideal_dataset.store)
        report = matcher.match_universal(universe=universe)
        assert set(report.targets) == set(universe)
