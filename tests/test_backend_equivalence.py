"""Equivalence properties of the E and V stages.

The E stage: a split on a store grown scenario by scenario through the
live ``ScenarioStore.add`` path equals the split on the same scenarios
built whole, and an examination budget stops the split exactly where
the unbudgeted run would be after that many scenarios.  Alongside them:
the backend name run labels carry, and the V stage's shared membership
table against its pairwise Eq. 1 oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accel import resolve_backend
from repro.core.set_splitting import SelectionStrategy, SetSplitter, SplitConfig
from repro.sensing.scenarios import (
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.world.entities import EID

STREAMING = [s for s in SelectionStrategy if s is not SelectionStrategy.GREEDY]


def make_scenario(cell, tick, inclusive, vague=()):
    key = ScenarioKey(cell_id=cell, tick=tick)
    return EVScenario(
        e=EScenario(
            key=key,
            inclusive=frozenset(EID(i) for i in inclusive),
            vague=frozenset(EID(i) for i in vague),
        ),
        v=VScenario.of(key),
    )


#: One drawn scenario: (inclusive ids, vague ids, cell, tick).  Keys are
#: deduplicated at build time; vague is made disjoint from inclusive.
scenario_entries = st.lists(
    st.tuples(
        st.sets(st.integers(0, 9), min_size=1, max_size=6),
        st.sets(st.integers(0, 11), max_size=3),
        st.integers(0, 3),
        st.integers(0, 15),
    ),
    min_size=1,
    max_size=12,
)


def build_scenarios(entries):
    scenarios = []
    seen_keys = set()
    for inclusive, vague, cell, tick in entries:
        if (cell, tick) in seen_keys:
            continue
        seen_keys.add((cell, tick))
        scenarios.append(
            make_scenario(cell, tick, inclusive, set(vague) - set(inclusive))
        )
    return scenarios


def build_store(entries):
    return ScenarioStore(build_scenarios(entries))


def run_split(store, targets, universe=None, **cfg):
    splitter = SetSplitter(store, SplitConfig(**cfg))
    return splitter.run(targets, universe=universe)


def assert_splits_equal(a, b):
    assert a.recorded == b.recorded
    assert a.evidence == b.evidence
    assert a.candidates == b.candidates
    assert a.scenarios_examined == b.scenarios_examined


class TestSetSplitterEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        entries=scenario_entries,
        cut=st.integers(1, 12),
        strategy=st.sampled_from(list(SelectionStrategy)),
        gap=st.sampled_from([0, 3]),
        merge_vague=st.booleans(),
    )
    def test_equivalence_survives_live_store_add(
        self, entries, cut, strategy, gap, merge_vague
    ):
        """A split on a store grown by ``ScenarioStore.add`` equals the
        split on the same store built whole — the live-ingest path's
        key, tick and universe caches follow every add, including adds
        after the grown store already served a split, and the
        incrementally kept key order is the full sort's."""
        scenarios = build_scenarios(entries)
        cut = min(cut, len(scenarios))
        kwargs = dict(
            strategy=strategy,
            min_gap_ticks=gap,
            treat_vague_as_inclusive=merge_vague,
        )
        grown = ScenarioStore(scenarios[:cut])
        assert grown.keys == tuple(sorted(s.key for s in scenarios[:cut]))
        run_split(grown, sorted(grown.eid_universe)[:4], **kwargs)
        for i, scenario in enumerate(scenarios[cut:], start=cut + 1):
            grown.add(scenario)
            assert grown.keys == tuple(sorted(s.key for s in scenarios[:i]))
        whole = ScenarioStore(scenarios)
        targets = sorted(whole.eid_universe)[:4]
        assert_splits_equal(
            run_split(grown, targets, **kwargs),
            run_split(whole, targets, **kwargs),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        entries=scenario_entries,
        budget=st.integers(1, 6),
        strategy=st.sampled_from(STREAMING),
        gap=st.sampled_from([0, 3]),
        merge_vague=st.booleans(),
    )
    def test_max_scenarios_budget_equivalence(
        self, entries, budget, strategy, gap, merge_vague
    ):
        """A streaming split under ``max_scenarios`` is the unbudgeted
        split cut after that many examined scenarios: same examined
        count (capped), and recorded and per-target evidence are
        prefixes of the full run's."""
        store = build_store(entries)
        targets = sorted(store.eid_universe)
        kwargs = dict(
            strategy=strategy,
            min_gap_ticks=gap,
            treat_vague_as_inclusive=merge_vague,
        )
        full = run_split(store, targets, **kwargs)
        cut = run_split(store, targets, max_scenarios=budget, **kwargs)
        assert cut.scenarios_examined == min(budget, full.scenarios_examined)
        assert cut.recorded == full.recorded[: len(cut.recorded)]
        for target in targets:
            evidence = cut.evidence[target]
            assert evidence == full.evidence[target][: len(evidence)]
        if cut.scenarios_examined == full.scenarios_examined:
            assert_splits_equal(cut, full)


class TestBackendResolution:
    def test_explicit_backends_resolve_to_themselves(self):
        """Run labels name the one E-stage implementation; any other
        name is a configuration error, not a silent fallback."""
        assert SplitConfig.backend == "python"
        assert resolve_backend(SplitConfig().backend) == "python"
        for name in ("bitset", "numba", "auto"):
            with pytest.raises(ValueError, match="python"):
                resolve_backend(name)
        with pytest.raises(TypeError):
            SplitConfig(backend="python")


def _vstage_filters(store, config):
    """A production filter and the pairwise oracle, each with a clock."""
    from repro.core.vid_filtering import VIDFilter
    from repro.metrics.timing import SimulatedClock
    from tests.oracles.vstage import PairwiseVIDFilter

    return (
        VIDFilter(store, config, SimulatedClock()),
        PairwiseVIDFilter(store, config, SimulatedClock()),
    )


def assert_vstage_equal(production, oracle, results, expected):
    """Identical evidence, choices, agreement and simulated cost;
    scores within BLAS re-association error (the shared table's
    stacked matmuls sum each dot product in another order)."""
    assert results.keys() == expected.keys()
    for eid, result in results.items():
        reference = expected[eid]
        assert result.scenario_keys == reference.scenario_keys
        assert result.chosen == reference.chosen
        assert result.agreement == reference.agreement
        np.testing.assert_allclose(
            result.scores, reference.scores, rtol=1e-5, atol=1e-12
        )
    assert production.clock.comparisons == oracle.clock.comparisons
    assert production.clock.times() == oracle.clock.times()


class TestVStageSharedTableEquivalence:
    """The V stage's shared per-pair membership table against the
    pairwise Eq. 1 oracle (``tests/oracles/vstage.py``)."""

    #: Evidence mutations a target can draw; "foreign" inserts another
    #: scenario, a misattributed sighting for pruning and the prior.
    MUTATIONS = ("keep", "duplicate", "detectionless", "single", "foreign")

    @pytest.fixture(scope="class")
    def world(self):
        from repro.datagen.config import ExperimentConfig
        from repro.datagen.dataset import build_dataset

        # Positional drift and VID misses make messy evidence; the
        # "foreign" mutation adds sightings that pruning drops and the
        # prior downweights.
        dataset = build_dataset(
            ExperimentConfig(
                num_people=60,
                cells_per_side=3,
                duration=400.0,
                sample_dt=10.0,
                warmup=100.0,
                e_drift_sigma=12.0,
                v_miss_rate=0.1,
                seed=5,
            )
        )
        targets = list(dataset.sample_targets(10, seed=2))
        split = SetSplitter(dataset.store).run(targets)
        return dataset, split.evidence

    @staticmethod
    def _config(topology, max_evidence, dataset):
        from repro.core.vid_filtering import FilterConfig
        from repro.topology.matching import TopologyConfig

        topo = None
        if topology is not None:
            topo = TopologyConfig(
                model=dataset.topology,
                prune=topology in ("prune", "both"),
                prior=topology in ("prior", "both"),
            )
        return FilterConfig(max_evidence=max_evidence, topology=topo)

    @staticmethod
    def _mutate(evidence, mutations, store, empty_key):
        out = {}
        for (eid, keys), (mutation, pick) in zip(
            sorted(evidence.items()), mutations
        ):
            keys = list(keys)
            if mutation == "duplicate" and keys:
                keys.insert(len(keys) // 2, keys[0])
            elif mutation == "detectionless":
                keys.insert(len(keys) // 2, empty_key)
            elif mutation == "single":
                keys = keys[:1]
            elif mutation == "foreign":
                keys.insert(1, store.keys[pick % len(store.keys)])
            out[eid] = keys
        return out

    @staticmethod
    def _store_with_empty(dataset, keep=lambda key: True):
        """A fresh store of ``dataset``'s scenarios passing ``keep``,
        plus one detection-less scenario; returns ``(store, its key)``."""
        empty_key = ScenarioKey(cell_id=0, tick=10**6)
        scenarios = [
            dataset.store.get(key) for key in dataset.store.keys if keep(key)
        ]
        scenarios.append(
            EVScenario(
                e=EScenario(key=empty_key, inclusive=frozenset()),
                v=VScenario.of(empty_key),
            )
        )
        return ScenarioStore(scenarios), empty_key

    @settings(max_examples=30, deadline=None)
    @given(
        mutations=st.lists(
            st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10**6)),
            min_size=10,
            max_size=10,
        ),
        topology=st.sampled_from([None, "prune", "prior", "both"]),
        max_evidence=st.sampled_from([None, 1, 2, 4]),
        use_exclusion=st.booleans(),
    )
    def test_batch_matches_oracle(
        self, world, mutations, topology, max_evidence, use_exclusion
    ):
        dataset, evidence = world
        store, empty_key = self._store_with_empty(dataset)
        config = self._config(topology, max_evidence, dataset)
        drawn = self._mutate(evidence, mutations, store, empty_key)
        production, oracle = _vstage_filters(store, config)
        results = production.match(drawn, use_exclusion=use_exclusion)
        expected = oracle.match(drawn, use_exclusion=use_exclusion)
        assert any(not r.is_empty for r in expected.values())
        assert_vstage_equal(production, oracle, results, expected)
        assert production.topology_report() == oracle.topology_report()

    @settings(max_examples=10, deadline=None)
    @given(
        cut=st.sampled_from([0.3, 0.6]),
        topology=st.sampled_from([None, "both"]),
    )
    def test_long_lived_filter_after_store_add(self, world, cut, topology):
        """One filter matches, the store grows, and the same filter
        matches again (batch and single-target): pairs cached by the
        first batch are reused beside newly computed ones."""
        dataset, evidence = world
        ticks = sorted({key.tick for key in dataset.store.keys})
        horizon = ticks[int(cut * len(ticks))]
        store, empty_key = self._store_with_empty(
            dataset, keep=lambda key: key.tick < horizon
        )
        config = self._config(topology, None, dataset)
        production, oracle = _vstage_filters(store, config)
        early = {
            eid: [key for key in keys if key.tick < horizon]
            for eid, keys in evidence.items()
        }
        assert_vstage_equal(
            production, oracle, production.match(early), oracle.match(early)
        )
        for key in dataset.store.keys:
            if key.tick >= horizon:
                store.add(dataset.store.get(key))
        assert_vstage_equal(
            production, oracle, production.match(evidence), oracle.match(evidence)
        )
        eid = max(evidence, key=lambda e: len(evidence[e]))
        keys = list(evidence[eid]) + [empty_key]
        assert_vstage_equal(
            production,
            oracle,
            {eid: production.match_one(eid, keys)},
            {eid: oracle.match_one(eid, keys)},
        )
