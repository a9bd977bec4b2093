"""Property tests pinning every installed kernel backend byte-identical
to the pure-Python reference across the E stage, the EDP baseline and
the incremental matcher — including vague zones, the diversity rule,
extra (unobserved) universe EIDs, and live ``ScenarioStore.add`` syncs
mid-run — plus the backend-resolution rules (``auto``, the numba
fallback), the published accel gauges, the numba kernel's plain-Python
twin, and the V stage's shared membership table against its pairwise
Eq. 1 oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accel import (
    AUTO_BACKEND,
    available_backends,
    best_available_backend,
    matrix_for,
    numba_available,
    resolve_backend,
)
from repro.core.edp import EDPConfig, EDPMatcher
from repro.core.incremental import IncrementalMatcher
from repro.core.set_splitting import SelectionStrategy, SetSplitter, SplitConfig
from repro.sensing.scenarios import (
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.world.entities import EID

#: Every backend this interpreter can run; "python" is always first,
#: so INSTALLED[1:] are the accelerated ones to compare against it.
INSTALLED = available_backends()


def eids(*indices):
    return frozenset(EID(i) for i in indices)


def make_scenario(cell, tick, inclusive, vague=()):
    key = ScenarioKey(cell_id=cell, tick=tick)
    return EVScenario(
        e=EScenario(
            key=key,
            inclusive=frozenset(EID(i) for i in inclusive),
            vague=frozenset(EID(i) for i in vague),
        ),
        v=VScenario(key=key, detections=()),
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


def build_store(entries):
    scenarios = []
    seen_keys = set()
    for inclusive, vague, cell, tick in entries:
        if (cell, tick) in seen_keys:
            continue
        seen_keys.add((cell, tick))
        scenarios.append(
            make_scenario(cell, tick, inclusive, set(vague) - set(inclusive))
        )
    return ScenarioStore(scenarios)


def run_split(store, targets, universe, **cfg):
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
        strategy=st.sampled_from(list(SelectionStrategy)),
        seed=st.integers(0, 3),
        gap=st.sampled_from([0, 3]),
        merge_vague=st.booleans(),
        add_extra=st.booleans(),
    )
    def test_bitset_equals_python(
        self, entries, strategy, seed, gap, merge_vague, add_extra
    ):
        store = build_store(entries)
        universe = sorted(store.eid_universe)
        if add_extra:
            universe = universe + [EID(99)]  # never observed: extras path
        targets = universe[:4]
        results = {
            backend: run_split(
                store,
                targets,
                universe,
                strategy=strategy,
                seed=seed,
                min_gap_ticks=gap,
                treat_vague_as_inclusive=merge_vague,
                backend=backend,
            )
            for backend in INSTALLED
        }
        for backend in INSTALLED[1:]:
            assert_splits_equal(results["python"], results[backend])

    @settings(max_examples=25, deadline=None)
    @given(
        entries=scenario_entries,
        strategy=st.sampled_from(
            [SelectionStrategy.SEQUENTIAL, SelectionStrategy.GREEDY]
        ),
    )
    def test_equivalence_survives_live_store_add(self, entries, strategy):
        """Adding scenarios after the shared matrix was built must keep
        every backend identical (the live-ingest path: matrix rows and
        interner ids are appended, never rebuilt)."""
        store = build_store(entries)
        matrix = matrix_for(store)  # built against the initial store
        pre_rows = len(matrix)
        store.add(make_scenario(7, 90, {0, 12}, {13}))
        store.add(make_scenario(7, 91, {12, 13}))
        universe = sorted(store.eid_universe)
        targets = universe[:4]
        kwargs = dict(strategy=strategy, min_gap_ticks=3)
        python = run_split(store, targets, universe, backend="python", **kwargs)
        for backend in INSTALLED[1:]:
            accel = run_split(store, targets, universe, backend=backend, **kwargs)
            assert_splits_equal(python, accel)
        assert len(matrix) == pre_rows + 2  # synced, not rebuilt

        # Another add *between* runs: the next run must sync again,
        # mid-session, and stay equivalent with the grown universe.
        store.add(make_scenario(6, 95, {0, 14}))
        universe = sorted(store.eid_universe)
        python = run_split(store, targets, universe, backend="python", **kwargs)
        for backend in INSTALLED[1:]:
            accel = run_split(store, targets, universe, backend=backend, **kwargs)
            assert_splits_equal(python, accel)
        assert len(matrix) == pre_rows + 3

    def test_max_scenarios_budget_equivalence(self):
        store = build_store(
            [({0, 1, 2}, set(), 0, 0), ({0, 1}, {3}, 1, 5), ({0}, set(), 2, 9)]
        )
        universe = sorted(store.eid_universe)
        for budget in (1, 2):
            python = run_split(
                store,
                universe,
                universe,
                strategy=SelectionStrategy.SEQUENTIAL,
                max_scenarios=budget,
                backend="python",
            )
            bitset = run_split(
                store,
                universe,
                universe,
                strategy=SelectionStrategy.SEQUENTIAL,
                max_scenarios=budget,
                backend="bitset",
            )
            assert_splits_equal(python, bitset)


class TestEDPEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        entries=scenario_entries,
        seed=st.integers(0, 3),
        greedy_sample=st.sampled_from([1, 3]),
        gap=st.sampled_from([0, 3]),
        add_extra=st.booleans(),
    )
    def test_bitset_equals_python(
        self, entries, seed, greedy_sample, gap, add_extra
    ):
        store = build_store(entries)
        universe = sorted(store.eid_universe)
        if add_extra:
            universe = universe + [EID(99)]
        targets = universe[:4]
        results = {}
        for backend in INSTALLED:
            edp = EDPMatcher(
                store,
                EDPConfig(
                    seed=seed,
                    greedy_sample=greedy_sample,
                    min_gap_ticks=gap,
                    backend=backend,
                ),
            )
            results[backend] = edp.run(targets, universe=universe)
        a = results["python"]
        for backend in INSTALLED[1:]:
            b = results[backend]
            assert a.evidence == b.evidence
            assert a.candidates == b.candidates
            assert a.scenarios_examined == b.scenarios_examined


class TestIncrementalEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        entries=scenario_entries,
        gap=st.sampled_from([0, 3]),
        merge_vague=st.booleans(),
    )
    def test_bitset_equals_python(self, entries, gap, merge_vague):
        store = build_store(entries)
        universe = sorted(store.eid_universe)
        targets = universe[:4]
        states = {}
        for backend in INSTALLED:
            inc = IncrementalMatcher(
                store,
                universe,
                split_config=SplitConfig(
                    min_gap_ticks=gap,
                    treat_vague_as_inclusive=merge_vague,
                    backend=backend,
                ),
            )
            inc.add_targets(targets)
            for key in store.keys:
                inc.observe(store.get(key))
            states[backend] = (
                inc.pending,
                {t: inc.evidence_of(t) for t in targets},
                {
                    t: (em.emitted_at_tick, em.scenarios_consumed)
                    for t, em in inc.emissions.items()
                },
            )
        for backend in INSTALLED[1:]:
            assert states["python"] == states[backend]


class TestBackendResolution:
    def test_auto_is_silent_and_picks_the_best(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend(AUTO_BACKEND) == best_available_backend()

    def test_explicit_backends_resolve_to_themselves(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for backend in ("python", "bitset"):
                assert resolve_backend(backend) == backend

    @pytest.mark.skipif(
        numba_available(), reason="numba installed: no fallback to test"
    )
    def test_missing_numba_degrades_to_bitset_with_warning(self):
        with pytest.warns(RuntimeWarning, match="numba"):
            assert resolve_backend("numba") == "bitset"
        assert best_available_backend() == "bitset"
        assert "numba" not in INSTALLED

    @pytest.mark.skipif(
        not numba_available(), reason="numba not installed"
    )
    def test_numba_resolves_when_installed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("numba") == "numba"
        assert best_available_backend() == "numba"
        assert "numba" in INSTALLED


class TestAccelGauges:
    def test_matrix_bytes_gauge_published(self):
        from repro.obs import get_registry

        store = build_store(
            [({0, 1, 2}, {3}, 0, 0), ({1, 4}, set(), 1, 2)]
        )
        matrix = matrix_for(store)
        matrix.sync()
        text = get_registry().render_prometheus()
        values = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("ev_accel_matrix_bytes ")
        ]
        assert values, "ev_accel_matrix_bytes gauge not published"
        assert values[-1] == matrix.nbytes

    def test_backend_info_gauge_published(self):
        from repro.obs import get_registry

        resolved = resolve_backend(AUTO_BACKEND)
        text = get_registry().render_prometheus()
        info_lines = [
            line
            for line in text.splitlines()
            if line.startswith("ev_accel_backend_info{")
        ]
        assert any(
            f'backend="{resolved}"' in line and line.endswith(" 1")
            for line in info_lines
        )
        presence = "present" if numba_available() else "absent"
        assert any(f'numba="{presence}"' in line for line in info_lines)


class TestNumbaTwinKernel:
    """The JIT kernel's plain-Python twin is the compiled function's
    executable specification: forcing the ``numba`` backend to run the
    uncompiled twin must still reproduce the reference exactly (same
    in-kernel diversity rule, budget, and singleton accounting)."""

    # The SWAR popcount multiply wraps mod 2^64 by design; numpy warns
    # about the overflow only when the twin runs uncompiled.
    @pytest.mark.filterwarnings(
        "ignore:overflow encountered:RuntimeWarning"
    )
    @settings(max_examples=20, deadline=None)
    @given(
        entries=scenario_entries,
        strategy=st.sampled_from(
            [SelectionStrategy.SEQUENTIAL, SelectionStrategy.GREEDY]
        ),
        gap=st.sampled_from([0, 3]),
        merge_vague=st.booleans(),
        budget=st.sampled_from([None, 2]),
    )
    def test_twin_kernel_equals_reference(
        self, entries, strategy, gap, merge_vague, budget
    ):
        from repro.core import accel, accel_numba

        store = build_store(entries)
        universe = sorted(store.eid_universe)
        targets = universe[:4]
        kwargs = dict(
            strategy=strategy,
            min_gap_ticks=gap,
            treat_vague_as_inclusive=merge_vague,
            max_scenarios=budget,
        )
        python = run_split(store, targets, universe, backend="python", **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(accel, "numba_available", lambda: True)
            mp.setattr(
                accel_numba, "load_stream_pass",
                lambda: accel_numba.stream_pass,
            )
            twin = run_split(
                store, targets, universe, backend="numba", **kwargs
            )
        assert_splits_equal(python, twin)


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
        split = SetSplitter(
            dataset.store, SplitConfig(backend="bitset")
        ).run(targets)
        return dataset, split.evidence

    @staticmethod
    def _config(topology, max_evidence, budget, dataset):
        from repro.core.vid_filtering import FilterConfig
        from repro.topology.matching import TopologyConfig

        topo = None
        if topology is not None:
            topo = TopologyConfig(
                model=dataset.topology,
                prune=topology in ("prune", "both"),
                prior=topology in ("prior", "both"),
            )
        return FilterConfig(
            max_evidence=max_evidence,
            membership_cache_bytes=budget,
            topology=topo,
        )

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
                v=VScenario(key=empty_key, detections=()),
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
        budget=st.sampled_from([None, 256, 4096]),
        use_exclusion=st.booleans(),
    )
    def test_batch_matches_oracle(
        self, world, mutations, topology, max_evidence, budget, use_exclusion
    ):
        dataset, evidence = world
        store, empty_key = self._store_with_empty(dataset)
        config = self._config(topology, max_evidence, budget, dataset)
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
        budget=st.sampled_from([None, 256, 4096]),
    )
    def test_long_lived_filter_after_store_add(self, world, cut, topology, budget):
        """One filter matches, the store grows, and the same filter
        matches again (batch and single-target): pairs cached by the
        first batch are reused beside newly computed ones."""
        dataset, evidence = world
        ticks = sorted({key.tick for key in dataset.store.keys})
        horizon = ticks[int(cut * len(ticks))]
        store, empty_key = self._store_with_empty(
            dataset, keep=lambda key: key.tick < horizon
        )
        config = self._config(topology, None, budget, dataset)
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
