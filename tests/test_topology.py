"""Unit tests for the topology layer: graph fitting, the reachability
envelope, pruner/prior behavior on crafted evidence, configuration
validation, ``.npz`` persistence, the V stage's topology counters and
events, the topology-enabled cluster worker, and convoy queries."""

import numpy as np
import pytest

from repro.core.vid_filtering import FilterConfig, VIDFilter
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import build_dataset
from repro.datagen.io import load_dataset, save_dataset
from repro.fusion import Convoy, ConvoyQuery, find_convoys
from repro.mobility.trace import TraceSet
from repro.obs import (
    EventLog,
    MetricsRegistry,
    set_event_log,
    set_registry,
)
from repro.obs import events as ev
from repro.sensing.scenarios import (
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.topology import (
    CameraGraph,
    EdgeStats,
    ReachabilityPruner,
    TopologyConfig,
    TransitModel,
    TransitionPrior,
)
from repro.world.entities import EID


# -- fixtures and hand-built worlds ------------------------------------


class _Cell:
    def __init__(self, cell_id):
        self.cell_id = cell_id


class LineGrid:
    """A fake 1-D grid: point ``(x, y)`` lives in cell ``int(x)``;
    cells ``i`` and ``i+1`` are neighbors (what fit's coverage
    measures)."""

    def __init__(self, num_cells=4):
        self.num_cells = num_cells

    def locate_many(self, points):
        return points[..., 0].astype(np.int64)

    def __iter__(self):
        return iter(_Cell(i) for i in range(self.num_cells))

    def neighbors(self, cell):
        out = []
        if cell.cell_id > 0:
            out.append(_Cell(cell.cell_id - 1))
        if cell.cell_id < self.num_cells - 1:
            out.append(_Cell(cell.cell_id + 1))
        return out


def line_traces(*paths):
    """A :class:`TraceSet` whose people walk the given x coordinates
    along y = 0 (shorter paths wait at their last point)."""
    ticks = max(len(path) for path in paths)
    positions = np.zeros((len(paths), ticks, 2))
    for row, path in enumerate(paths):
        positions[row, :, 0] = list(path) + [path[-1]] * (ticks - len(path))
    return TraceSet(list(range(len(paths))), positions, dt=1.0)


def edge(count=1, mean=1.0, var=0.0, lo=1, hi=1):
    return EdgeStats(
        count=count, mean_ticks=mean, var_ticks=var,
        min_ticks=lo, quantile_ticks=hi,
    )


def line_model(num_cells=6, quantile_ticks=1):
    """Directed line ``0 -> 1 -> ... -> n-1`` with unit transits."""
    edges = {
        (i, i + 1): edge(hi=quantile_ticks)
        for i in range(num_cells - 1)
    }
    return TransitModel(CameraGraph(num_cells, edges, 0.95), 1.0)


@pytest.fixture()
def small_dataset():
    return build_dataset(
        ExperimentConfig(
            num_people=50, cells_per_side=3, duration=300.0, seed=9
        )
    )


# -- fitting -----------------------------------------------------------


class TestTransitModelFit:
    def test_fit_learns_edges_and_enter_to_enter_times(self):
        # Cells over ticks: 0 0 1 1 1 2 — two transitions.
        traces = line_traces([0.0, 0.4, 1.0, 1.2, 1.8, 2.0])
        model = TransitModel.fit(traces, LineGrid(4))
        graph = model.graph
        assert graph.num_edges == 2
        s01 = graph.edge(0, 1)
        assert (s01.count, s01.min_ticks) == (1, 2)  # entered 0, left at 2
        s12 = graph.edge(1, 2)
        assert (s12.count, s12.min_ticks) == (1, 3)  # dwelt 3 ticks in 1
        # 2 fitted of 6 directed neighbor pairs on the 4-cell line.
        assert model.coverage == pytest.approx(2 / 6)

    def test_fit_aggregates_repeat_traversals(self):
        traces = line_traces(
            [0.0, 1.0, 0.0, 1.0],  # 0->1, 1->0, 0->1
            [0.0, 1.0],
        )
        model = TransitModel.fit(traces, LineGrid(2))
        assert model.graph.edge(0, 1).count == 3
        assert model.graph.edge(1, 0).count == 1
        assert model.coverage == 1.0

    def test_fit_rejects_bad_quantile(self):
        with pytest.raises(ValueError, match="quantile"):
            TransitModel.fit([], LineGrid(2), quantile=0.0)

    def test_describe_summarizes_the_graph(self):
        traces = line_traces([0.0, 1.0, 2.0])
        summary = TransitModel.fit(traces, LineGrid(3)).describe()
        assert summary["nodes"] == 3.0
        assert summary["edges"] == 2.0
        assert summary["traversals"] == 2.0


class TestCameraGraph:
    def test_hop_matrix_on_a_line(self):
        graph = line_model(4).graph
        assert graph.hop_distance(0, 3) == 3
        assert graph.hop_distance(0, 0) == 0
        assert graph.hop_distance(3, 0) == -1  # directed: no way back

    def test_reachable_semantics(self):
        graph = line_model(4).graph
        assert graph.reachable(0, 2, 2)
        assert not graph.reachable(0, 2, 1)  # too few ticks
        assert not graph.reachable(2, 0, 99)  # no path at all
        assert graph.reachable(1, 1, 0)  # staying put is free
        assert not graph.reachable(1, 1, -1)  # time never runs backwards

    def test_model_reachable_is_order_free(self):
        model = line_model(4)
        assert model.reachable(0, 5, 2, 8)
        assert model.reachable(2, 8, 0, 5)  # swapped argument order

    def test_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            CameraGraph(3, {(1, 1): edge()}, 0.95)
        with pytest.raises(ValueError, match="outside cell range"):
            CameraGraph(3, {(0, 7): edge()}, 0.95)
        with pytest.raises(ValueError, match="quantile"):
            CameraGraph(3, {}, 1.5)
        with pytest.raises(ValueError, match="count"):
            edge(count=0)
        with pytest.raises(ValueError, match="quantile_ticks"):
            EdgeStats(
                count=1, mean_ticks=1.0, var_ticks=0.0,
                min_ticks=3, quantile_ticks=2,
            )


# -- pruner and prior --------------------------------------------------


class TestReachabilityPruner:
    def test_consistent_evidence_passes_untouched(self):
        keys = [ScenarioKey(cell_id=min(t, 5), tick=t) for t in range(8)]
        kept, dropped = ReachabilityPruner(line_model(6)).prune(keys)
        assert (kept, dropped) == (keys, [])

    def test_single_misattribution_is_dropped(self):
        keys = [ScenarioKey(cell_id=min(t, 5), tick=t) for t in range(10)]
        bad = ScenarioKey(cell_id=5, tick=1)  # 5 hops away after 1 tick
        kept, dropped = ReachabilityPruner(line_model(6)).prune(
            keys[:1] + [bad] + keys[2:]
        )
        assert dropped == [bad]
        assert kept == keys[:1] + keys[2:]

    def test_trivial_lists(self):
        pruner = ReachabilityPruner(line_model(3))
        assert pruner.prune([]) == ([], [])
        lone = [ScenarioKey(cell_id=2, tick=0)]
        assert pruner.prune(lone) == (lone, [])


class TestTransitionPrior:
    def test_weights_bounds_and_identity(self):
        model = line_model(6)
        prior = TransitionPrior(model, prior_weight=0.25)
        clean = [ScenarioKey(cell_id=t, tick=t) for t in range(5)]
        np.testing.assert_array_equal(prior.weights(clean), np.ones(5))
        corrupted = clean[:4] + [ScenarioKey(cell_id=0, tick=4)]
        weights = prior.weights(corrupted)
        assert ((weights >= 0.25) & (weights <= 1.0)).all()
        assert weights[-1] < 1.0  # the impossible key is downweighted

    def test_invalid_prior_weight(self):
        with pytest.raises(ValueError, match="prior_weight"):
            TransitionPrior(line_model(3), prior_weight=0.0)


class TestTopologyConfigValidation:
    def test_model_is_required(self):
        with pytest.raises(ValueError, match="model"):
            TopologyConfig(model=None)

    def test_prior_weight_validated(self):
        with pytest.raises(ValueError, match="prior_weight"):
            TopologyConfig(model=line_model(3), prior_weight=2.0)

    def test_filter_config_rejects_non_topology_payload(self):
        with pytest.raises(ValueError, match="topology"):
            FilterConfig(topology="not a config")

    def test_filter_config_accepts_a_real_config(self):
        config = FilterConfig(topology=TopologyConfig(model=line_model(3)))
        assert config.topology.prune and config.topology.prior


# -- persistence -------------------------------------------------------


class TestPersistence:
    def test_npz_roundtrip_preserves_the_fitted_graph(
        self, small_dataset, tmp_path
    ):
        path = save_dataset(small_dataset, tmp_path / "world.npz")
        reloaded = load_dataset(path)
        assert reloaded.topology is not None
        # Edge means ride through float64 arrays; compare numerically.
        assert reloaded.topology.describe() == pytest.approx(
            small_dataset.topology.describe()
        )
        np.testing.assert_array_equal(
            reloaded.topology.graph.hops, small_dataset.topology.graph.hops
        )

    def test_pre_topology_files_load_with_none(self, small_dataset, tmp_path):
        small_dataset.topology = None
        path = save_dataset(small_dataset, tmp_path / "old.npz")
        assert load_dataset(path).topology is None

    def test_to_from_arrays_roundtrip(self):
        model = line_model(5, quantile_ticks=3)
        arrays = model.to_arrays()
        back = TransitModel.from_arrays(
            arrays["topo_edges"], arrays["topo_stats"], arrays["topo_meta"]
        )
        assert back.describe() == model.describe()
        assert back.transit_bound(0, 1) == 3


# -- V-stage counters and events ---------------------------------------


class TestVStageTopologyTelemetry:
    def _corrupted_evidence(self, dataset, count=6):
        """Honest evidence with one same-tick different-cell misread."""
        store = dataset.store
        evidence = {}
        for key in store.keys:
            for eid in store.e_scenario(key).inclusive:
                evidence.setdefault(eid, []).append(key)
        corrupted = {}
        for eid in sorted(evidence):
            keys = sorted(evidence[eid], key=lambda k: (k.tick, k.cell_id))
            if len(keys) < 8:
                continue
            victim = len(keys) // 2
            elsewhere = [
                k
                for k in store.keys_at_tick(keys[victim].tick)
                if k.cell_id != keys[victim].cell_id
                and len(store.v_scenario(k)) > 0
            ]
            if not elsewhere:
                continue
            keys[victim] = elsewhere[0]
            corrupted[eid] = keys
            if len(corrupted) >= count:
                break
        assert corrupted, "no corruptible targets in this world"
        return corrupted

    def test_pruning_counters_events_and_metrics(self, small_dataset):
        registry = MetricsRegistry()
        log = EventLog(capacity=4096)
        previous_registry = set_registry(registry)
        previous_log = set_event_log(log)
        try:
            evidence = self._corrupted_evidence(small_dataset)
            vid_filter = VIDFilter(
                small_dataset.store,
                FilterConfig(
                    topology=TopologyConfig(model=small_dataset.topology)
                ),
            )
            vid_filter.match(evidence)
            report = vid_filter.topology_report()
            assert report["pruned"] > 0
            assert report["kept"] > 0
            pruned_events = log.events(type=ev.V_TOPOLOGY_PRUNED)
            assert pruned_events
            assert all(e["fields"]["dropped"] > 0 for e in pruned_events)
            text = registry.render_prometheus()
            assert "ev_topology_pruned_total" in text
            assert "ev_topology_kept_total" in text
        finally:
            set_registry(previous_registry)
            set_event_log(previous_log)

    def test_counters_absent_without_topology(self, small_dataset):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            targets = list(small_dataset.sample_targets(4, seed=0))
            evidence = {
                t: list(small_dataset.store.keys)[:5] for t in targets
            }
            VIDFilter(small_dataset.store, FilterConfig()).match(evidence)
            assert "ev_topology" not in registry.render_prometheus()
        finally:
            set_registry(previous)


# -- the topology-enabled worker ---------------------------------------


class TestWorkerTopology:
    def test_build_service_wires_the_model_in(self):
        from repro.cluster.worker import WorkerSpec, _build_service

        spec = WorkerSpec(
            worker_id="w0",
            config=ExperimentConfig(
                num_people=30, cells_per_side=3, duration=200.0, seed=4
            ),
            use_topology=True,
        )
        service, _reloaded, topology = _build_service(spec)
        assert topology["enabled"] is True
        assert topology["edges"] > 0
        assert service.config.matcher.filter.topology is not None

    def test_build_service_without_topology_flag(self):
        from repro.cluster.worker import WorkerSpec, _build_service

        spec = WorkerSpec(
            worker_id="w0",
            config=ExperimentConfig(
                num_people=30, cells_per_side=3, duration=200.0, seed=4
            ),
        )
        service, _reloaded, topology = _build_service(spec)
        assert topology is None
        assert service.config.matcher.filter.topology is None

    def test_pre_topology_world_serves_blind(self, small_dataset, tmp_path):
        from repro.cluster.worker import WorkerSpec, _build_service

        small_dataset.topology = None
        path = save_dataset(small_dataset, tmp_path / "old.npz")
        spec = WorkerSpec(
            worker_id="w0", dataset_path=str(path), use_topology=True
        )
        service, _reloaded, topology = _build_service(spec)
        assert topology == {"enabled": False}
        assert service.config.matcher.filter.topology is None


# -- convoys -----------------------------------------------------------


def make_scenario(cell, tick, inclusive):
    key = ScenarioKey(cell_id=cell, tick=tick)
    return EVScenario(
        e=EScenario(
            key=key,
            inclusive=frozenset(EID(i) for i in inclusive),
            vague=frozenset(),
        ),
        v=VScenario.of(key),
    )


class TestConvoyQuery:
    def test_finds_a_moving_co_traveler(self):
        store = ScenarioStore(
            [
                make_scenario(0, 0, {1, 2}),
                make_scenario(1, 1, {1, 2}),
                make_scenario(2, 2, {1, 2}),
                make_scenario(3, 3, {1, 9}),  # 9 shares only one key
            ]
        )
        convoys = find_convoys(store, EID(1), model=line_model(6))
        assert len(convoys) == 1
        convoy = convoys[0]
        assert isinstance(convoy, Convoy)
        assert convoy.companion == EID(2)
        assert convoy.sightings == 3
        assert convoy.cells == (0, 1, 2)
        assert (convoy.start_tick, convoy.end_tick) == (0, 2)
        assert convoy.span_ticks == 2

    def test_parked_together_is_not_a_convoy(self):
        store = ScenarioStore(
            [make_scenario(2, t, {1, 2}) for t in range(6)]
        )
        assert find_convoys(store, EID(1), model=line_model(6)) == []
        # ...unless the caller only asks for co-occurrence (min_cells=1).
        relaxed = find_convoys(
            store, EID(1), model=line_model(6), min_cells=1
        )
        assert len(relaxed) == 1 and relaxed[0].sightings == 6

    def test_infeasible_jump_splits_the_segment(self):
        # 0 -> 5 in one tick needs 5 hops on the line: split there.
        store = ScenarioStore(
            [
                make_scenario(0, 0, {1, 2}),
                make_scenario(1, 1, {1, 2}),
                make_scenario(2, 2, {1, 2}),
                make_scenario(5, 3, {1, 2}),
                make_scenario(5, 4, {1, 2}),
            ]
        )
        convoys = find_convoys(store, EID(1), model=line_model(6))
        assert len(convoys) == 1
        assert convoys[0].cells == (0, 1, 2)  # the tail segment is short

    def test_transit_bound_polices_slow_joins(self):
        # Direct fitted edge 0 -> 1 with quantile 1 tick; a 4-tick gap
        # across it is two trips, not a convoy.
        store = ScenarioStore(
            [
                make_scenario(0, 0, {1, 2}),
                make_scenario(0, 1, {1, 2}),
                make_scenario(1, 5, {1, 2}),
                make_scenario(2, 6, {1, 2}),
            ]
        )
        tight = find_convoys(
            store, EID(1), model=line_model(6, quantile_ticks=1), min_shared=2
        )
        assert {c.cells for c in tight} == {(1, 2)}
        loose = find_convoys(
            store, EID(1), model=line_model(6, quantile_ticks=10), min_shared=2
        )
        assert {c.cells for c in loose} == {(0, 1, 2)}

    def test_same_tick_two_cells_is_never_joinable(self):
        store = ScenarioStore(
            [
                make_scenario(0, 0, {1, 2}),
                make_scenario(1, 0, {1, 2}),  # two places at once
                make_scenario(1, 1, {1, 2}),
            ]
        )
        convoys = find_convoys(store, EID(1), min_shared=2)
        assert all(c.sightings == 2 for c in convoys)

    def test_max_gap_without_a_model(self):
        store = ScenarioStore(
            [
                make_scenario(0, 0, {1, 2}),
                make_scenario(1, 1, {1, 2}),
                make_scenario(2, 50, {1, 2}),
                make_scenario(3, 51, {1, 2}),
            ]
        )
        gapped = find_convoys(store, EID(1), min_shared=2, max_gap_ticks=5)
        assert {c.cells for c in gapped} == {(0, 1), (2, 3)}
        joined = find_convoys(store, EID(1), min_shared=2)
        assert {c.cells for c in joined} == {(0, 1, 2, 3)}

    def test_validation_and_unknown_targets(self):
        store = ScenarioStore([make_scenario(0, 0, {1})])
        with pytest.raises(ValueError, match="min_shared"):
            ConvoyQuery(store, min_shared=0)
        with pytest.raises(ValueError, match="min_cells"):
            ConvoyQuery(store, min_cells=0)
        with pytest.raises(ValueError, match="max_gap_ticks"):
            ConvoyQuery(store, max_gap_ticks=0)
        # A single sighting can never reach min_shared.
        assert ConvoyQuery(store).find(EID(1)) == []

    def test_results_on_a_generated_world_are_symmetric(self, small_dataset):
        query = ConvoyQuery(
            small_dataset.store,
            model=small_dataset.topology,
            min_shared=4,
        )
        found = None
        for eid in small_dataset.eids:
            convoys = query.find(eid)
            if convoys:
                found = convoys[0]
                break
        assert found is not None, "no convoys in this world at min_shared=4"
        mirrored = query.find(found.companion)
        assert any(
            c.companion == found.leader
            and c.sightings == found.sightings
            and (c.start_tick, c.end_tick)
            == (found.start_tick, found.end_tick)
            for c in mirrored
        )
