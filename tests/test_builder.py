"""Tests for the scenario builder: windowing, attribution, consistency."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.trace import generate_traces
from repro.sensing.builder import ScenarioBuilder, ScenarioBuilderConfig
from repro.sensing.e_sensing import ESensingConfig, ESensingModel
from repro.sensing.v_sensing import VSensingConfig, VSensingModel
from repro.world.cells import CellGrid
from repro.world.entities import EID
from repro.world.geometry import BoundingBox
from repro.world.population import Population, PopulationConfig


def make_world(num_people=40, vague_width=0.0, seed=0):
    population = Population(PopulationConfig(num_people=num_people, seed=seed))
    region = BoundingBox.square(300.0)
    grid = CellGrid(region, cells_per_side=3, vague_width=vague_width)
    model = RandomWaypoint(region)
    traces = generate_traces(
        model,
        person_ids=[p.person_id for p in population.people],
        duration=200.0,
        dt=10.0,
        seed=seed + 1,
    )
    return population, grid, traces


def build(population, grid, traces, e_config=None, v_config=None, builder_config=None):
    builder = ScenarioBuilder(
        population=population,
        grid=grid,
        e_model=ESensingModel(e_config),
        v_model=VSensingModel(population.appearance, v_config),
        config=builder_config,
    )
    return builder.build(traces)


class TestBuilderConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_ticks": 0},
            {"inclusive_threshold": 0.0},
            {"inclusive_threshold": 1.5},
            {"vague_threshold": 0.0},
            {"vague_threshold": 0.9, "inclusive_threshold": 0.8},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioBuilderConfig(**kwargs)


class TestIdealBuild:
    def test_ideal_e_and_v_sides_consistent(self):
        """With no noise and single-tick windows, the EID set and the
        detected-VID set of every scenario describe the same people."""
        population, grid, traces = make_world()
        store = build(population, grid, traces)
        for key in store.keys:
            scenario = store.get(key)
            e_people = {
                population.person_of_eid(e).person_id
                for e in scenario.e.inclusive
            }
            v_people = {
                population.person_of_vid(d.true_vid).person_id
                for d in scenario.v.detections
            }
            assert e_people == v_people
            assert not scenario.e.vague

    def test_every_person_in_exactly_one_scenario_per_tick(self):
        population, grid, traces = make_world()
        store = build(population, grid, traces)
        for tick in store.ticks:
            eids = []
            for key in store.keys_at_tick(tick):
                eids.extend(store.e_scenario(key).inclusive)
            assert sorted(eids) == sorted(EID(p.person_id) for p in population.people)

    def test_scenario_count_bounded_by_cells_times_ticks(self):
        population, grid, traces = make_world()
        store = build(population, grid, traces)
        assert len(store) <= grid.num_cells * traces.num_ticks

    def test_deterministic(self):
        population, grid, traces = make_world()
        a = build(population, grid, traces)
        b = build(population, grid, traces)
        assert a.keys == b.keys
        for key in a.keys:
            assert a.e_scenario(key).inclusive == b.e_scenario(key).inclusive


class TestPracticalBuild:
    def test_vague_attribution_under_drift(self):
        population, grid, traces = make_world(vague_width=10.0)
        store = build(
            population, grid, traces, e_config=ESensingConfig(drift_sigma=8.0)
        )
        vague_total = sum(len(s.vague) for s in store.e_scenarios())
        inclusive_total = sum(len(s.inclusive) for s in store.e_scenarios())
        assert vague_total > 0, "drift near borders must mark some EIDs vague"
        # A 10 m band on 100 m cells covers ~36% of the area, so the
        # vague fraction should be visible but not dominant.
        assert inclusive_total > vague_total, "most sightings stay inclusive"

    def test_e_miss_thins_scenarios(self):
        population, grid, traces = make_world()
        full = build(population, grid, traces)
        thinned = build(
            population, grid, traces, e_config=ESensingConfig(miss_rate=0.5)
        )
        full_count = sum(len(s.inclusive) for s in full.e_scenarios())
        thin_count = sum(len(s.inclusive) for s in thinned.e_scenarios())
        assert thin_count < 0.7 * full_count

    def test_v_miss_thins_detections(self):
        population, grid, traces = make_world()
        full = build(population, grid, traces)
        thinned = build(
            population, grid, traces, v_config=VSensingConfig(miss_rate=0.4)
        )
        assert thinned.total_detections() < 0.75 * full.total_detections()

    def test_windowing_reduces_scenario_count(self):
        population, grid, traces = make_world()
        single = build(population, grid, traces)
        windowed = build(
            population,
            grid,
            traces,
            builder_config=ScenarioBuilderConfig(window_ticks=4),
        )
        assert max(s.tick for s in windowed.keys) <= traces.num_ticks // 4
        assert len(windowed) < len(single)

    def test_window_occupancy_thresholds(self):
        """An EID seen in only a sliver of the window is excluded; one
        seen throughout is inclusive."""
        population, grid, traces = make_world()
        store = build(
            population,
            grid,
            traces,
            builder_config=ScenarioBuilderConfig(
                window_ticks=4, inclusive_threshold=0.75, vague_threshold=0.5
            ),
        )
        # People far from borders who do not cross cells in 40 s are
        # inclusive; the store must have substantial inclusive content.
        assert sum(len(s.inclusive) for s in store.e_scenarios()) > 0

    def test_window_larger_than_trace_rejected(self):
        population, grid, traces = make_world()
        with pytest.raises(ValueError, match="fewer than one"):
            build(
                population,
                grid,
                traces,
                builder_config=ScenarioBuilderConfig(window_ticks=10_000),
            )

    def test_no_device_people_absent_from_e_side(self):
        population = Population(
            PopulationConfig(num_people=40, device_carry_rate=0.5, seed=5)
        )
        region = BoundingBox.square(300.0)
        grid = CellGrid(region, cells_per_side=3)
        traces = generate_traces(
            RandomWaypoint(region),
            person_ids=[p.person_id for p in population.people],
            duration=100.0,
            dt=10.0,
            seed=6,
        )
        store = build(population, grid, traces)
        device_eids = set(population.eids)
        for scenario in store.e_scenarios():
            assert scenario.eids <= device_eids
        # ...but everyone still shows up on the V side somewhere.
        seen_vids = {
            d.true_vid for key in store.keys for d in store.v_scenario(key)
        }
        assert len(seen_vids) == 40


class TestAttributeColumns:
    """The columnar attribution rule against the per-EID dict rule of
    the stream oracle, on random sighting columns."""

    @staticmethod
    def expected(cells, eids, vague, window_ticks, inclusive, vague_threshold):
        from tests.oracles.stream import attribute_eids

        counts, vague_counts = {}, {}
        for cell, eid, in_band in zip(cells, eids, vague):
            cell_counts = counts.setdefault(cell, {})
            cell_counts[eid] = cell_counts.get(eid, 0) + 1
            if in_band:
                band = vague_counts.setdefault(cell, {})
                band[eid] = band.get(eid, 0) + 1
        return {
            cell: attribute_eids(
                seen,
                vague_counts.get(cell, {}),
                window_ticks,
                inclusive,
                vague_threshold,
            )
            for cell, seen in counts.items()
        }

    @given(
        sightings=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=6),
                st.booleans(),
            ),
            max_size=40,
        ),
        window_ticks=st.integers(min_value=1, max_value=6),
        thresholds=st.sampled_from([(0.75, 0.25), (0.5, 0.5), (1.0, 0.3)]),
    )
    def test_matches_the_per_eid_rule(self, sightings, window_ticks, thresholds):
        from repro.sensing.builder import attribute_columns

        cells = [c for c, _e, _v in sightings]
        eids = [e for _c, e, _v in sightings]
        vague = [v for _c, _e, v in sightings]
        got = attribute_columns(
            np.array(cells, dtype=np.int64),
            np.array(eids, dtype=np.int64),
            np.array(vague, dtype=bool),
            window_ticks,
            *thresholds,
        )
        want = self.expected(cells, eids, vague, window_ticks, *thresholds)
        assert {cell: (list(i), list(v)) for cell, (i, v) in got.items()} == want
