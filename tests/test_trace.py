"""Tests for trajectory generation and the TraceSet container."""

import numpy as np
import pytest

from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.trace import TraceSet, Trajectory, generate_traces
from repro.world.geometry import BoundingBox, Point

REGION = BoundingBox.square(300.0)


def small_traces(person_ids=(0, 1, 2), duration=100.0, dt=10.0, seed=0, warmup=0.0):
    model = RandomWaypoint(REGION)
    return generate_traces(
        model, person_ids=list(person_ids), duration=duration, dt=dt,
        seed=seed, warmup=warmup,
    )


class TestTrajectory:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(person_id=0, timestamps=(0.0, 1.0), points=(Point(0, 0),))

    def test_displacement_and_path_length(self):
        traj = Trajectory(
            person_id=0,
            timestamps=(0.0, 1.0, 2.0),
            points=(Point(0, 0), Point(3, 4), Point(3, 4)),
        )
        assert traj.displacement() == pytest.approx(5.0)
        assert traj.path_length() == pytest.approx(5.0)
        assert traj.position_at_index(1) == Point(3, 4)

    def test_single_point_trajectory(self):
        traj = Trajectory(person_id=0, timestamps=(0.0,), points=(Point(1, 1),))
        assert traj.displacement() == 0.0
        assert traj.path_length() == 0.0


class TestTraceSet:
    def test_requires_trajectories(self):
        with pytest.raises(ValueError):
            TraceSet([], np.empty((0, 1, 2)), dt=1.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="2 person ids but 3 paths"):
            TraceSet([0, 1], np.zeros((3, 4, 2)), dt=1.0)
        with pytest.raises(ValueError, match="people, ticks, 2"):
            TraceSet([0, 1], np.zeros((2, 4)), dt=1.0)

    def test_rejects_duplicate_person_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            TraceSet([0, 0], np.zeros((2, 1, 2)), dt=1.0)

    def test_positions_at(self):
        traces = small_traces()
        snapshot = traces.positions_at(0)
        assert set(snapshot.keys()) == {0, 1, 2}
        assert snapshot[1] == Point(*traces.positions[1, 0])
        with pytest.raises(IndexError):
            traces.positions_at(traces.num_ticks)

    def test_views_are_built_from_the_array(self):
        traces = TraceSet(
            [7, 3], np.arange(12, dtype=float).reshape(2, 3, 2), dt=5.0
        )
        assert traces.person_ids == (3, 7)
        assert traces.timestamps == (0.0, 5.0, 10.0)
        assert traces.trajectory(3).points == (Point(6, 7), Point(8, 9), Point(10, 11))
        assert [t.person_id for t in traces] == [7, 3]
        assert not traces.positions.flags.writeable

    def test_trajectory_lookup(self):
        traces = small_traces()
        assert traces.trajectory(1).person_id == 1
        with pytest.raises(KeyError):
            traces.trajectory(99)


class TestGenerateTraces:
    def test_tick_count(self):
        traces = small_traces(duration=100.0, dt=10.0)
        assert traces.num_ticks == 11
        assert traces.timestamps[-1] == pytest.approx(100.0)

    def test_invalid_arguments(self):
        model = RandomWaypoint(REGION)
        with pytest.raises(ValueError):
            generate_traces(model, [0], duration=0.0)
        with pytest.raises(ValueError):
            generate_traces(model, [0], duration=10.0, dt=0.0)
        with pytest.raises(ValueError):
            generate_traces(model, [0], duration=10.0, warmup=-1.0)

    def test_all_points_in_region(self):
        traces = small_traces(duration=300.0, dt=5.0, seed=3)
        for traj in traces:
            for p in traj.points:
                assert REGION.contains(p)

    def test_deterministic(self):
        a = small_traces(seed=4)
        b = small_traces(seed=4)
        for pid in a.person_ids:
            assert a.trajectory(pid).points == b.trajectory(pid).points

    def test_per_person_substreams_independent(self):
        """Adding a person must not change existing people's paths."""
        a = small_traces(person_ids=(0, 1), seed=5)
        b = small_traces(person_ids=(0, 1, 2), seed=5)
        assert a.trajectory(0).points == b.trajectory(0).points
        assert a.trajectory(1).points == b.trajectory(1).points

    def test_warmup_changes_start(self):
        cold = small_traces(seed=6, warmup=0.0)
        warm = small_traces(seed=6, warmup=200.0)
        # After warmup the person has moved: starting point differs.
        assert cold.trajectory(0).points[0] != warm.trajectory(0).points[0]

    def test_people_actually_move(self):
        traces = small_traces(duration=400.0, dt=10.0, seed=7)
        moved = sum(1 for t in traces if t.path_length() > 10.0)
        assert moved >= 2
