"""Tests for the mobility models: random waypoint, random walk,
Gauss-Markov — region containment, speed bounds, determinism.

Each test drives the production walker (``model.walker(rng)`` and
``walker.advance(dt)``); :func:`roll` records one :class:`Snap` per
step.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mobility.gauss_markov import GaussMarkov, GaussMarkovConfig
from repro.mobility.random_walk import RandomWalk, RandomWalkConfig
from repro.mobility.random_waypoint import RandomWaypoint, RandomWaypointConfig
from repro.world.geometry import BoundingBox, Point

REGION = BoundingBox.square(500.0)


@dataclass(frozen=True)
class Snap:
    """A walker's position and velocity after one step."""

    position: Point
    velocity: tuple
    speed: float


def snap(walker) -> Snap:
    return Snap(
        Point(walker.x, walker.y), (walker.vx, walker.vy), walker.speed
    )


def roll(model, steps=200, dt=5.0, seed=0):
    walker = model.walker(np.random.default_rng(seed))
    trace = [snap(walker)]
    for _ in range(steps):
        walker.advance(dt)
        trace.append(snap(walker))
    return trace


class TestRandomWaypointConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_speed": 0.0},
            {"min_speed": 2.0, "max_speed": 1.0},
            {"max_pause": -1.0},
            {"max_acceleration": 0.0},
            {"arrival_tolerance": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RandomWaypointConfig(**kwargs)


class TestRandomWaypoint:
    def test_stays_in_region(self):
        model = RandomWaypoint(REGION)
        for state in roll(model, steps=500, dt=7.0, seed=1):
            assert REGION.contains(state.position)

    def test_speed_bounded(self):
        cfg = RandomWaypointConfig(min_speed=0.5, max_speed=1.5, max_acceleration=None)
        model = RandomWaypoint(REGION, cfg)
        for state in roll(model, steps=300, dt=3.0, seed=2):
            assert state.speed <= cfg.max_speed + 1e-9

    def test_acceleration_limited_ramp(self):
        cfg = RandomWaypointConfig(max_acceleration=0.2, max_pause=0.0)
        model = RandomWaypoint(REGION, cfg)
        walker = model.walker(np.random.default_rng(3))
        prev_speed = walker.speed
        for _ in range(50):
            walker.advance(1.0)
            # Within one step, speed cannot change faster than a*dt
            # (arrivals reset to 0, so only check increases).
            if walker.speed > prev_speed:
                assert walker.speed - prev_speed <= cfg.max_acceleration + 1e-9
            prev_speed = walker.speed

    def test_movement_actually_happens(self):
        model = RandomWaypoint(REGION)
        trace = roll(model, steps=100, dt=10.0, seed=4)
        assert trace[0].position.distance_to(trace[-1].position) > 1.0

    def test_deterministic_given_seed(self):
        model = RandomWaypoint(REGION)
        a = roll(model, steps=50, seed=5)
        b = roll(model, steps=50, seed=5)
        assert [s.position for s in a] == [s.position for s in b]

    def test_step_rejects_nonpositive_dt(self):
        walker = RandomWaypoint(REGION).walker(np.random.default_rng(0))
        with pytest.raises(ValueError):
            walker.advance(0.0)
        with pytest.raises(ValueError):
            walker.advance(-1.0)

    def test_pause_consumes_time(self):
        cfg = RandomWaypointConfig(max_pause=1000.0, arrival_tolerance=0.5)
        model = RandomWaypoint(REGION, cfg)
        walker = model.walker(np.random.default_rng(6))
        # Force arrival: destination next to the current position.
        walker.dest_x, walker.dest_y = walker.x + 0.1, walker.y
        walker.advance(1.0)
        assert 0.0 <= walker.pause_left <= cfg.max_pause
        # Now likely pausing; during a pause, position must not change
        # and the pause shrinks by exactly the elapsed time.
        if walker.pause_left > 5.0:
            position, pause = (walker.x, walker.y), walker.pause_left
            walker.advance(1.0)
            assert (walker.x, walker.y) == position
            assert walker.pause_left == pytest.approx(pause - 1.0)
            assert walker.speed == 0.0

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_pauses_within_bounds(self, seed):
        cfg = RandomWaypointConfig(max_pause=15.0)
        walker = RandomWaypoint(REGION, cfg).walker(np.random.default_rng(seed))
        for _ in range(60):
            walker.advance(4.0)
            assert 0.0 <= walker.pause_left <= cfg.max_pause
            if walker.pause_left > 0.0:
                assert walker.speed == 0.0

    def test_walkers_share_no_state(self):
        """Walkers of one model are independent: stepping one leaves
        another's path unchanged."""
        model = RandomWaypoint(REGION)
        alone = roll(model, steps=30, seed=7)
        walker = model.walker(np.random.default_rng(7))
        other = model.walker(np.random.default_rng(8))
        together = [snap(walker)]
        for _ in range(30):
            other.advance(5.0)
            walker.advance(5.0)
            other.advance(5.0)
            together.append(snap(walker))
        assert together == alone

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_containment_property(self, seed):
        model = RandomWaypoint(REGION)
        for state in roll(model, steps=30, dt=12.0, seed=seed):
            assert REGION.contains(state.position)


class TestRandomWalk:
    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RandomWalkConfig(min_speed=-1.0)
        with pytest.raises(ValueError):
            RandomWalkConfig(min_speed=2.0, max_speed=1.0)
        with pytest.raises(ValueError):
            RandomWalkConfig(epoch_duration=0.0)

    def test_stays_in_region_with_reflection(self):
        model = RandomWalk(REGION, RandomWalkConfig(max_speed=3.0))
        for state in roll(model, steps=400, dt=9.0, seed=8):
            assert REGION.contains(state.position)

    def test_speed_within_bounds(self):
        cfg = RandomWalkConfig(min_speed=0.5, max_speed=1.0)
        model = RandomWalk(REGION, cfg)
        for state in roll(model, steps=100, dt=4.0, seed=9):
            assert cfg.min_speed - 1e-9 <= state.speed <= cfg.max_speed + 1e-9

    def test_direction_persists_within_epoch(self):
        cfg = RandomWalkConfig(epoch_duration=100.0)
        model = RandomWalk(REGION, cfg)
        walker = model.walker(np.random.default_rng(10))
        v0 = (walker.vx, walker.vy)
        walker.advance(5.0)
        # No boundary hit in 5 s from a uniform start (overwhelmingly):
        # velocity unchanged inside one epoch.
        if REGION.distance_to_border(Point(walker.x, walker.y)) > 20.0:
            assert (walker.vx, walker.vy) == v0

    def test_deterministic(self):
        model = RandomWalk(REGION)
        a = roll(model, steps=40, seed=11)
        b = roll(model, steps=40, seed=11)
        assert [s.position for s in a] == [s.position for s in b]


class TestGaussMarkov:
    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GaussMarkovConfig(alpha=1.5)
        with pytest.raises(ValueError):
            GaussMarkovConfig(mean_speed=0.0)
        with pytest.raises(ValueError):
            GaussMarkovConfig(speed_sigma=-1.0)
        with pytest.raises(ValueError):
            GaussMarkovConfig(border_margin=-1.0)

    def test_stays_in_region(self):
        model = GaussMarkov(REGION)
        for state in roll(model, steps=400, dt=8.0, seed=12):
            assert REGION.contains(state.position)

    def test_speed_nonnegative(self):
        model = GaussMarkov(REGION)
        for state in roll(model, steps=200, dt=5.0, seed=13):
            assert state.speed >= 0.0

    def test_alpha_one_is_ballistic(self):
        cfg = GaussMarkovConfig(alpha=1.0, border_margin=0.0)
        model = GaussMarkov(REGION, cfg)
        walker = model.walker(np.random.default_rng(14))
        s0, d0 = walker.drive_speed, walker.direction
        walker.advance(1.0)
        assert walker.drive_speed == pytest.approx(s0)
        assert walker.direction == pytest.approx(d0)

    def test_border_steering_turns_inward(self):
        cfg = GaussMarkovConfig(alpha=0.0, speed_sigma=0.0, direction_sigma=0.0, border_margin=50.0)
        model = GaussMarkov(REGION, cfg)
        walker = model.walker(np.random.default_rng(0))
        walker.x, walker.y = 1.0, 250.0
        walker.drive_speed = 1.0
        walker.direction = 3.14159  # heading straight at the wall
        walker.advance(1.0)
        # With alpha=0 and no noise, direction snaps to the steered mean:
        # toward the region center, i.e. roughly east (angle ~ 0).
        assert abs(walker.direction) < 0.5


class TestHotspotWaypoint:
    def test_invalid_config(self):
        from repro.mobility.hotspot import HotspotConfig

        with pytest.raises(ValueError):
            HotspotConfig(num_hotspots=0)
        with pytest.raises(ValueError):
            HotspotConfig(hotspot_bias=1.5)
        with pytest.raises(ValueError):
            HotspotConfig(spread=-1.0)

    def test_stays_in_region(self):
        from repro.mobility.hotspot import HotspotWaypoint

        model = HotspotWaypoint(REGION)
        for state in roll(model, steps=300, dt=8.0, seed=20):
            assert REGION.contains(state.position)

    def test_bias_concentrates_destinations(self):
        """With full bias and tight spread, long-run positions cluster
        near the hotspots far more than under plain random waypoint."""
        from repro.mobility.hotspot import HotspotConfig, HotspotWaypoint

        hot = HotspotConfig(num_hotspots=2, hotspot_bias=1.0, spread=10.0, seed=4)
        model = HotspotWaypoint(REGION, hotspots=hot)
        plain = RandomWaypoint(REGION)

        def near_hotspot_fraction(m):
            count = total = 0
            for seed in range(12):
                for state in roll(m, steps=60, dt=20.0, seed=seed)[20:]:
                    total += 1
                    if any(
                        state.position.distance_to(h) < 80.0
                        for h in model.hotspots
                    ):
                        count += 1
            return count / total

        assert near_hotspot_fraction(model) > near_hotspot_fraction(plain) + 0.2

    def test_zero_bias_behaves_like_waypoint(self):
        from repro.mobility.hotspot import HotspotConfig, HotspotWaypoint

        hot = HotspotConfig(hotspot_bias=0.0)
        model = HotspotWaypoint(REGION, hotspots=hot)
        # Not identical trajectories (extra RNG draw per trip), but the
        # model must remain well-behaved and region-bounded.
        for state in roll(model, steps=100, dt=10.0, seed=21):
            assert REGION.contains(state.position)

    def test_hotspots_deterministic(self):
        from repro.mobility.hotspot import HotspotConfig, HotspotWaypoint

        a = HotspotWaypoint(REGION, hotspots=HotspotConfig(seed=9))
        b = HotspotWaypoint(REGION, hotspots=HotspotConfig(seed=9))
        assert a.hotspots == b.hotspots

    def test_dataset_integration(self):
        from repro.datagen.config import ExperimentConfig
        from repro.datagen.dataset import build_dataset

        dataset = build_dataset(
            ExperimentConfig(
                num_people=30,
                cells_per_side=2,
                region_side=300.0,
                duration=200.0,
                warmup=0.0,
                mobility_model="hotspot",
                seed=22,
            )
        )
        assert len(dataset.store) > 0
