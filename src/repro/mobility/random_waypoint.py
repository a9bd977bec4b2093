"""Random waypoint mobility (Camp, Boleng & Davies [7]).

The model the paper's evaluation uses (Sec. VI-A).  Each person repeats:

1. pick a destination uniformly at random in the region;
2. pick a trip speed uniformly in ``[min_speed, max_speed]``;
3. travel to the destination in a straight line, optionally ramping
   speed with bounded acceleration ("location, velocity and acceleration
   change" per the paper);
4. pause for a time uniform in ``[0, max_pause]``; go to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.mobility.base import MobilityModel, Walker
from repro.world.geometry import BoundingBox


@dataclass(frozen=True)
class RandomWaypointConfig:
    """Parameters of the random-waypoint model.

    Attributes:
        min_speed: slowest trip speed, m/s.  Kept strictly positive to
            avoid the model's well-known speed-decay degeneracy at 0.
        max_speed: fastest trip speed, m/s (1.4 m/s is typical walking).
        max_pause: longest pause at a waypoint, seconds.
        max_acceleration: bound on speed change per second when starting
            a trip, m/s^2.  ``None`` makes speed changes instantaneous
            (the textbook model).
        arrival_tolerance: distance in metres at which the destination
            counts as reached.
    """

    min_speed: float = 0.4
    max_speed: float = 1.8
    max_pause: float = 20.0
    max_acceleration: Optional[float] = 0.8
    arrival_tolerance: float = 0.5

    def __post_init__(self) -> None:
        if self.min_speed <= 0:
            raise ValueError(f"min_speed must be positive, got {self.min_speed}")
        if self.max_speed < self.min_speed:
            raise ValueError(
                f"max_speed {self.max_speed} < min_speed {self.min_speed}"
            )
        if self.max_pause < 0:
            raise ValueError(f"max_pause must be non-negative, got {self.max_pause}")
        if self.max_acceleration is not None and self.max_acceleration <= 0:
            raise ValueError(
                f"max_acceleration must be positive or None, got {self.max_acceleration}"
            )
        if self.arrival_tolerance <= 0:
            raise ValueError(
                f"arrival_tolerance must be positive, got {self.arrival_tolerance}"
            )


class RandomWaypoint(MobilityModel):
    """Random-waypoint movement over a bounded region."""

    def __init__(
        self,
        region: BoundingBox,
        config: Optional[RandomWaypointConfig] = None,
    ) -> None:
        super().__init__(region)
        self.config = config if config is not None else RandomWaypointConfig()

    def walker(self, rng: np.random.Generator) -> "WaypointWalker":
        """Uniform placement, starting a fresh trip immediately."""
        return WaypointWalker(self, rng)

    def destination(self, rng: np.random.Generator) -> Tuple[float, float]:
        """The next waypoint: uniform over the region.  Subclasses
        override this hook to bias where trips go."""
        return self.uniform_xy(rng)


class WaypointWalker(Walker):
    """One person under :class:`RandomWaypoint`.

    Attributes:
        dest_x, dest_y: the current trip's destination.
        trip_speed: the current trip's cruising speed, m/s.
        pause_left: seconds of waypoint pause still to sit out.
    """

    __slots__ = ("model", "dest_x", "dest_y", "trip_speed", "pause_left")

    def __init__(self, model: RandomWaypoint, rng: np.random.Generator) -> None:
        super().__init__(rng, *model.uniform_xy(rng))
        self.model = model
        self.begin_trip()

    def begin_trip(self) -> None:
        """Choose a new destination and trip speed."""
        model = self.model
        cfg = model.config
        self.dest_x, self.dest_y = model.destination(self.rng)
        self.trip_speed = float(self.rng.uniform(cfg.min_speed, cfg.max_speed))
        self.pause_left = 0.0
        if cfg.max_acceleration is None:
            dx = self.dest_x - self.x
            dy = self.dest_y - self.y
            magnitude = math.hypot(dx, dy)
            if magnitude == 0.0:
                self.vx = self.vy = 0.0
            else:
                inverse = 1.0 / magnitude
                self.vx = dx * inverse * self.trip_speed
                self.vy = dy * inverse * self.trip_speed

    def advance(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        remaining = dt
        # A single dt may span the end of a pause or an arrival, so we
        # consume it in phases rather than assume one phase per tick.
        while remaining > 1e-9:
            pause_left = self.pause_left
            if pause_left > 0.0:
                # min(pause_left, remaining); see _travel.
                consumed = remaining if remaining < pause_left else pause_left
                pause_left = pause_left - consumed
                remaining -= consumed
                if pause_left <= 1e-9:
                    self.begin_trip()
                else:
                    self.pause_left = pause_left
                continue
            remaining = self._travel(remaining)

    def _travel(self, dt: float) -> float:
        """Move toward the destination for up to ``dt`` seconds.

        Returns the unconsumed part of ``dt`` (positive when the
        destination is reached early and a pause begins).

        ``min(a, b)`` and ``max(a, b)`` are spelled as the conditional
        expressions the builtins evaluate (``b if b < a else a`` and
        ``b if b > a else a``): the same floats, without a call.
        """
        cfg = self.model.config
        x = self.x
        y = self.y
        dx = self.dest_x - x
        dy = self.dest_y - y
        distance = math.hypot(dx, dy)
        if distance <= cfg.arrival_tolerance:
            self._arrive()
            return dt

        if cfg.max_acceleration is None:
            speed = self.trip_speed
        else:
            # Ramp current speed toward the trip speed within the
            # acceleration bound; direction changes are instantaneous
            # (people turn in place).
            current = math.hypot(self.vx, self.vy)
            delta = self.trip_speed - current
            max_delta = cfg.max_acceleration * dt
            ramp = delta if delta < max_delta else max_delta
            speed = current + (ramp if ramp > -max_delta else -max_delta)
            speed = 0.0 if 0.0 > speed else speed

        reach = speed * dt
        travel = distance if distance < reach else reach
        # distance > arrival_tolerance > 0, so the heading is defined.
        inverse = 1.0 / distance
        ux = dx * inverse
        uy = dy * inverse
        self.vx = ux * speed
        self.vy = uy * speed
        region = self.model.region
        x = x + ux * travel
        x = region.min_x if region.min_x > x else x
        self.x = region.max_x if region.max_x < x else x
        y = y + uy * travel
        y = region.min_y if region.min_y > y else y
        self.y = region.max_y if region.max_y < y else y
        if reach >= distance - 1e-12:
            consumed = distance / speed if speed > 0 else dt
            self._arrive()
            return max(dt - consumed, 0.0)
        return 0.0

    def _arrive(self) -> None:
        """Snap to the destination and start a pause."""
        model = self.model
        region = model.region
        self.x = min(max(self.dest_x, region.min_x), region.max_x)
        self.y = min(max(self.dest_y, region.min_y), region.max_y)
        self.vx = self.vy = 0.0
        self.pause_left = float(self.rng.uniform(0.0, model.config.max_pause))
        if self.pause_left <= 1e-9:
            self.begin_trip()
