"""Random walk (Brownian-style) mobility from Camp et al. [7].

Each epoch the person picks a uniformly random direction and a speed in
``[min_speed, max_speed]`` and holds them for ``epoch_duration``
seconds, reflecting off the region boundary.  Included as an alternative
substrate for sensitivity studies: random walk mixes people across cells
much more slowly than random waypoint, which stresses the set-splitting
algorithm with fewer distinguishing scenarios per unit time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.mobility.base import MobilityModel, Walker
from repro.world.geometry import BoundingBox


@dataclass(frozen=True)
class RandomWalkConfig:
    """Parameters of the random-walk model."""

    min_speed: float = 0.3
    max_speed: float = 1.5
    epoch_duration: float = 30.0

    def __post_init__(self) -> None:
        if self.min_speed < 0:
            raise ValueError(f"min_speed must be non-negative, got {self.min_speed}")
        if self.max_speed < self.min_speed:
            raise ValueError(
                f"max_speed {self.max_speed} < min_speed {self.min_speed}"
            )
        if self.epoch_duration <= 0:
            raise ValueError(
                f"epoch_duration must be positive, got {self.epoch_duration}"
            )


class RandomWalk(MobilityModel):
    """Epoch-based random walk with boundary reflection."""

    def __init__(
        self,
        region: BoundingBox,
        config: Optional[RandomWalkConfig] = None,
    ) -> None:
        super().__init__(region)
        self.config = config if config is not None else RandomWalkConfig()

    def walker(self, rng: np.random.Generator) -> "RandomWalkWalker":
        return RandomWalkWalker(self, rng)


class RandomWalkWalker(Walker):
    """One person under :class:`RandomWalk`.

    Attributes:
        epoch_left: seconds until the next direction/speed draw.
    """

    __slots__ = ("model", "epoch_left")

    def __init__(self, model: RandomWalk, rng: np.random.Generator) -> None:
        super().__init__(rng, *model.uniform_xy(rng))
        self.model = model
        self._begin_epoch()

    def _begin_epoch(self) -> None:
        cfg = self.model.config
        angle = float(self.rng.uniform(0.0, 2.0 * math.pi))
        speed = float(self.rng.uniform(cfg.min_speed, cfg.max_speed))
        self.vx = speed * math.cos(angle)
        self.vy = speed * math.sin(angle)
        self.epoch_left = cfg.epoch_duration

    def advance(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        region = self.model.region
        remaining = dt
        while remaining > 1e-9:
            epoch_left = self.epoch_left
            if epoch_left <= 1e-9:
                self._begin_epoch()
                epoch_left = self.epoch_left
            consumed = min(epoch_left, remaining)
            # Advance with specular reflection off the region walls.
            x = self.x + self.vx * consumed
            y = self.y + self.vy * consumed
            self.x, self.vx = _reflect(x, self.vx, region.min_x, region.max_x)
            self.y, self.vy = _reflect(y, self.vy, region.min_y, region.max_y)
            self.epoch_left = epoch_left - consumed
            remaining -= consumed


def _reflect(coord: float, velocity: float, low: float, high: float):
    """Fold ``coord`` back into ``[low, high]``, flipping ``velocity`` per bounce."""
    span = high - low
    if span <= 0:
        return low, 0.0
    # Unfold into a 2*span-periodic sawtooth: walk the coordinate into
    # [0, 2*span) relative to `low`, then mirror the upper half.
    rel = (coord - low) % (2.0 * span)
    if rel > span:
        rel = 2.0 * span - rel
        velocity = -velocity
    return low + rel, velocity
