"""Gauss-Markov mobility from Camp et al. [7].

Speed and direction evolve as first-order autoregressive processes:

    s_t = alpha * s_{t-1} + (1 - alpha) * mean_speed + sqrt(1 - alpha^2) * N(0, sigma_s)
    d_t = alpha * d_{t-1} + (1 - alpha) * mean_dir   + sqrt(1 - alpha^2) * N(0, sigma_d)

``alpha`` tunes memory: 0 is memoryless (random walk-like), 1 is linear
motion.  Near the region border the mean direction is steered toward
the region center, the standard trick to keep trajectories inside.
Included as a smoother, more temporally-correlated alternative to
random waypoint for sensitivity studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.mobility.base import MobilityModel, Walker
from repro.world.geometry import BoundingBox


@dataclass(frozen=True)
class GaussMarkovConfig:
    """Parameters of the Gauss-Markov model."""

    alpha: float = 0.85
    mean_speed: float = 1.0
    speed_sigma: float = 0.3
    direction_sigma: float = 0.6
    border_margin: float = 50.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.mean_speed <= 0:
            raise ValueError(f"mean_speed must be positive, got {self.mean_speed}")
        if self.speed_sigma < 0 or self.direction_sigma < 0:
            raise ValueError("sigmas must be non-negative")
        if self.border_margin < 0:
            raise ValueError(
                f"border_margin must be non-negative, got {self.border_margin}"
            )


class GaussMarkov(MobilityModel):
    """First-order autoregressive speed/direction mobility."""

    def __init__(
        self,
        region: BoundingBox,
        config: Optional[GaussMarkovConfig] = None,
    ) -> None:
        super().__init__(region)
        self.config = config if config is not None else GaussMarkovConfig()

    def walker(self, rng: np.random.Generator) -> "GaussMarkovWalker":
        return GaussMarkovWalker(self, rng)


class GaussMarkovWalker(Walker):
    """One person under :class:`GaussMarkov`.

    Attributes:
        drive_speed: the autoregressive speed process, m/s.
        direction: the autoregressive heading process, radians.
    """

    __slots__ = ("model", "drive_speed", "direction")

    def __init__(self, model: GaussMarkov, rng: np.random.Generator) -> None:
        cfg = model.config
        super().__init__(rng, *model.uniform_xy(rng))
        self.model = model
        self.direction = float(rng.uniform(0.0, 2.0 * math.pi))
        self.drive_speed = max(0.0, float(rng.normal(cfg.mean_speed, cfg.speed_sigma)))
        self.vx = self.drive_speed * math.cos(self.direction)
        self.vy = self.drive_speed * math.sin(self.direction)

    def advance(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        cfg = self.model.config
        rng = self.rng
        speed = self.drive_speed
        direction = self.direction

        mean_dir = self._steered_mean_direction(direction)
        noise_scale = math.sqrt(max(0.0, 1.0 - cfg.alpha**2))
        speed = (
            cfg.alpha * speed
            + (1.0 - cfg.alpha) * cfg.mean_speed
            + noise_scale * float(rng.normal(0.0, cfg.speed_sigma))
        )
        speed = max(speed, 0.0)
        direction = (
            cfg.alpha * direction
            + (1.0 - cfg.alpha) * mean_dir
            + noise_scale * float(rng.normal(0.0, cfg.direction_sigma))
        )

        region = self.model.region
        self.vx = speed * math.cos(direction)
        self.vy = speed * math.sin(direction)
        self.x = min(max(self.x + self.vx * dt, region.min_x), region.max_x)
        self.y = min(max(self.y + self.vy * dt, region.min_y), region.max_y)
        self.drive_speed = speed
        self.direction = direction

    def _steered_mean_direction(self, current: float) -> float:
        """Mean direction: current heading, or toward center near the border."""
        cfg = self.model.config
        region = self.model.region
        x, y = self.x, self.y
        border = min(
            min(x - region.min_x, region.max_x - x),
            min(y - region.min_y, region.max_y - y),
        )
        if border >= cfg.border_margin:
            return current
        target = math.atan2(
            (region.min_y + region.max_y) / 2.0 - y,
            (region.min_x + region.max_x) / 2.0 - x,
        )
        # Avoid a discontinuity when current and target straddle +-pi.
        while target - current > math.pi:
            target -= 2.0 * math.pi
        while current - target > math.pi:
            target += 2.0 * math.pi
        return target
