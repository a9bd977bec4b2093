"""Common interface for mobility models.

A model is a stateless description of how people move over a bounded
region.  All per-person state lives in a :class:`Walker` the model
hands out: a small float-only object that advances one person by a
fixed timestep, drawing from that person's own random generator.  One
model instance can therefore drive a whole population, and the trace
generator and the live stream source step the very same walkers.

**Draw-order contract.**  A walker draws from its generator in a fixed
order that depends only on its own path (placement, then every trip,
epoch or noise draw as it happens), so a person's path is a pure
function of the person's seed.  Walkers are deliberately scalar: they
use ``math.hypot`` and the builtin ``min``/``max`` on Python floats,
which numpy's vectorized equivalents do not reproduce bit for bit.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.world.geometry import BoundingBox


class Walker(abc.ABC):
    """One person's kinematic state under some mobility model.

    Attributes:
        x, y: current position in metres.
        vx, vy: current velocity in m/s.
        rng: the person's own random generator.
    """

    __slots__ = ("x", "y", "vx", "vy", "rng")

    def __init__(self, rng: np.random.Generator, x: float, y: float) -> None:
        self.rng = rng
        self.x = x
        self.y = y
        self.vx = 0.0
        self.vy = 0.0

    @property
    def speed(self) -> float:
        """Current speed in m/s."""
        return math.hypot(self.vx, self.vy)

    @abc.abstractmethod
    def advance(self, dt: float) -> None:
        """Move the person forward by ``dt`` seconds (in place).

        Implementations keep the position inside the model's region and
        raise ``ValueError`` for a non-positive ``dt``.
        """


class MobilityModel(abc.ABC):
    """A discrete-time movement model over a bounded region."""

    def __init__(self, region: BoundingBox) -> None:
        self.region = region

    @abc.abstractmethod
    def walker(self, rng: np.random.Generator) -> Walker:
        """A walker placed by the model's stationary placement, drawing
        from ``rng`` from now on."""

    def uniform_xy(self, rng: np.random.Generator):
        """A point uniform over the region, as ``(x, y)`` floats — the
        shared placement helper."""
        region = self.region
        return (
            float(rng.uniform(region.min_x, region.max_x)),
            float(rng.uniform(region.min_y, region.max_y)),
        )

