"""Hotspot waypoint mobility: crowds that gather.

Random waypoint spreads people uniformly, but real surveillance scenes
have structure — plazas, station entrances, shop fronts — where density
concentrates and re-identification is hardest.  This model is the
classic hotspot variant of random waypoint: with probability
``hotspot_bias`` the next destination is drawn from a Gaussian around
a randomly chosen hotspot instead of uniformly, producing the skewed
per-cell densities that stress both the set splitter (big scenarios)
and the V stage (crowded frames).

Hotspot locations are themselves deterministic in the model seed, so
worlds remain reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.random_waypoint import RandomWaypoint, RandomWaypointConfig
from repro.world.geometry import BoundingBox, Point


@dataclass(frozen=True)
class HotspotConfig:
    """Hotspot layout and attraction parameters.

    Attributes:
        num_hotspots: how many attraction points to scatter.
        hotspot_bias: probability a trip targets a hotspot rather than
            a uniform point (0 degrades to plain random waypoint).
        spread: standard deviation in metres of destinations around a
            hotspot center.
        seed: seed for the hotspot placement.
    """

    num_hotspots: int = 4
    hotspot_bias: float = 0.7
    spread: float = 40.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_hotspots <= 0:
            raise ValueError(
                f"num_hotspots must be positive, got {self.num_hotspots}"
            )
        if not 0.0 <= self.hotspot_bias <= 1.0:
            raise ValueError(
                f"hotspot_bias must be in [0, 1], got {self.hotspot_bias}"
            )
        if self.spread < 0:
            raise ValueError(f"spread must be non-negative, got {self.spread}")


class HotspotWaypoint(RandomWaypoint):
    """Random waypoint whose destinations are biased toward hotspots.

    Inherits all trip mechanics (speed, acceleration, pauses) from
    :class:`~repro.mobility.random_waypoint.RandomWaypoint` and only
    overrides the :meth:`destination` hook.
    """

    def __init__(
        self,
        region: BoundingBox,
        config: Optional[RandomWaypointConfig] = None,
        hotspots: Optional[HotspotConfig] = None,
    ) -> None:
        super().__init__(region, config)
        self.hotspot_config = hotspots if hotspots is not None else HotspotConfig()
        rng = np.random.default_rng(self.hotspot_config.seed)
        self._hotspots: List[Point] = [
            Point(
                float(rng.uniform(region.min_x, region.max_x)),
                float(rng.uniform(region.min_y, region.max_y)),
            )
            for _ in range(self.hotspot_config.num_hotspots)
        ]

    @property
    def hotspots(self) -> Sequence[Point]:
        """The attraction points (for inspection and rendering)."""
        return tuple(self._hotspots)

    def destination(self, rng: np.random.Generator) -> Tuple[float, float]:
        """A (possibly hotspot-biased) trip destination."""
        hot = self.hotspot_config
        if rng.random() < hot.hotspot_bias:
            center = self._hotspots[int(rng.integers(len(self._hotspots)))]
            x = center.x + float(rng.normal(0.0, hot.spread))
            y = center.y + float(rng.normal(0.0, hot.spread))
            region = self.region
            return (
                min(max(x, region.min_x), region.max_x),
                min(max(y, region.min_y), region.max_y),
            )
        return self.uniform_xy(rng)
