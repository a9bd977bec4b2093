"""E-sensing model: how base stations observe EIDs.

Models the electronic side of Sec. IV-C's practical settings:

* **Drift** — "some EIDs may appear in wrong E-Scenarios (neighbor
  cell) because of electronic noise ... especially for those who are
  actually located near the boundary of a scenario."  We perturb the
  true position with isotropic Gaussian noise of ``drift_sigma`` metres
  before cell attribution, so exactly the border population drifts.
* **Missing EID** — either a person carries no device at all
  (handled at population level) or an individual sighting is dropped
  with probability ``miss_rate`` (weak signal, duty-cycling).

The ideal setting is the zero-noise configuration of the same model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class ESensingConfig:
    """Electronic capture model parameters.

    Attributes:
        drift_sigma: std-dev in metres of the positional error added to
            each sighting before cell attribution.  0 disables drift
            (ideal setting).
        miss_rate: probability that an individual sighting is not
            captured at all.  Fig. 10 sweeps this from 1% to 50%.
    """

    drift_sigma: float = 0.0
    miss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.drift_sigma < 0:
            raise ValueError(f"drift_sigma must be non-negative, got {self.drift_sigma}")
        if not 0.0 <= self.miss_rate <= 1.0:
            raise ValueError(f"miss_rate must be in [0, 1], got {self.miss_rate}")


class ESensingModel:
    """Turns ground-truth positions into electronic sightings."""

    def __init__(self, config: Optional[ESensingConfig] = None) -> None:
        self.config = config if config is not None else ESensingConfig()

    def sense(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Capture one instant's sightings from true positions.

        Args:
            points: ``(n, 2)`` ground-truth positions of the
                device-carrying EIDs, in EID-index order.
            rng: randomness source for drift and misses.

        Returns:
            ``(captured, observed)``: the indices into ``points`` of the
            sightings that were captured, in order, and their observed
            ``(len(captured), 2)`` positions after drift.

        Draws are scalar and in EID order: per EID, the miss draw (when
        ``miss_rate > 0``), then, for a captured sighting, the x and y
        drift draws (when ``drift_sigma > 0``).
        """
        cfg = self.config
        if cfg.miss_rate == 0.0 and cfg.drift_sigma == 0.0:
            return np.arange(len(points)), points
        captured: List[int] = []
        drift: List[float] = []
        for index in range(len(points)):
            if cfg.miss_rate > 0.0 and rng.random() < cfg.miss_rate:
                continue
            captured.append(index)
            if cfg.drift_sigma > 0.0:
                drift.append(float(rng.normal(0.0, cfg.drift_sigma)))
                drift.append(float(rng.normal(0.0, cfg.drift_sigma)))
        kept = np.array(captured, dtype=np.int64)
        observed = points[kept]
        if cfg.drift_sigma > 0.0:
            observed = observed + np.array(drift).reshape(-1, 2)
        return kept, observed
