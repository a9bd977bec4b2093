"""V-sensing model: how cameras observe people.

Models the visual side of Sec. IV-C's practical settings:

* **Missing VID** — "due to occlusion and miss detection, we may fail
  to extract the VIDs corresponding to a EID from some V-Scenarios."
  Each person present in a cell is detected with probability
  ``1 - miss_rate``; Fig. 11 sweeps the miss rate from 2% to 10%.
* **Feature noise** — each successful detection yields a noisy
  appearance feature from the population's
  :class:`~repro.world.features.AppearanceModel`, standing in for
  CV feature extraction from CUHK02-style images.

Detections come out as columns (ids, VID indices, feature block) per
camera frame, the form :class:`~repro.sensing.scenarios.VScenario`
stores; no per-detection object is made.

Unlike E sightings, visual detections never drift across cells: a
camera only films its own field of view, so attribution is exact —
which is why the paper's vague-zone machinery lives on the E side only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.world.features import AppearanceModel


@dataclass(frozen=True)
class VSensingConfig:
    """Visual capture model parameters.

    Attributes:
        miss_rate: probability that a person present in a scenario is
            not detected (occlusion / detector miss).
    """

    miss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.miss_rate <= 1.0:
            raise ValueError(f"miss_rate must be in [0, 1], got {self.miss_rate}")


class VSensingModel:
    """Turns the people present in a cell into appearance detections."""

    def __init__(
        self,
        appearance: AppearanceModel,
        config: Optional[VSensingConfig] = None,
    ) -> None:
        self.appearance = appearance
        self.config = config if config is not None else VSensingConfig()
        self._next_id = 0

    def sense(
        self,
        frames: Sequence[Sequence[int]],
        rng: np.random.Generator,
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Detect the people present in one instant's camera frames.

        Args:
            frames: per frame, the indices of the visual identities
                truly present, in ascending order.
            rng: randomness source for misses and feature noise.

        Returns:
            Per frame, the successfully-detected people as three
            aligned columns, in the given order: fresh globally unique
            detection ids (int64), their VID indices (int64), and the
            ``(n, d)`` block of their noisy features.  The columns are
            views of one array each per call, and no per-detection
            object is built.

        Draws are scalar and in frame-then-VID order: per person, the
        miss draw (when ``miss_rate > 0``), then for a detected person
        the outlier draw (when the feature space's ``outlier_rate >
        0``) and its feature noise.  The feature arithmetic then runs
        once over all the instant's detections
        (:meth:`AppearanceModel.observe_rows`).
        """
        miss_rate = self.config.miss_rate
        appearance = self.appearance
        outlier_rate = appearance.space.outlier_rate
        sigma, outlier_sigma = appearance.sigma, appearance.outlier_sigma
        random, standard_normal = rng.random, rng.standard_normal
        noise = np.empty(
            (sum(len(present) for present in frames), appearance.space.dimension)
        )
        sigmas: List[float] = []
        detected: List[int] = []
        ends: List[int] = []
        for present in frames:
            for vid in present:
                if miss_rate > 0.0 and random() < miss_rate:
                    continue
                sigmas.append(
                    outlier_sigma
                    if outlier_rate > 0.0 and random() < outlier_rate
                    else sigma
                )
                standard_normal(out=noise[len(detected)])
                detected.append(vid)
            ends.append(len(detected))
        count = len(detected)
        vids = np.array(detected, dtype=np.int64)
        features = appearance.observe_rows(noise[:count], np.array(sigmas), vids)
        ids = np.arange(self._next_id, self._next_id + count, dtype=np.int64)
        self._next_id += count
        out: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        start = 0
        for end in ends:
            out.append((ids[start:end], vids[start:end], features[start:end]))
            start = end
        return out

    @property
    def detections_issued(self) -> int:
        """How many detections this model has produced so far."""
        return self._next_id
