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

Unlike E sightings, visual detections never drift across cells: a
camera only films its own field of view, so attribution is exact —
which is why the paper's vague-zone machinery lives on the E side only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sensing.scenarios import Detection
from repro.world.entities import VID
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
        self._vids = [VID(index) for index in range(appearance.num_vids)]

    def sense(
        self,
        frames: Sequence[Sequence[int]],
        rng: np.random.Generator,
    ) -> List[Tuple[Tuple[Detection, ...], np.ndarray]]:
        """Detect the people present in one instant's camera frames.

        Args:
            frames: per frame, the indices of the visual identities
                truly present, in ascending order.
            rng: randomness source for misses and feature noise.

        Returns:
            Per frame, one :class:`Detection` per successfully-detected
            person, in the given order, each with a fresh globally
            unique ``detection_id`` and a noisy feature vector; and the
            frame's ``(n, d)`` feature block, whose rows those features
            are (views, not copies).

        Draws are scalar and in frame-then-VID order: per person, the
        miss draw (when ``miss_rate > 0``), then for a detected person
        the appearance model's outlier draw and its feature noise.  The
        feature arithmetic then runs once over all the instant's
        detections (:meth:`AppearanceModel.observe_rows`).
        """
        miss_rate = self.config.miss_rate
        appearance = self.appearance
        noise = np.empty(
            (sum(len(present) for present in frames), appearance.space.dimension)
        )
        sigmas: List[float] = []
        detected: List[int] = []
        ends: List[int] = []
        for present in frames:
            for vid in present:
                if miss_rate > 0.0 and rng.random() < miss_rate:
                    continue
                sigmas.append(appearance.noise_sigma(rng))
                rng.standard_normal(out=noise[len(detected)])
                detected.append(vid)
            ends.append(len(detected))
        count = len(detected)
        features = appearance.observe_rows(
            noise[:count], np.array(sigmas), np.array(detected, dtype=np.int64)
        )
        first_id = self._next_id
        self._next_id += count
        vids = self._vids
        detections = [
            Detection(first_id + k, feature, vids[vid])
            for k, (feature, vid) in enumerate(zip(features, detected))
        ]
        out: List[Tuple[Tuple[Detection, ...], np.ndarray]] = []
        start = 0
        for end in ends:
            out.append((tuple(detections[start:end]), features[start:end]))
            start = end
        return out

    @property
    def detections_issued(self) -> int:
        """How many detections this model has produced so far."""
        return self._next_id
