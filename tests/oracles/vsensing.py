"""V sensing one detection object at a time.

The per-detection form of
:meth:`~repro.sensing.v_sensing.VSensingModel.sense`: per person the
miss draw, then :meth:`~repro.world.features.AppearanceModel.noise_sigma`
for the outlier draw and the feature noise, and one :class:`Detection`
per detected person whose feature is a row of the frame's block.
Production returns the same detections as id, VID and feature columns
and draws the outlier flag inline; the property suite checks the two
against each other, generator state included.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.sensing.scenarios import Detection
from repro.world.entities import VID
from repro.world.features import AppearanceModel


class ObjectVSensing:
    """Per-frame :class:`Detection` tuples with globally unique ids."""

    def __init__(self, appearance: AppearanceModel, miss_rate: float = 0.0) -> None:
        self.appearance = appearance
        self.miss_rate = miss_rate
        self.next_id = 0

    def sense(
        self, frames: Sequence[Sequence[int]], rng: np.random.Generator
    ) -> List[Tuple[Tuple[Detection, ...], np.ndarray]]:
        appearance = self.appearance
        noise = np.empty(
            (sum(len(present) for present in frames), appearance.space.dimension)
        )
        sigmas: List[float] = []
        detected: List[int] = []
        ends: List[int] = []
        for present in frames:
            for vid in present:
                if self.miss_rate > 0.0 and rng.random() < self.miss_rate:
                    continue
                sigmas.append(appearance.noise_sigma(rng))
                rng.standard_normal(out=noise[len(detected)])
                detected.append(vid)
            ends.append(len(detected))
        count = len(detected)
        features = appearance.observe_rows(
            noise[:count], np.array(sigmas), np.array(detected, dtype=np.int64)
        )
        detections = [
            Detection(self.next_id + k, feature, VID(vid))
            for k, (feature, vid) in enumerate(zip(features, detected))
        ]
        self.next_id += count
        out: List[Tuple[Tuple[Detection, ...], np.ndarray]] = []
        start = 0
        for end in ends:
            out.append((tuple(detections[start:end]), features[start:end]))
            start = end
        return out
