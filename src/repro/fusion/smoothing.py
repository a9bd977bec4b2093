"""Tracklet-based temporal feature smoothing.

Re-identification errors are dominated by *bad observations* — a
single occluded or mis-cropped figure whose feature carries little
identity signal (the outlier channel of
:class:`~repro.world.features.FeatureSpace`).  But a camera does not
see a person once: within a cell the same person appears in window
after window, and :func:`~repro.fusion.trajectories.build_v_tracklets`
links those appearances *without knowing identities*.

:func:`smooth_store` exploits that: every detection's feature is
blended with its tracklet's centroid, so one bad crop inside a
seven-window tracklet is largely voted down by its clean neighbours.
The output is a new :class:`~repro.sensing.scenarios.ScenarioStore`
with identical structure (same keys, same detection ids, same E side)
and denoised features — a drop-in input for any matcher.

This is an extension beyond the paper (which scores raw per-frame
features); the ablation bench quantifies what it buys.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.fusion.trajectories import build_v_tracklets
from repro.sensing.scenarios import EVScenario, ScenarioStore, VScenario


def smooth_store(
    store: ScenarioStore,
    blend: float = 0.7,
    link_threshold: float = 0.6,
    max_gap: int = 1,
) -> ScenarioStore:
    """Return a copy of ``store`` with tracklet-smoothed features.

    Args:
        store: the original scenario store.
        blend: weight of the tracklet centroid in the blended feature
            (``0`` returns features unchanged, ``1`` replaces each
            detection by its tracklet centroid).  Singleton tracklets
            are left untouched — there is nothing to average.
        link_threshold / max_gap: tracklet-construction knobs, passed
            to :func:`~repro.fusion.trajectories.build_v_tracklets`.

    Returns:
        A new store; the input is not modified.
    """
    if not 0.0 <= blend <= 1.0:
        raise ValueError(f"blend must be in [0, 1], got {blend}")

    tracklets = build_v_tracklets(
        store, link_threshold=link_threshold, max_gap=max_gap
    )
    smoothed_feature: Dict[int, np.ndarray] = {}
    for tracklet in tracklets:
        if len(tracklet) < 2:
            continue
        centroid = tracklet.centroid()
        for _tick, detection in tracklet.detections:
            blended = (1.0 - blend) * detection.feature + blend * centroid
            norm = np.linalg.norm(blended)
            if norm > 0:
                smoothed_feature[detection.detection_id] = blended / norm

    scenarios: List[EVScenario] = []
    for key in store.keys:
        scenario = store.get(key)
        v = scenario.v
        features = v.features
        smoothed = [
            (row, smoothed_feature[detection_id])
            for row, detection_id in enumerate(v.detection_ids.tolist())
            if detection_id in smoothed_feature
        ]
        if smoothed:
            features = features.copy()
            for row, feature in smoothed:
                features[row] = feature
        scenarios.append(
            EVScenario(
                e=scenario.e,
                v=VScenario(key, v.detection_ids, v.vids, features),
            )
        )
    return ScenarioStore(scenarios)
