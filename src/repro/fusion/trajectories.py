"""E-Trajectories and V-Tracklets (paper Sec. III).

"Within a period of time ... one EID's E-Locations accumulate and an
entire E-Trajectory is generated.  V-Trajectory is a linkage of the
V-Locations of a single person with human re-identification or visual
tracking methods.  Then one person has one E-Trajectory ... and
multiple V-Trajectory segments, because of occlusions and appearance
variations."

* :func:`build_e_trajectories` replays the E side of a scenario store
  into one cell-level trajectory per EID — cheap and complete, exactly
  why the paper's E stage runs first.
* :func:`build_v_tracklets` performs the visual-side linkage: greedy
  appearance matching of detections across consecutive windows within
  the same cell, producing the *multiple segments per person* the
  paper describes.  Tracklets break when the person leaves the cell,
  is missed by the detector, or looks too different (an outlier crop) —
  the three causes Sec. III names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sensing.scenarios import Detection, ScenarioStore
from repro.world.entities import EID


@dataclass(frozen=True)
class ETrajectory:
    """One EID's cell-level electronic trajectory.

    Attributes:
        eid: whose trajectory.
        sightings: ``(tick, cell_id, vague)`` triples, tick-ordered;
            ``vague`` marks sightings attributed to the cell's vague
            zone (untrusted for matching, still useful for display).
    """

    eid: EID
    sightings: Tuple[Tuple[int, int, bool], ...]

    def __len__(self) -> int:
        return len(self.sightings)

    def cell_at(self, tick: int) -> Optional[int]:
        """The cell the EID was (confidently) observed in at ``tick``."""
        for t, cell_id, vague in self.sightings:
            if t == tick and not vague:
                return cell_id
        return None

    def cells_visited(self) -> Tuple[int, ...]:
        """Distinct cells with confident sightings, in first-visit order."""
        seen: List[int] = []
        for _t, cell_id, vague in self.sightings:
            if not vague and cell_id not in seen:
                seen.append(cell_id)
        return tuple(seen)


@dataclass
class VTracklet:
    """One appearance-linked chain of detections (a V-Trajectory segment).

    Attributes:
        tracklet_id: dense id within one build.
        cell_id: the cell the tracklet lives in (tracklets are per-cell;
            cross-cell re-identification is the matcher's job).
        detections: ``(tick, Detection)`` pairs, tick-ordered.
    """

    tracklet_id: int
    cell_id: int
    detections: List[Tuple[int, Detection]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.detections)

    @property
    def first_tick(self) -> int:
        return self.detections[0][0]

    @property
    def last_tick(self) -> int:
        return self.detections[-1][0]

    def centroid(self) -> np.ndarray:
        """Mean appearance of the tracklet, unit-normalized."""
        features = np.stack([d.feature for _t, d in self.detections])
        center = features.mean(axis=0)
        norm = np.linalg.norm(center)
        return center / norm if norm > 0 else center

    def purity(self) -> float:
        """Ground-truth fraction of the majority identity (metric only)."""
        from collections import Counter

        votes = Counter(d.true_vid for _t, d in self.detections)
        return votes.most_common(1)[0][1] / len(self.detections)


def build_e_trajectories(store: ScenarioStore) -> Dict[EID, ETrajectory]:
    """Replay every E-Scenario into per-EID trajectories."""
    sightings: Dict[EID, List[Tuple[int, int, bool]]] = {}
    for e_scenario in store.e_scenarios():
        key = e_scenario.key
        for eid in e_scenario.inclusive:
            sightings.setdefault(eid, []).append((key.tick, key.cell_id, False))
        for eid in e_scenario.vague:
            sightings.setdefault(eid, []).append((key.tick, key.cell_id, True))
    return {
        eid: ETrajectory(eid=eid, sightings=tuple(sorted(entries)))
        for eid, entries in sightings.items()
    }


def build_v_tracklets(
    store: ScenarioStore,
    link_threshold: float = 0.6,
    max_gap: int = 1,
) -> List[VTracklet]:
    """Link detections into per-cell tracklets by appearance.

    Greedy bipartite linking between each cell's consecutive windows:
    every open tracklet bids for the new window's detections with the
    similarity of its centroid; links above ``link_threshold`` are
    taken best-first (one detection per tracklet); unlinked detections
    open fresh tracklets; tracklets idle for more than ``max_gap``
    windows are closed.

    Args:
        store: the scenario store to track over.
        link_threshold: minimum appearance similarity for a link —
            below it, the figure is treated as a new person.
        max_gap: windows a tracklet may miss (occlusion) and still
            continue.

    Returns:
        All tracklets, tick-ordered within each cell, including
        singletons (a figure seen once).
    """
    if not 0.0 < link_threshold < 1.0:
        raise ValueError(f"link_threshold must be in (0, 1), got {link_threshold}")
    if max_gap < 0:
        raise ValueError(f"max_gap must be non-negative, got {max_gap}")

    tracklets: List[VTracklet] = []
    # Open tracklet state per cell: list of tracklet indices.
    open_by_cell: Dict[int, List[int]] = {}

    for tick in store.ticks:
        for key in store.keys_at_tick(tick):
            detections = store.v_scenario(key).detections
            cell_id = key.cell_id
            open_ids = [
                tid
                for tid in open_by_cell.get(cell_id, [])
                if tick - tracklets[tid].last_tick <= max_gap + 1
            ]
            assigned = _link_window(
                tracklets, open_ids, detections, tick, link_threshold
            )
            # Unlinked detections start new tracklets.
            for detection in detections:
                if detection.detection_id in assigned:
                    continue
                tracklet = VTracklet(
                    tracklet_id=len(tracklets), cell_id=cell_id
                )
                tracklet.detections.append((tick, detection))
                tracklets.append(tracklet)
                open_ids.append(tracklet.tracklet_id)
            open_by_cell[cell_id] = open_ids
    return tracklets


def _link_window(
    tracklets: List[VTracklet],
    open_ids: Sequence[int],
    detections: Sequence[Detection],
    tick: int,
    threshold: float,
) -> set:
    """Greedy best-first assignment of one window's detections.

    Returns the set of assigned detection ids.  Mutates the linked
    tracklets in place.
    """
    assigned: set = set()
    if not open_ids or not detections:
        return assigned
    features = np.stack([d.feature for d in detections])
    centroids = np.stack([tracklets[tid].centroid() for tid in open_ids])
    # sims[i, j]: tracklet i vs detection j.
    dots = centroids @ features.T
    sims = 1.0 - np.sqrt(np.clip(2.0 - 2.0 * dots, 0.0, None)) / 2.0

    candidates = [
        (float(sims[i, j]), i, j)
        for i in range(len(open_ids))
        for j in range(len(detections))
        if sims[i, j] >= threshold
    ]
    candidates.sort(reverse=True)
    used_tracklets: set = set()
    for sim, i, j in candidates:
        tid = open_ids[i]
        detection = detections[j]
        if tid in used_tracklets or detection.detection_id in assigned:
            continue
        tracklets[tid].detections.append((tick, detection))
        used_tracklets.add(tid)
        assigned.add(detection.detection_id)
    return assigned
