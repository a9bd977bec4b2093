"""The FusedIndex: single queries over merged E and V data.

Built from a match report (ideally universal labeling) plus the
scenario store, the index holds one :class:`PersonProfile` per matched
EID: the electronic trajectory, the matched appearance centroid, and
the set of video detections attributed to the person.  Queries then
"retrieve the E and V information for a person at the same time with
one single query" (Sec. I):

* :meth:`FusedIndex.profile` — everything about one EID;
* :meth:`FusedIndex.who_was_at` — presence at a place and time, both
  from electronic logs and from attributed video detections;
* :meth:`FusedIndex.appearances_of` — every scenario where the
  person's appearance shows up (the investigator's "activities ... in
  surveillance videos" query);
* :meth:`FusedIndex.identify_detection` — reverse lookup: whose is
  this figure in the video?
* :meth:`FusedIndex.co_travelers` — who shares scenarios with a
  person, electronically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.matcher import MatchReport
from repro.fusion.trajectories import ETrajectory, build_e_trajectories
from repro.sensing.scenarios import (
    Detection,
    ScenarioKey,
    ScenarioStore,
    co_travelers,
)
from repro.world.entities import EID


@dataclass
class PersonProfile:
    """Fused E+V knowledge about one matched person.

    Attributes:
        eid: the electronic identity.
        e_trajectory: cell-level electronic trajectory.
        centroid: the matched appearance (unit vector), or ``None``
            when the match produced no usable appearance.
        match_agreement: self-consistency of the underlying match —
            a confidence proxy exposed to query clients.
        attributed: detections attributed to this person across the
            whole store, as ``(scenario key, detection)`` pairs.
    """

    eid: EID
    e_trajectory: Optional[ETrajectory]
    centroid: Optional[np.ndarray]
    match_agreement: float
    attributed: List[Tuple[ScenarioKey, Detection]] = field(default_factory=list)

    @property
    def num_appearances(self) -> int:
        return len(self.attributed)


class FusedIndex:
    """Queryable fusion of one store's E and V data via a match report.

    Args:
        store: the scenario store the report was computed over.
        report: the match report (universal labeling gives the most
            complete index, but any subset works).
        attribution_threshold: appearance similarity above which a
            detection is attributed to a profile's centroid.  The
            default sits between the calibrated same-person (~0.7) and
            cross-person (~0.3-0.45) similarity bands.
    """

    def __init__(
        self,
        store: ScenarioStore,
        report: MatchReport,
        attribution_threshold: float = 0.58,
    ) -> None:
        if not 0.0 < attribution_threshold < 1.0:
            raise ValueError(
                f"attribution_threshold must be in (0, 1), got {attribution_threshold}"
            )
        self.store = store
        self.attribution_threshold = attribution_threshold
        self._profiles: Dict[EID, PersonProfile] = {}
        self._detection_owner: Dict[int, EID] = {}
        self._build(report)

    # -- construction ---------------------------------------------------
    def _build(self, report: MatchReport) -> None:
        e_trajectories = build_e_trajectories(self.store)
        for eid, result in report.results.items():
            centroid = _match_centroid(result)
            self._profiles[eid] = PersonProfile(
                eid=eid,
                e_trajectory=e_trajectories.get(eid),
                centroid=centroid,
                match_agreement=result.agreement,
            )
        self._attribute_detections()

    def _attribute_detections(self) -> None:
        """Assign every detection to the best-matching profile centroid."""
        eids = [e for e, p in sorted(self._profiles.items()) if p.centroid is not None]
        if not eids:
            return
        centroids = np.stack([self._profiles[e].centroid for e in eids])
        for key in self.store.keys:
            scenario = self.store.v_scenario(key)
            if not len(scenario):
                continue
            dots = scenario.features @ centroids.T
            sims = 1.0 - np.sqrt(np.clip(2.0 - 2.0 * dots, 0.0, None)) / 2.0
            best = sims.argmax(axis=1)
            best_sim = sims.max(axis=1)
            for i, detection in enumerate(scenario.detections):
                if best_sim[i] < self.attribution_threshold:
                    continue
                owner = eids[int(best[i])]
                self._profiles[owner].attributed.append((key, detection))
                self._detection_owner[detection.detection_id] = owner

    # -- queries ----------------------------------------------------------
    @property
    def num_profiles(self) -> int:
        return len(self._profiles)

    @property
    def eids(self) -> Sequence[EID]:
        return tuple(sorted(self._profiles.keys()))

    def profile(self, eid: EID) -> PersonProfile:
        """Single query, both datasets: who is this EID?"""
        try:
            return self._profiles[eid]
        except KeyError:
            raise KeyError(f"{eid} is not in the index") from None

    def appearances_of(self, eid: EID) -> List[Tuple[ScenarioKey, Detection]]:
        """Every attributed video appearance of the person, tick-ordered."""
        return sorted(self.profile(eid).attributed, key=lambda kv: (kv[0].tick, kv[0].cell_id))

    def identify_detection(self, detection_id: int) -> Optional[EID]:
        """Reverse query: whose figure is this?  ``None`` if unattributed."""
        return self._detection_owner.get(detection_id)

    def who_was_at(self, cell_id: int, tick: int) -> Tuple[List[EID], List[EID]]:
        """Presence query for one place and time.

        Returns:
            ``(electronic, visual)``: EIDs whose electronic sightings
            put them there, and EIDs whose *attributed video
            appearances* put them there.  Agreement between the two is
            the fused dataset's self-consistency.
        """
        key = ScenarioKey(cell_id=cell_id, tick=tick)
        electronic: List[EID] = []
        visual: List[EID] = []
        if key in self.store:
            electronic = sorted(
                e for e in self.store.e_scenario(key).inclusive if e in self._profiles
            )
            for detection_id in self.store.v_scenario(key).detection_ids.tolist():
                owner = self._detection_owner.get(detection_id)
                if owner is not None:
                    visual.append(owner)
        return electronic, sorted(set(visual))

    def co_travelers(self, eid: EID, min_shared: int = 3) -> List[Tuple[EID, int]]:
        """EIDs that electronically co-occur with ``eid`` often.

        Returns ``(other, shared scenario count)`` pairs with at least
        ``min_shared`` confident co-occurrences, most-shared first: the
        one count (:func:`~repro.sensing.scenarios.co_travelers`) over
        the person's electronic trajectory.
        """
        trajectory = self.profile(eid).e_trajectory
        sightings = trajectory.sightings if trajectory is not None else ()
        keys = [ScenarioKey(cell_id=c, tick=t) for t, c, _vague in sightings]
        return co_travelers(self.store, eid, keys, min_shared)

    def attribution_accuracy(self, truth: Mapping[EID, "VID"]) -> float:  # noqa: F821
        """Ground-truth fraction of correctly attributed detections.

        A metric for tests/benchmarks only — production queries never
        see true VIDs.
        """
        total = 0
        correct = 0
        for eid, profile in self._profiles.items():
            expected = truth.get(eid)
            for _key, detection in profile.attributed:
                total += 1
                if detection.true_vid == expected:
                    correct += 1
        return correct / total if total else 0.0


def _match_centroid(result) -> Optional[np.ndarray]:
    """Centroid of a match's chosen detections (best-effort)."""
    if not result.chosen:
        return None
    features = np.stack([d.feature for d in result.chosen])
    centroid = features.mean(axis=0)
    norm = np.linalg.norm(centroid)
    if norm == 0.0:
        return None
    return centroid / norm
