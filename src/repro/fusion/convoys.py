"""Co-traveler / convoy queries: who moves *with* whom, city-wide.

:meth:`~repro.fusion.index.FusedIndex.co_travelers` counts shared
scenarios; a *convoy* is stronger evidence: a run of co-occurrences
that actually travels — consecutive shared sightings, spanning more
than one camera cell, each hop feasible under the fitted
:class:`~repro.topology.transit.TransitModel`.  Two phones that merely
sit in the same building all day co-occur heavily but never convoy;
two people driving the same route convoy within a few ticks.

The query is two-phase:

1. **Candidate screen** — the one co-occurrence count over the
   target's confident sightings
   (:func:`~repro.sensing.scenarios.co_travelers`, which also serves
   the investigate verb and :class:`~repro.fusion.index.FusedIndex`)
   yields every EID's shared-scenario count at once; only candidates
   with at least ``min_shared`` shared scenarios proceed.
2. **Graph-constrained window join** — the shared sightings are walked
   in tick order and split into segments wherever consecutive
   sightings are spatiotemporally infeasible (unreachable under the
   model's hop envelope), slower than the calibrated per-edge transit
   quantile on a direct fitted edge, or further apart than
   ``max_gap_ticks``.  A segment qualifies as a convoy when it has
   ``min_shared`` sightings across ``min_cells`` distinct cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sensing.scenarios import (
    ScenarioKey,
    ScenarioStore,
    co_travelers,
    inclusive_keys,
)
from repro.world.entities import EID


@dataclass(frozen=True)
class Convoy:
    """One qualifying co-travel segment between two EIDs.

    Attributes:
        leader: the queried EID.
        companion: who traveled with them.
        sightings: shared sightings inside the segment.
        cells: distinct cells the segment crossed, in first-seen order.
        start_tick / end_tick: the segment's tick span.
    """

    leader: EID
    companion: EID
    sightings: int
    cells: Tuple[int, ...]
    start_tick: int
    end_tick: int

    @property
    def span_ticks(self) -> int:
        """Ticks from the first shared sighting to the last."""
        return self.end_tick - self.start_tick


class ConvoyQuery:
    """Reusable convoy queries over one store (+ optional transit model).

    Args:
        store: the scenario store (the matcher's own input).
        model: a fitted transit model; ``None`` skips the
            graph-feasibility constraints and joins on time gaps alone.
        min_shared: shared sightings a segment needs to qualify (also
            the candidate screen's threshold).
        min_cells: distinct cells a segment must cross — the knob that
            separates *traveling together* from *parked together*.
        max_gap_ticks: absolute cap on the gap between consecutive
            shared sightings in one segment; ``None`` leaves gap
            policing entirely to the model.
    """

    def __init__(
        self,
        store: ScenarioStore,
        model=None,
        min_shared: int = 3,
        min_cells: int = 2,
        max_gap_ticks: Optional[int] = None,
    ) -> None:
        if min_shared <= 0:
            raise ValueError(f"min_shared must be positive, got {min_shared}")
        if min_cells <= 0:
            raise ValueError(f"min_cells must be positive, got {min_cells}")
        if max_gap_ticks is not None and max_gap_ticks <= 0:
            raise ValueError(
                f"max_gap_ticks must be positive or None, got {max_gap_ticks}"
            )
        self.store = store
        self.model = model
        self.min_shared = min_shared
        self.min_cells = min_cells
        self.max_gap_ticks = max_gap_ticks

    # -- public API ------------------------------------------------------
    def find(self, eid: EID) -> List[Convoy]:
        """All convoys ``eid`` participates in, most sightings first."""
        own_keys = self._inclusive_keys(eid)
        if not own_keys:
            return []
        convoys: List[Convoy] = []
        for companion in self._candidates(eid, own_keys):
            shared = self._shared_keys(own_keys, companion)
            for segment in self._segments(shared):
                cells = list(dict.fromkeys(k.cell_id for k in segment))
                if len(segment) >= self.min_shared and len(cells) >= self.min_cells:
                    convoys.append(
                        Convoy(
                            leader=eid,
                            companion=companion,
                            sightings=len(segment),
                            cells=tuple(cells),
                            start_tick=segment[0].tick,
                            end_tick=segment[-1].tick,
                        )
                    )
        convoys.sort(key=lambda c: (-c.sightings, c.companion, c.start_tick))
        return convoys

    # -- phases ----------------------------------------------------------
    def _inclusive_keys(self, eid: EID) -> List[ScenarioKey]:
        """The target's confident sightings, tick-ordered."""
        keys = inclusive_keys(self.store, eid, self.store.keys)
        keys.sort(key=lambda k: (k.tick, k.cell_id))
        return keys

    def _candidates(self, eid: EID, own_keys: List[ScenarioKey]) -> List[EID]:
        """Phase 1: the co-occurrence count's candidate screen."""
        return sorted(
            other
            for other, _n in co_travelers(
                self.store, eid, own_keys, self.min_shared
            )
        )

    def _shared_keys(
        self, own_keys: List[ScenarioKey], companion: EID
    ) -> List[ScenarioKey]:
        """The target's sightings ``companion`` shares, tick-ordered."""
        return inclusive_keys(self.store, companion, own_keys)

    def _segments(self, shared: List[ScenarioKey]) -> List[List[ScenarioKey]]:
        """Phase 2: split shared sightings at infeasible joins."""
        segments: List[List[ScenarioKey]] = []
        current: List[ScenarioKey] = []
        for key in shared:
            if current and not self._joinable(current[-1], key):
                segments.append(current)
                current = []
            current.append(key)
        if current:
            segments.append(current)
        return segments

    def _joinable(self, prev: ScenarioKey, key: ScenarioKey) -> bool:
        gap = key.tick - prev.tick
        if gap <= 0 and prev.cell_id != key.cell_id:
            return False  # two places at once is not a convoy
        if self.max_gap_ticks is not None and gap > self.max_gap_ticks:
            return False
        if self.model is None:
            return True
        if not self.model.reachable(prev.cell_id, prev.tick, key.cell_id, key.tick):
            return False
        if prev.cell_id != key.cell_id:
            # Direct fitted edges additionally bound the join by the
            # calibrated transit quantile: a "convoy" that took 10x the
            # typical transit time is two separate trips.
            bound = self.model.transit_bound(prev.cell_id, key.cell_id)
            if bound is not None and gap > bound:
                return False
        return True


def find_convoys(
    store: ScenarioStore,
    eid: EID,
    model=None,
    min_shared: int = 3,
    min_cells: int = 2,
    max_gap_ticks: Optional[int] = None,
) -> List[Convoy]:
    """One-shot convenience wrapper around :class:`ConvoyQuery`."""
    return ConvoyQuery(
        store,
        model=model,
        min_shared=min_shared,
        min_cells=min_cells,
        max_gap_ticks=max_gap_ticks,
    ).find(eid)
