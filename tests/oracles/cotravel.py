"""Co-traveler counting one EID at a time: the executable spec of the
shared co-occurrence count (:func:`repro.sensing.scenarios.co_travelers`).

This is the dict loop ``FusedIndex.co_travelers`` ran before its
callers shared one count, kept literal: walk the person's distinct
confident sightings, add one per other inclusive EID, keep the counts
that reach ``min_shared`` and order them most-shared first, ties by
EID.  Only the scenario types are shared with production.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.sensing.scenarios import ScenarioKey, ScenarioStore
from repro.world.entities import EID


def co_travelers(
    store: ScenarioStore,
    eid: EID,
    keys: Iterable[ScenarioKey],
    min_shared: int,
) -> List[Tuple[EID, int]]:
    """``(other, shared count)`` pairs over ``eid``'s confident
    sightings among ``keys``, most-shared first."""
    own = {key for key in keys if eid in store.e_scenario(key).inclusive}
    counts: Dict[EID, int] = {}
    for key in own:
        for other in store.e_scenario(key).inclusive:
            if other != eid:
                counts[other] = counts.get(other, 0) + 1
    pairs = [(e, n) for e, n in counts.items() if n >= min_shared]
    pairs.sort(key=lambda en: (-en[1], en[0]))
    return pairs


def shared_keys(
    store: ScenarioStore, companion: EID, keys: Iterable[ScenarioKey]
) -> List[ScenarioKey]:
    """The ``keys`` where ``companion`` is inclusive, in order."""
    return [key for key in keys if companion in store.e_scenario(key).inclusive]
