"""The streaming E stage visiting every pending target per scenario.

:meth:`IncrementalMatcher.observe` narrows only the pending targets a
scenario names, in watch order.  This oracle keeps the literal loop it
replaced: walk every pending target in watch order and skip the ones
the scenario does not name.  The equivalence suite checks that the two
emit the same matches in the same order, grow the same evidence and
charge the same simulated clock.  A second oracle keeps the per-target
V stage the batched one replaced.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.incremental import Emission, IncrementalMatcher
from repro.sensing.scenarios import EVScenario
from repro.world.entities import EID


class AllPendingIncrementalMatcher(IncrementalMatcher):
    """:class:`IncrementalMatcher` with the all-pending-targets loop in
    its per-scenario E side; target bookkeeping and the V stage are
    shared."""

    def _narrow(self, scenario: EVScenario) -> List[EID]:
        if self.split_config.treat_vague_as_inclusive:
            inclusive = scenario.e.inclusive | scenario.e.vague
            allowed = inclusive
        else:
            inclusive = scenario.e.inclusive
            allowed = scenario.e.inclusive | scenario.e.vague

        distinguished: List[EID] = []
        gap = self.split_config.min_gap_ticks
        key = scenario.key
        for target in list(self._candidates):
            if target not in inclusive:
                continue
            candidates = self._candidates[target]
            if candidates <= allowed:
                continue  # uninformative for this target
            if gap and any(
                prior.cell_id == key.cell_id and abs(prior.tick - key.tick) < gap
                for prior in self._evidence[target]
            ):
                continue
            candidates &= allowed
            self._evidence[target].append(key)
            if len(candidates) == 1:
                del self._candidates[target]
                self._pending.discard(target)
                distinguished.append(target)
        return distinguished


class PerTargetIncrementalMatcher(IncrementalMatcher):
    """:class:`IncrementalMatcher` running the V stage one target at a
    time, through ``match_one``, as each fires: what the watch list did
    before a batch's targets shared one ``VIDFilter.match``."""

    def _emit(self, fired: Sequence[Tuple[EID, int, int]]) -> List[Emission]:
        emissions: List[Emission] = []
        for target, tick, consumed in fired:
            emission = Emission(
                eid=target,
                result=self._filter.match_one(target, self._evidence[target]),
                emitted_at_tick=tick,
                scenarios_consumed=consumed,
            )
            self._emitted[target] = emission
            emissions.append(emission)
        return emissions
