"""The streaming E stage visiting every pending target per scenario.

:meth:`IncrementalMatcher.observe` visits only the pending targets a
scenario names, in watch order.  This oracle keeps the literal loop it
replaced: walk every pending target in watch order and skip the ones
the scenario does not name.  The equivalence suite checks that the two
emit the same matches in the same order, grow the same evidence and
charge the same simulated clock.
"""

from __future__ import annotations

from typing import List

from repro.core.incremental import Emission, IncrementalMatcher
from repro.sensing.scenarios import EVScenario


class AllPendingIncrementalMatcher(IncrementalMatcher):
    """:class:`IncrementalMatcher` with the all-pending-targets loop in
    :meth:`observe`; target bookkeeping and the V stage are shared."""

    def observe(self, scenario: EVScenario) -> List[Emission]:
        if scenario.key in self._seen_keys:
            self._duplicates_ignored += 1
            return []
        self._seen_keys.add(scenario.key)
        self._scenarios_consumed += 1
        self.clock.charge_e_scenarios(1)
        if self.split_config.treat_vague_as_inclusive:
            inclusive = scenario.e.inclusive | scenario.e.vague
            allowed = inclusive
        else:
            inclusive = scenario.e.inclusive
            allowed = scenario.e.inclusive | scenario.e.vague

        fired: List[Emission] = []
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
                fired.append(self._emit(target, key.tick))
        return fired
