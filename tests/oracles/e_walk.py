"""The streaming E stage walking scenario keys, one call per key.

:meth:`SetSplitter._run_streaming` walks the store's own E-Scenarios
and skips those naming no active target without touching their keys.
This oracle keeps the walk it replaced: order the keys, then for each
one check the stop conditions, charge the clock for one scenario and
apply it through a key lookup.  The equivalence suite checks that both
record the same scenarios, grow the same evidence and candidates,
examine as many scenarios and charge the same bits of E time.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, Iterator, Set

import numpy as np

from repro.core.set_splitting import SelectionStrategy, SetSplitter, SplitResult
from repro.sensing.scenarios import EScenario, ScenarioKey
from repro.world.entities import EID


class KeyWalkSetSplitter(SetSplitter):
    """:class:`SetSplitter` with the per-key streaming walk."""

    def _run_streaming(
        self,
        result: SplitResult,
        apply_fn: Callable[[EScenario], bool],
        active: Set[EID],
        exclude: FrozenSet[ScenarioKey],
    ) -> None:
        budget = self.config.max_scenarios
        for key in self._ordered_keys(exclude):
            if not active:
                break
            if budget is not None and result.scenarios_examined >= budget:
                break
            result.scenarios_examined += 1
            self.clock.charge_e_scenarios(1)
            apply_fn(self.store.e_scenario(key))

    def _ordered_keys(
        self, exclude: FrozenSet[ScenarioKey]
    ) -> Iterator[ScenarioKey]:
        strategy = self.config.strategy
        if strategy is SelectionStrategy.SEQUENTIAL:
            ordered: Iterable[ScenarioKey] = self.store.keys
        elif strategy is SelectionStrategy.RANDOM:
            keys = list(self.store.keys)
            rng = np.random.default_rng(self.config.seed)
            rng.shuffle(keys)  # type: ignore[arg-type]
            ordered = keys
        else:
            ticks = list(self.store.ticks)
            rng = np.random.default_rng(self.config.seed)
            rng.shuffle(ticks)  # type: ignore[arg-type]
            ordered = (
                key for tick in ticks for key in self.store.keys_at_tick(tick)
            )
        for key in ordered:
            if key not in exclude:
                yield key
