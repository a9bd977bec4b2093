"""Incremental EV-Matching: consume scenarios as they arrive.

The batch :class:`~repro.core.set_splitting.SetSplitter` assumes the
whole scenario database exists up front.  A live deployment does not:
cameras and base stations emit one window of EV-Scenarios at a time,
and an investigator wants each target matched *as soon as* enough
evidence has accumulated — not after a nightly batch.

:class:`IncrementalMatcher` maintains the same per-target candidate
sets and evidence lists as the batch E stage, updated by
:meth:`IncrementalMatcher.observe` for every arriving EV-Scenario.
The moment a target's candidates collapse to a singleton, its match
is due: the V stage runs once per observed batch, for just the targets
the batch distinguished, and their matches are emitted.  Feeding a
store's scenarios in tick order reproduces the batch matcher's
semantics (a property the tests pin down), while the emission latency
— how many windows until each match fires — becomes measurable.

Targets can also be added mid-stream (:meth:`add_target`): a new
investigation starts with the universe as its candidate set and only
consumes scenarios from then on, exactly what an online system can do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.set_splitting import SplitConfig
from repro.core.vid_filtering import FilterConfig, MatchResult, VIDFilter
from repro.metrics.timing import SimulatedClock
from repro.sensing.scenarios import EVScenario, ScenarioKey, ScenarioStore
from repro.world.entities import EID


@dataclass
class Emission:
    """One match emitted by the stream.

    Attributes:
        eid: the matched target.
        result: the V-stage outcome.
        emitted_at_tick: the window whose scenario completed the
            evidence (the match's latency anchor).
        scenarios_consumed: how many scenarios the stream had seen when
            the match fired.
    """

    eid: EID
    result: MatchResult
    emitted_at_tick: int
    scenarios_consumed: int


class IncrementalMatcher:
    """Streaming E stage + on-demand V stage.

    Args:
        store: the scenario store the V stage reads from.  The E stage
            itself consumes scenarios passed to :meth:`observe`, which
            may come from this store (replay) or anywhere else with
            matching keys.
        universe: the EID population targets must be separated from.
        split_config: reuses the batch E-stage knobs (the diversity
            rule and the vague handling apply unchanged; strategy and
            budget are meaningless for a stream and ignored).
        filter_config: V-stage knobs.
        clock: simulated cost accounting, shared with the V stage.
    """

    def __init__(
        self,
        store: ScenarioStore,
        universe: Iterable[EID],
        split_config: Optional[SplitConfig] = None,
        filter_config: Optional[FilterConfig] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        self.universe: FrozenSet[EID] = frozenset(universe)
        if not self.universe:
            raise ValueError("universe must not be empty")
        self.split_config = split_config if split_config is not None else SplitConfig()
        self.clock = clock if clock is not None else SimulatedClock()
        self._filter = VIDFilter(store, filter_config, self.clock)
        self._candidates: Dict[EID, Set[EID]] = {}
        #: The keys of ``_candidates``, as a set: the targets a scenario
        #: names are then one C-level intersection over stored hashes.
        self._pending: Set[EID] = set()
        #: Each target's position in watch order: ``observe`` visits
        #: the targets a scenario names in this order.
        self._rank: Dict[EID, int] = {}
        self._evidence: Dict[EID, List[ScenarioKey]] = {}
        self._emitted: Dict[EID, Emission] = {}
        self._scenarios_consumed = 0
        self._seen_keys: Set[ScenarioKey] = set()
        self._duplicates_ignored = 0

    # -- target management -------------------------------------------------
    def add_target(self, target: EID) -> None:
        """Start matching ``target`` from this point of the stream on."""
        if target not in self.universe:
            raise ValueError(f"{target} is not in the universe")
        if target in self._evidence or target in self._emitted:
            return  # already tracked (or already matched)
        self._candidates[target] = set(self.universe)
        self._pending.add(target)
        self._rank[target] = len(self._rank)
        self._evidence[target] = []

    def add_targets(self, targets: Sequence[EID]) -> None:
        for target in targets:
            self.add_target(target)

    @property
    def pending(self) -> FrozenSet[EID]:
        """Targets still waiting for enough evidence."""
        return frozenset(self._pending)

    @property
    def emissions(self) -> Dict[EID, Emission]:
        """All matches emitted so far."""
        return dict(self._emitted)

    @property
    def scenarios_consumed(self) -> int:
        return self._scenarios_consumed

    @property
    def duplicates_ignored(self) -> int:
        """Re-observed ``(cell, tick)`` keys dropped by idempotence."""
        return self._duplicates_ignored

    # -- the stream ----------------------------------------------------------
    def observe(self, *scenarios: EVScenario) -> List[Emission]:
        """Consume arriving EV-Scenarios, in order; return the matches
        they fired, in firing order.

        The E side narrows the targets scenario by scenario.  Every
        target the scenarios distinguish then goes through one V stage
        (:meth:`VIDFilter.match`), so a window that completes several
        targets fills their shared scenario pairs once.  ``observe(s)``
        is the one-scenario case.

        Idempotent per ``(cell, tick)`` key: re-observing an
        already-consumed snapshot (a replayed window after a crash
        restore, an at-least-once transport) is ignored — no clock
        charge, no evidence growth, no emissions.
        """
        fired: List[Tuple[EID, int, int]] = []
        fresh = 0
        for scenario in scenarios:
            key = scenario.key
            if key in self._seen_keys:
                self._duplicates_ignored += 1
                continue
            self._seen_keys.add(key)
            self._scenarios_consumed += 1
            fresh += 1
            fired.extend(
                (target, key.tick, self._scenarios_consumed)
                for target in self._narrow(scenario)
            )
        self.clock.charge_e_scenarios(fresh)
        return self._emit(fired)

    def observe_tick(
        self, store: ScenarioStore, tick: int
    ) -> List[Emission]:
        """Replay every scenario of one window from a store."""
        return self.observe(*map(store.get, store.keys_at_tick(tick)))

    def _narrow(self, scenario: EVScenario) -> List[EID]:
        """Narrow every pending target ``scenario`` names as inclusive;
        returns (and stops tracking) those it distinguished."""
        if self.split_config.treat_vague_as_inclusive:
            inclusive = scenario.e.inclusive | scenario.e.vague
            allowed = inclusive
        else:
            inclusive = scenario.e.inclusive
            allowed = scenario.e.inclusive | scenario.e.vague

        distinguished: List[EID] = []
        gap = self.split_config.min_gap_ticks
        key = scenario.key
        named = inclusive & self._pending
        for target in sorted(named, key=self._rank.__getitem__):
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

    def _emit(self, fired: Sequence[Tuple[EID, int, int]]) -> List[Emission]:
        """Run the V stage once for the ``(target, tick, consumed)``
        triples fired, and emit them in that order."""
        if not fired:
            return []
        results = self._filter.match(
            {target: self._evidence[target] for target, _, _ in fired}
        )
        emissions: List[Emission] = []
        for target, tick, consumed in fired:
            emission = Emission(
                eid=target,
                result=results[target],
                emitted_at_tick=tick,
                scenarios_consumed=consumed,
            )
            self._emitted[target] = emission
            emissions.append(emission)
        return emissions

    # -- reporting -------------------------------------------------------------
    def evidence_of(self, target: EID) -> Tuple[ScenarioKey, ...]:
        """The evidence list accumulated for a target so far."""
        if target in self._emitted:
            return self._emitted[target].result.scenario_keys
        try:
            return tuple(self._evidence[target])
        except KeyError:
            raise KeyError(f"{target} is not tracked") from None

    def latency_report(self) -> Dict[EID, int]:
        """Per-emitted-target: the tick its match fired at."""
        return {eid: em.emitted_at_tick for eid, em in self._emitted.items()}
