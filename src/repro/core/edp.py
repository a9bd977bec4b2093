"""EDP — the baseline matcher from Teng et al. [24] (INFOCOM 2012).

EDP ("E-filtering + V-identification", the paper calls it EDP in
Sec. VI-B) matches **one EID at a time**: it scans the E-Scenarios
containing the target EID, keeps the intersection of their EID sets as
the candidate set, and selects each scenario that shrinks it until the
target is the unique candidate; VID filtering then runs on exactly that
per-target list.

The crucial contrast with set splitting is the absence of cross-target
reuse: every target selects its own scenario list, and "it is highly
random for a scenario selected for one EID to be reused for other EIDs
in EDP" (Sec. VI-B).  The paper's fair-comparison adaptation — "we
adapt EDP to MapReduce framework by assigning each mapper one EID
matching task" — is provided by :mod:`repro.parallel.edp_job`.

EDP predates the vague-zone machinery, so under practical settings it
consumes raw scenarios with vague sightings treated as plain inclusive
ones; that is what costs it accuracy in Figs. 10/11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.metrics.timing import SimulatedClock
from repro.sensing.scenarios import ScenarioKey, ScenarioStore
from repro.world.entities import EID


@dataclass(frozen=True)
class EDPConfig:
    """Baseline knobs.

    Attributes:
        seed: master seed; each target scans its candidate scenarios in
            an independent shuffled order (no coordination between
            targets, by design).
        max_scenarios_per_eid: cap on scenarios *selected* per target;
            ``None`` selects until the candidate set is a singleton or
            the pool runs out.
        greedy_sample: per selection step, EDP inspects this many of the
            target's remaining scenarios and picks the one shrinking the
            candidate set most.  Because EDP dedicates the whole
            selection to one EID it can afford this per-target
            optimization, which is why its *per-EID* scenario count
            undercuts SS's (Fig. 7) even though its total is far larger
            (Fig. 5).  ``1`` degrades to purely random selection.
        min_gap_ticks: same evidence-diversity rule as
            :class:`~repro.core.set_splitting.SplitConfig` — skip
            scenarios from a cell the target's evidence already covers
            within this many ticks.
    """

    seed: int = 0
    max_scenarios_per_eid: Optional[int] = None
    greedy_sample: int = 12
    min_gap_ticks: int = 5

    def __post_init__(self) -> None:
        if self.max_scenarios_per_eid is not None and self.max_scenarios_per_eid <= 0:
            raise ValueError(
                f"max_scenarios_per_eid must be positive or None, "
                f"got {self.max_scenarios_per_eid}"
            )
        if self.greedy_sample <= 0:
            raise ValueError(
                f"greedy_sample must be positive, got {self.greedy_sample}"
            )
        if self.min_gap_ticks < 0:
            raise ValueError(
                f"min_gap_ticks must be non-negative, got {self.min_gap_ticks}"
            )


@dataclass
class EDPResult:
    """E-stage output of the baseline, shaped like
    :class:`~repro.core.set_splitting.SplitResult` so the same V stage
    and metrics consume either."""

    targets: Tuple[EID, ...]
    evidence: Dict[EID, List[ScenarioKey]] = field(default_factory=dict)
    candidates: Dict[EID, FrozenSet[EID]] = field(default_factory=dict)
    scenarios_examined: int = 0

    @property
    def recorded(self) -> List[ScenarioKey]:
        """Distinct selected scenarios, reused ones counted once
        (the Fig. 5/6 metric), in first-selection order."""
        seen: Set[ScenarioKey] = set()
        ordered: List[ScenarioKey] = []
        for target in self.targets:
            for key in self.evidence.get(target, ()):
                if key not in seen:
                    seen.add(key)
                    ordered.append(key)
        return ordered

    @property
    def num_selected(self) -> int:
        return len(self.recorded)

    @property
    def distinguished(self) -> FrozenSet[EID]:
        return frozenset(
            t for t in self.targets if len(self.candidates.get(t, (0, 0))) == 1
        )

    @property
    def unresolved(self) -> FrozenSet[EID]:
        return frozenset(self.targets) - self.distinguished

    @property
    def avg_scenarios_per_eid(self) -> float:
        if not self.targets:
            return 0.0
        return sum(len(self.evidence.get(t, ())) for t in self.targets) / len(
            self.targets
        )


class EDPMatcher:
    """Per-EID E-filtering, the baseline E stage."""

    def __init__(
        self,
        store: ScenarioStore,
        config: Optional[EDPConfig] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        self.store = store
        self.config = config if config is not None else EDPConfig()
        self.clock = clock if clock is not None else SimulatedClock()
        self._index: Optional[Dict[EID, List[ScenarioKey]]] = None
        self._universe: Optional[FrozenSet[EID]] = None

    def run(
        self,
        targets: Sequence[EID],
        universe: Optional[Iterable[EID]] = None,
    ) -> EDPResult:
        """Run E-filtering independently for every target."""
        if not targets:
            raise ValueError("targets must not be empty")
        if len(set(targets)) != len(targets):
            raise ValueError("targets contain duplicates")
        self._build_index()
        universe_set = (
            frozenset(universe) if universe is not None else self._universe
        )
        assert universe_set is not None
        missing = [t for t in targets if t not in universe_set]
        if missing:
            raise ValueError(
                f"targets not in universe: {sorted(e.index for e in missing)}"
            )

        result = EDPResult(targets=tuple(targets))
        seed_seq = np.random.SeedSequence(self.config.seed)
        children = seed_seq.spawn(len(targets))
        for target, child in zip(targets, children):
            evidence, candidates, examined = self._filter_one(
                target, universe_set, np.random.default_rng(child)
            )
            result.evidence[target] = evidence
            result.candidates[target] = candidates
            result.scenarios_examined += examined
        return result

    def _build_index(self) -> None:
        """EID -> scenario keys containing it (vague folded in —
        EDP has no attribute machinery)."""
        if self._index is not None:
            return
        index: Dict[EID, List[ScenarioKey]] = {}
        eids: Set[EID] = set()
        for e_scenario in self.store.e_scenarios():
            for eid in e_scenario.eids:
                index.setdefault(eid, []).append(e_scenario.key)
                eids.add(eid)
        if not eids:
            raise ValueError("the scenario store contains no EIDs")
        self._index = index
        self._universe = frozenset(eids)

    def _filter_one(
        self,
        target: EID,
        universe: FrozenSet[EID],
        rng: np.random.Generator,
    ) -> Tuple[List[ScenarioKey], FrozenSet[EID], int]:
        """E-filter a single target; returns (evidence, candidates, examined).

        Each step samples ``greedy_sample`` of the target's remaining
        scenarios, inspects them all (charged to the E clock), and
        selects the one leaving the fewest candidates.
        """
        assert self._index is not None
        pool = list(self._index.get(target, ()))
        rng.shuffle(pool)  # type: ignore[arg-type]
        budget = self.config.max_scenarios_per_eid
        candidates: Set[EID] = set(universe)
        evidence: List[ScenarioKey] = []
        examined = 0
        cursor = 0
        while len(candidates) > 1 and cursor < len(pool):
            if budget is not None and len(evidence) >= budget:
                break
            batch = pool[cursor : cursor + self.config.greedy_sample]
            best_key = None
            best_left: Optional[Set[EID]] = None
            for key in batch:
                examined += 1
                self.clock.charge_e_scenarios(1)
                if not self._is_diverse(key, evidence):
                    continue
                left = candidates & self.store.e_scenario(key).eids
                if len(left) < len(candidates) and (
                    best_left is None or len(left) < len(best_left)
                ):
                    best_key, best_left = key, left
            if best_key is None:
                # Nothing in the window helped; slide past it.
                cursor += len(batch)
                continue
            # Unselected window members stay in the pool: they may be
            # the best pick of a later step.
            pool.remove(best_key)
            candidates = best_left if best_left is not None else candidates
            evidence.append(best_key)
        return evidence, frozenset(candidates), examined

    def _is_diverse(self, key, evidence) -> bool:
        """The ``min_gap_ticks`` evidence-diversity rule (see SplitConfig)."""
        gap = self.config.min_gap_ticks
        if gap == 0:
            return True
        return not any(
            prior.cell_id == key.cell_id and abs(prior.tick - key.tick) < gap
            for prior in evidence
        )
