"""EID set splitting — the E stage (paper Sec. IV-B.1 and IV-C.2).

Two entry points:

* :func:`algorithm1_set_split` is the *faithful* transcription of the
  paper's Algorithm 1: it drives on the
  :class:`~repro.core.partition.EIDPartition`, records every E-Scenario
  that changes the partition, and stops when every set is a singleton.
  The correctness/efficiency theorems (4.1/4.2) are stated about this
  procedure and the tests exercise them against it.
  :func:`practical_universal_split` is its vague-aware counterpart
  (Theorems 4.3/4.4) driving on the
  :class:`~repro.core.partition.SeparationTracker`.

* :class:`SetSplitter` is the production E stage used by the matcher
  and the benchmarks.  It supports *elastic matching sizes* (Sec. I):
  only the requested target EIDs drive scenario selection, yet every
  recorded scenario is shared by all targets it helps — the reuse that
  separates SS from EDP in Figs. 5-7.  Per target it maintains the
  *candidate set*: the intersection of the (inclusive-EID sets of the)
  scenarios recorded as that target's positive evidence.  A target is
  distinguished when its candidate set is a singleton, at which point
  its positive evidence list is exactly the input VID filtering needs —
  "a list of E-Scenarios such that only one EID ... appear[s] in all
  these EV-Scenarios" (Sec. IV-A).

Vague-zone rule (Sec. IV-C.2), as implemented here: a scenario can only
serve as positive evidence for a target that is *inclusive* in it, and
intersecting never rules out the scenario's own vague EIDs ("they may
or may not belong"), so vague sightings neither distinguish the target
nor get other EIDs wrongly eliminated.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import (
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.partition import EIDPartition, SeparationTracker
from repro.metrics.timing import SimulatedClock
from repro.obs import get_event_log, get_registry, get_tracer
from repro.obs import events as ev
from repro.obs.stages import CANDIDATES_REMAINING
from repro.sensing.scenarios import EScenario, ScenarioKey, ScenarioStore
from repro.world.entities import EID

class SelectionStrategy(str, enum.Enum):
    """How the E stage orders the untouched scenario pool.

    RANDOM: uniformly shuffled scenario order (seeded; the default).
    SEQUENTIAL: deterministic (tick, cell) order.
    RANDOM_TICK: shuffle timestamps, then take each instant's scenarios
        together — the order the MapReduce preprocess induces when it
        "filter[s] escelist by a random time stamp" (Algorithm 3).
    GREEDY: at each step pick the scenario that shrinks the most active
        targets' candidate sets.  Quadratic; for the ablation bench.
    """

    RANDOM = "random"
    SEQUENTIAL = "sequential"
    RANDOM_TICK = "random_tick"
    GREEDY = "greedy"


@dataclass(frozen=True)
class SplitConfig:
    """E-stage knobs.

    Attributes:
        strategy: scenario ordering (see :class:`SelectionStrategy`).
        seed: shuffle seed for the random strategies.
        max_scenarios: examination budget; ``None`` means until the pool
            is exhausted or every target is distinguished.
        treat_vague_as_inclusive: ablation switch — collapse the vague
            attribute into inclusive, i.e. run the ideal-setting rule on
            practical data (what the vague zone protects against).
        min_gap_ticks: evidence-diversity rule — a scenario is not used
            as positive evidence for a target that already has evidence
            from the *same cell* within this many ticks.  Two snapshots
            of one camera seconds apart see the same crowd, so they
            duplicate rather than add identity information (the same
            travel companions co-occur, the same occlusions persist);
            spacing the evidence keeps the V stage's probability
            products nearly independent.  0 disables the rule.

    ``backend`` is not a knob: it names the one E-stage implementation
    (set intersections, exactly the paper's formulation) for the run
    labels that spans, metrics and worker stats carry.
    """

    backend: ClassVar[str] = "python"

    strategy: SelectionStrategy = SelectionStrategy.RANDOM
    seed: int = 0
    max_scenarios: Optional[int] = None
    treat_vague_as_inclusive: bool = False
    min_gap_ticks: int = 5

    def __post_init__(self) -> None:
        if self.max_scenarios is not None and self.max_scenarios <= 0:
            raise ValueError(
                f"max_scenarios must be positive or None, got {self.max_scenarios}"
            )
        if self.min_gap_ticks < 0:
            raise ValueError(
                f"min_gap_ticks must be non-negative, got {self.min_gap_ticks}"
            )


@dataclass
class SplitResult:
    """Everything the E stage hands to the V stage, plus bookkeeping.

    Attributes:
        targets: the EIDs this run was asked to distinguish.
        recorded: every effective scenario, in the order used.  The
            paper's "number of selected scenarios" metric (Figs. 5/6) is
            ``len(recorded)`` — reused scenarios counted once.
        evidence: per-target positive scenario list (the input to VID
            filtering; Fig. 7 plots its average length).
        candidates: per-target final candidate EID set.
        scenarios_examined: how many E-Scenarios were inspected,
            effective or not — the E-stage cost driver.
    """

    targets: Tuple[EID, ...]
    recorded: List[ScenarioKey] = field(default_factory=list)
    evidence: Dict[EID, List[ScenarioKey]] = field(default_factory=dict)
    candidates: Dict[EID, FrozenSet[EID]] = field(default_factory=dict)
    scenarios_examined: int = 0

    @property
    def num_selected(self) -> int:
        """Distinct effective scenarios (the Fig. 5/6 metric)."""
        return len(self.recorded)

    @property
    def distinguished(self) -> FrozenSet[EID]:
        """Targets whose candidate set reached a singleton."""
        return frozenset(
            t for t in self.targets if len(self.candidates.get(t, (0, 0))) == 1
        )

    @property
    def unresolved(self) -> FrozenSet[EID]:
        """Targets still confusable with at least one other EID."""
        return frozenset(self.targets) - self.distinguished

    def outcome(self) -> Dict[str, int]:
        """The counts the ``e.split`` span closes with."""
        distinguished = len(self.distinguished)
        return {
            "examined": self.scenarios_examined,
            "recorded": len(self.recorded),
            "distinguished": distinguished,
            "unresolved": len(self.targets) - distinguished,
        }

    @property
    def avg_scenarios_per_eid(self) -> float:
        """Mean positive-evidence length over targets (Fig. 7 metric)."""
        if not self.targets:
            return 0.0
        return sum(len(self.evidence.get(t, ())) for t in self.targets) / len(
            self.targets
        )


def observe_candidates(result: SplitResult) -> None:
    """Each target's final candidate-set size: a list per run, so
    published here rather than carried on the ``e.split`` span."""
    CANDIDATES_REMAINING.instrument(get_registry()).observe_many(
        len(result.candidates.get(target, ())) for target in result.targets
    )


class EvidenceDiversity:
    """The ``min_gap_ticks`` rule as a per-(target, cell) tick index.

    The naive rule scans a target's whole evidence list per candidate
    scenario; only same-cell evidence can ever conflict, so this keeps
    one sorted tick list per (target, cell) and answers with a bisect —
    O(log k) against the handful of same-cell ticks instead of O(n)
    over everything the target has accumulated.
    """

    def __init__(self, gap: int) -> None:
        self.gap = gap
        self._ticks: Dict[Tuple[EID, int], List[int]] = {}

    def ok(self, target: EID, key: ScenarioKey) -> bool:
        """Whether ``key`` may serve as fresh evidence for ``target``."""
        if self.gap == 0:
            return True
        ticks = self._ticks.get((target, key.cell_id))
        if not ticks:
            return True
        i = bisect_left(ticks, key.tick)
        if i < len(ticks) and ticks[i] - key.tick < self.gap:
            return False
        if i > 0 and key.tick - ticks[i - 1] < self.gap:
            return False
        return True

    def record(self, target: EID, key: ScenarioKey) -> None:
        if self.gap == 0:
            return
        insort(self._ticks.setdefault((target, key.cell_id), []), key.tick)


class SetSplitter:
    """Production E stage with elastic matching size.

    Args:
        store: the scenario database.
        config: E-stage knobs.
        clock: simulated cost accounting.
    """

    def __init__(
        self,
        store: ScenarioStore,
        config: Optional[SplitConfig] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        self.store = store
        self.config = config if config is not None else SplitConfig()
        self.clock = clock if clock is not None else SimulatedClock()

    def run(
        self,
        targets: Sequence[EID],
        universe: Optional[Iterable[EID]] = None,
        exclude: FrozenSet[ScenarioKey] = frozenset(),
    ) -> SplitResult:
        """Select and record scenarios until all ``targets`` stand alone.

        Args:
            targets: the EIDs to distinguish (1 = single matching,
                a subset = multiple, everything = universal).
            universe: the EID population the targets must be separated
                from.  Defaults to every EID observed in the store.
            exclude: scenario keys to skip — the refining loop passes
                the keys already consumed by earlier rounds so each
                round works on untouched scenarios.

        Returns:
            A :class:`SplitResult`; targets whose candidates never
            reached a singleton are listed in ``result.unresolved``.
        """
        if not targets:
            raise ValueError("targets must not be empty")
        if len(set(targets)) != len(targets):
            raise ValueError("targets contain duplicates")
        universe_set = (
            frozenset(universe) if universe is not None else self._observed_universe()
        )
        missing = [t for t in targets if t not in universe_set]
        if missing:
            raise ValueError(
                f"targets not in universe: {sorted(e.index for e in missing)}"
            )

        result = SplitResult(targets=tuple(targets))
        for t in targets:
            result.evidence[t] = []
        diversity = EvidenceDiversity(self.config.min_gap_ticks)

        with get_tracer().span(
            "e.split",
            backend=self.config.backend,
            strategy=self.config.strategy.value,
            targets=len(targets),
            universe=len(universe_set),
        ) as span:
            self._run(result, universe_set, diversity, exclude)
            log = get_event_log()
            if log.debug:
                distinguished = result.distinguished
                for target in result.targets:
                    if target in distinguished:
                        log.emit(
                            ev.E_TARGET_DISTINGUISHED,
                            eid=target.index,
                            mac=target.mac,
                            evidence=len(result.evidence.get(target, ())),
                        )
            span.set(**result.outcome())
        observe_candidates(result)
        return result

    def _run(
        self,
        result: SplitResult,
        universe_set: FrozenSet[EID],
        diversity: EvidenceDiversity,
        exclude: FrozenSet[ScenarioKey],
    ) -> None:
        """Shrink each target's candidate set scenario by scenario.

        Every target starts at the shared universe and each positive
        scenario narrows it to a new, smaller frozenset, so nothing is
        copied per target.
        """
        candidates: Dict[EID, FrozenSet[EID]] = dict.fromkeys(
            result.targets, universe_set
        )
        active: Set[EID] = set(result.targets)

        def apply_fn(e_scenario: EScenario) -> bool:
            return self._apply_scenario(
                e_scenario, result, candidates, active, diversity
            )

        def score_fn(key: ScenarioKey) -> int:
            e_scenario = self.store.e_scenario(key)
            inclusive, allowed = self._scenario_sides(e_scenario)
            return sum(1 for t in inclusive & active if not candidates[t] <= allowed)

        if self.config.strategy is SelectionStrategy.GREEDY:
            self._run_greedy(result, apply_fn, score_fn, active, exclude)
        else:
            self._run_streaming(result, apply_fn, active, exclude)
        result.candidates = candidates

    # ------------------------------------------------------------------
    def _observed_universe(self) -> FrozenSet[EID]:
        """All EIDs that appear (inclusive or vague) in any scenario."""
        eids = self.store.eid_universe
        if not eids:
            raise ValueError("the scenario store contains no EIDs")
        return eids

    def _scenario_sides(self, e_scenario: EScenario) -> Tuple[FrozenSet[EID], FrozenSet[EID]]:
        """The (inclusive, allowed) EID sets under the configured rule.

        ``allowed`` is what a positive intersection may keep: inclusive
        plus vague, because a vague sighting must never eliminate its
        EID from a candidate set.
        """
        inclusive, vague = e_scenario.inclusive, e_scenario.vague
        allowed = inclusive | vague if vague else inclusive
        if self.config.treat_vague_as_inclusive:
            return allowed, allowed
        return inclusive, allowed

    def _apply_scenario(
        self,
        e_scenario: EScenario,
        result: SplitResult,
        candidates: Dict[EID, FrozenSet[EID]],
        active: Set[EID],
        diversity: EvidenceDiversity,
    ) -> bool:
        """Use one scenario if it is effective.  Returns True if recorded.

        ``inclusive & active`` is a C-level intersection over the sets'
        stored hashes; no EID is hashed again.
        """
        key = e_scenario.key
        inclusive, allowed = self._scenario_sides(e_scenario)
        helped = [
            target
            for target in inclusive & active
            if not candidates[target] <= allowed and diversity.ok(target, key)
        ]
        if not helped:
            return False
        result.recorded.append(key)
        for target in helped:
            candidates[target] = candidates[target] & allowed
            result.evidence[target].append(key)
            diversity.record(target, key)
            if len(candidates[target]) == 1:
                active.discard(target)
        log = get_event_log()
        if log.debug:
            log.emit(
                ev.E_SCENARIO_SELECTED,
                cell_id=key.cell_id,
                tick=key.tick,
                helped=len(helped),
            )
        return True

    def _run_streaming(
        self,
        result: SplitResult,
        apply_fn: Callable[[EScenario], bool],
        active: Set[EID],
        exclude: FrozenSet[ScenarioKey],
    ) -> None:
        """RANDOM / SEQUENTIAL / RANDOM_TICK: one pass in a fixed order.

        The pass walks the store's own E-Scenarios, so it pays per
        scenario for what the scenario holds, not for its key.  A
        scenario naming no active target cannot help any: it is
        examined (counted and charged) but skipped by one C-level
        ``isdisjoint``, so a few-target run pays in proportion to the
        scenarios its targets appear in.  The clock is charged once,
        for the whole pass (it adds per scenario; see
        :meth:`~repro.metrics.timing.SimulatedClock.charge_e_scenarios`).
        """
        budget = self.config.max_scenarios
        merge_vague = self.config.treat_vague_as_inclusive
        examined = 0
        for e_scenario in self._ordered_scenarios(exclude):
            if not active or examined == budget:
                break
            examined += 1
            if active.isdisjoint(e_scenario.inclusive) and (
                not merge_vague or active.isdisjoint(e_scenario.vague)
            ):
                continue
            apply_fn(e_scenario)
        result.scenarios_examined += examined
        self.clock.charge_e_scenarios(examined)

    def _run_greedy(
        self,
        result: SplitResult,
        apply_fn: Callable[[EScenario], bool],
        score_fn: Callable[[ScenarioKey], int],
        active: Set[EID],
        exclude: FrozenSet[ScenarioKey],
    ) -> None:
        """GREEDY: repeatedly pick the scenario helping the most targets.

        Every candidate scenario inspected during a sweep is charged as
        examined, which is honest about why greedy selection is not the
        production default.  Consumed scenarios are marked dead rather
        than removed, so selection is O(1) instead of an O(n) list
        shift per pick.
        """
        pool: List[ScenarioKey] = [k for k in self.store.keys if k not in exclude]
        dead: Set[ScenarioKey] = set()
        budget = self.config.max_scenarios
        while active and len(dead) < len(pool):
            if budget is not None and result.scenarios_examined >= budget:
                break
            best_key: Optional[ScenarioKey] = None
            best_score = 0
            for key in pool:
                if key in dead:
                    continue
                result.scenarios_examined += 1
                self.clock.charge_e_scenarios(1)
                score = score_fn(key)
                if score > best_score:
                    best_key, best_score = key, score
                if budget is not None and result.scenarios_examined >= budget:
                    break
            if best_key is None:
                break
            dead.add(best_key)
            apply_fn(self.store.e_scenario(best_key))

    def _ordered_scenarios(
        self, exclude: FrozenSet[ScenarioKey]
    ) -> Iterable[EScenario]:
        """The store's E-Scenarios in the strategy's order, minus
        exclusions.  RANDOM's order is a seeded permutation of the
        store's (cell, tick) order."""
        store = self.store
        strategy = self.config.strategy
        ordered: Iterable[EScenario]
        if strategy is SelectionStrategy.SEQUENTIAL:
            ordered = store.e_scenarios()
        elif strategy is SelectionStrategy.RANDOM:
            scenarios = store.e_scenarios()
            order = np.random.default_rng(self.config.seed).permutation(
                len(scenarios)
            )
            ordered = map(scenarios.__getitem__, order.tolist())
        elif strategy is SelectionStrategy.RANDOM_TICK:
            ticks = list(store.ticks)
            rng = np.random.default_rng(self.config.seed)
            rng.shuffle(ticks)  # type: ignore[arg-type]
            ordered = (
                store.e_scenario(key)
                for tick in ticks
                for key in store.keys_at_tick(tick)
            )
        else:  # pragma: no cover - GREEDY handled by _run_greedy
            raise ValueError(f"unsupported streaming strategy {strategy}")
        if not exclude:
            return ordered
        return (e for e in ordered if e.key not in exclude)


def algorithm1_set_split(
    universe: Iterable[EID],
    scenarios: Sequence[EScenario],
    max_scenarios: Optional[int] = None,
) -> Tuple[List[ScenarioKey], EIDPartition]:
    """Faithful Algorithm 1 (ideal setting): universal set splitting.

    Starts from the one-set partition ``{U_eid}``, applies ``SplitBy``
    scenario by scenario in the given order, records each scenario that
    changes the partition, and stops when the partition has ``|U|``
    singletons or scenarios run out.

    Vague attributes are ignored (the ideal setting assumes none); use
    :func:`practical_universal_split` for vague-aware universal
    splitting.

    Returns:
        ``(recorded_keys, final_partition)``.
    """
    partition = EIDPartition(universe)
    recorded: List[ScenarioKey] = []
    n = len(partition.universe)
    examined = 0
    for e_scenario in scenarios:
        if partition.num_sets >= n:
            break
        if max_scenarios is not None and examined >= max_scenarios:
            break
        examined += 1
        splits = partition.split_by(
            frozenset(e_scenario.inclusive & partition.universe)
        )
        if splits:
            recorded.append(e_scenario.key)
    return recorded, partition


def practical_universal_split(
    universe: Iterable[EID],
    scenarios: Sequence[EScenario],
    max_scenarios: Optional[int] = None,
) -> Tuple[List[ScenarioKey], SeparationTracker]:
    """Vague-aware universal splitting (Theorems 4.3/4.4 semantics).

    Each scenario separates its inclusive EIDs from the EIDs confidently
    *outside* it (neither inclusive nor vague); vague EIDs stay on both
    sides of the split, so vague sightings never distinguish anybody.

    Returns:
        ``(recorded_keys, tracker)`` — a scenario is recorded iff it
        separated at least one previously-confusable pair.
    """
    tracker = SeparationTracker(sorted(set(universe)))
    universe_set = set(tracker.universe)
    recorded: List[ScenarioKey] = []
    examined = 0
    for e_scenario in scenarios:
        if tracker.num_distinguished() == len(universe_set):
            break
        if max_scenarios is not None and examined >= max_scenarios:
            break
        examined += 1
        inside = e_scenario.inclusive & universe_set
        outside = universe_set - e_scenario.inclusive - e_scenario.vague
        in_progress, out_progress = tracker.separate(inside, outside)
        if in_progress or out_progress:
            recorded.append(e_scenario.key)
    return recorded, tracker
