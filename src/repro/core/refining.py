"""Matching refining — Algorithm 2 (paper Sec. IV-C.4).

Under the practical settings (especially VID missing) a single
E-stage + V-stage pass may produce matches whose chosen detections
disagree with each other.  Algorithm 2 loops: collect the EIDs whose
match is not acceptable, run EID set splitting again *on fresh
scenarios* for exactly those EIDs, extend their evidence lists, and
re-filter — "until it is acceptable".

Acceptability is judged without ground truth via
:meth:`~repro.core.vid_filtering.MatchResult.is_acceptable`: the
fraction of the chosen detections that mutually agree (by appearance
similarity) must reach ``min_agreement``.  If refining stalls — no
fresh scenarios help — the loop stops and reports the stubborn EIDs,
which is where the paper concedes "human intervention may be required".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.set_splitting import SetSplitter, SplitConfig
from repro.core.vid_filtering import FilterConfig, MatchResult, VIDFilter
from repro.metrics.timing import SimulatedClock
from repro.obs import get_tracer
from repro.sensing.scenarios import ScenarioKey, ScenarioStore
from repro.world.entities import EID


@dataclass(frozen=True)
class RefiningConfig:
    """Refining-loop knobs.

    Attributes:
        max_rounds: total passes including the first (1 disables
            refining entirely).
    """

    max_rounds: int = 3

    def __post_init__(self) -> None:
        if self.max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {self.max_rounds}")


@dataclass
class RefiningStats:
    """What the loop did, for the ablation bench and reports."""

    rounds: int = 0
    refined_per_round: List[int] = field(default_factory=list)
    total_selected: int = 0
    scenarios_examined: int = 0
    stubborn: FrozenSet[EID] = frozenset()


class RefiningMatcher:
    """Algorithm 2: iterate set splitting + VID filtering to acceptance."""

    def __init__(
        self,
        store: ScenarioStore,
        split_config: Optional[SplitConfig] = None,
        filter_config: Optional[FilterConfig] = None,
        refining_config: Optional[RefiningConfig] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        self.store = store
        self.split_config = split_config if split_config is not None else SplitConfig()
        self.filter_config = (
            filter_config if filter_config is not None else FilterConfig()
        )
        self.refining_config = (
            refining_config if refining_config is not None else RefiningConfig()
        )
        self.clock = clock if clock is not None else SimulatedClock()

    def run(
        self,
        targets: Sequence[EID],
        universe: Optional[Sequence[EID]] = None,
    ) -> Tuple[Dict[EID, MatchResult], RefiningStats]:
        """Match ``targets``, refining unacceptable matches round by round."""
        stats = RefiningStats()
        vid_filter = VIDFilter(self.store, self.filter_config, self.clock)
        results: Dict[EID, MatchResult] = {}
        used_keys: Set[ScenarioKey] = set()
        pending: List[EID] = list(targets)

        tracer = get_tracer()
        for round_index in range(self.refining_config.max_rounds):
            if not pending:
                break
            stats.rounds += 1
            stats.refined_per_round.append(len(pending))
            before = vid_filter.work()
            with tracer.span(
                "e.refine.round", round=round_index, pending=len(pending)
            ) as round_span:
                splitter = SetSplitter(
                    self.store,
                    replace(self.split_config, seed=self.split_config.seed + round_index),
                    self.clock,
                )
                split = splitter.run(
                    pending, universe=universe, exclude=frozenset(used_keys)
                )
                stats.total_selected += split.num_selected
                stats.scenarios_examined += split.scenarios_examined
                used_keys.update(split.recorded)

                progressed = False
                for target in pending:
                    fresh = split.evidence.get(target, [])
                    if not fresh:
                        continue  # keep the previous round's match, if any
                    progressed = True
                    # Each round's product runs over *fresh* scenarios only
                    # (a scenario whose V side misses the target poisons
                    # every product it participates in, so extending a
                    # poisoned list cannot repair it); the rounds' chosen
                    # detections then vote together.
                    candidate = vid_filter.match_one(target, fresh)
                    previous = results.get(target)
                    if previous is None or previous.is_empty:
                        results[target] = candidate
                    else:
                        results[target] = vid_filter.pool(previous, candidate)
                pending = [
                    t
                    for t in pending
                    if t not in results
                    or not results[t].is_acceptable(self.filter_config)
                ]
                # The loop drives match_one directly (bypassing
                # VIDFilter.match), so the round carries its V work.
                round_span.set(
                    selected=split.num_selected,
                    examined=split.scenarios_examined,
                    unresolved=len(pending),
                    progressed=progressed,
                    **vid_filter.work_since(before),
                )
            if not progressed:
                break  # no fresh scenarios exist for the stragglers

        for target in targets:
            if target not in results:
                results[target] = MatchResult(
                    eid=target,
                    scenario_keys=(),
                    chosen=(),
                    scores=(),
                    agreement=0.0,
                )
        stats.stubborn = frozenset(pending)
        return results, stats
