"""High-level EV-Matching API with elastic matching sizes.

:class:`EVMatcher` is the public entry point downstream code should
use: point it at a :class:`~repro.sensing.scenarios.ScenarioStore` and
ask for a single EID, any subset, or the whole universe ("universal
labeling", Sec. I).  It runs the E stage (set splitting, with the
refining loop when configured), the V stage (VID filtering), and
returns a :class:`MatchReport` with the matches plus the exact
quantities the paper's evaluation reports: distinct selected scenarios,
average scenarios per EID, and simulated E/V stage times.

``EVMatcher.match_edp`` runs the EDP baseline through the identical V
stage and reporting, which is what makes the benchmark comparisons
apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.edp import EDPConfig, EDPMatcher
from repro.core.refining import RefiningConfig, RefiningMatcher, RefiningStats
from repro.core.set_splitting import SetSplitter, SplitConfig
from repro.core.vid_filtering import FilterConfig, MatchResult, VIDFilter
from repro.metrics.accuracy import AccuracyReport, accuracy_of
from repro.metrics.timing import CostModel, SimulatedClock, StageTimes
from repro.obs import (
    EvidenceItem,
    ProvenanceRecord,
    get_tracer,
    provenance_evidence_listening,
    provenance_listening,
    record_provenance,
)
from repro.sensing.scenarios import ScenarioStore
from repro.world.entities import EID, VID


@dataclass(frozen=True)
class MatcherConfig:
    """End-to-end configuration of one matcher instance.

    Attributes:
        split: E-stage configuration (set splitting).
        filter: V-stage configuration (VID filtering).
        refining: Algorithm 2 configuration; ``None`` runs a single
            E+V pass (the ideal-setting mode).
        edp: baseline configuration used by :meth:`EVMatcher.match_edp`.
        cost_model: per-operation simulated costs.
        parallelism: worker count used to convert accumulated serial
            work into reported stage times.  The MapReduce pipeline
            replaces this idealization with a scheduled makespan.
        use_exclusion: process targets easiest-first and suppress
            already-matched appearances when matching later targets
            (Sec. IV-A's reuse of matched VIDs).  Pays off for large /
            universal matching sizes; incompatible with the refining
            loop (which re-runs targets out of order).
    """

    split: SplitConfig = SplitConfig()
    filter: FilterConfig = FilterConfig()
    refining: Optional[RefiningConfig] = None
    edp: EDPConfig = EDPConfig()
    cost_model: CostModel = CostModel()
    parallelism: int = 1
    use_exclusion: bool = False

    def __post_init__(self) -> None:
        if self.parallelism <= 0:
            raise ValueError(f"parallelism must be positive, got {self.parallelism}")
        if self.use_exclusion and self.refining is not None:
            raise ValueError(
                "use_exclusion cannot be combined with the refining loop"
            )


@dataclass
class MatchReport:
    """One matching run's outputs and costs.

    Attributes:
        algorithm: ``"ss"`` (set splitting) or ``"edp"``.
        results: per-target V-stage outcome.
        num_selected: distinct scenarios selected by the E stage
            (Figs. 5/6 metric; reused scenarios counted once).
        avg_scenarios_per_eid: Fig. 7 metric.
        scenarios_examined: E-Scenarios inspected, effective or not.
        times: simulated stage times at the configured parallelism
            (Figs. 8/9 metric).
        refining: Algorithm 2 statistics when the loop ran.
    """

    algorithm: str
    targets: Tuple[EID, ...]
    results: Dict[EID, MatchResult]
    num_selected: int
    avg_scenarios_per_eid: float
    scenarios_examined: int
    times: StageTimes
    refining: Optional[RefiningStats] = None

    def predictions(self) -> Dict[EID, Optional[int]]:
        """Per-target predicted identity: the best detection's id
        (``None`` when the matcher came up empty)."""
        return {
            eid: (r.best.detection_id if r.best is not None else None)
            for eid, r in self.results.items()
        }

    def chosen_per_eid(self):
        """Adapter for :func:`repro.metrics.accuracy.accuracy_of`."""
        return {eid: r.chosen for eid, r in self.results.items()}

    def score(self, truth: Mapping[EID, VID]) -> AccuracyReport:
        """Accuracy of this run against ground truth."""
        return accuracy_of(self.chosen_per_eid(), truth, targets=list(self.targets))


class EVMatcher:
    """Single / multiple / universal EID-VID matching over one store."""

    def __init__(
        self,
        store: ScenarioStore,
        config: Optional[MatcherConfig] = None,
    ) -> None:
        self.store = store
        self.config = config if config is not None else MatcherConfig()

    # -- set splitting (the paper's algorithm) --------------------------
    def match(
        self,
        targets: Sequence[EID],
        universe: Optional[Sequence[EID]] = None,
    ) -> MatchReport:
        """Match ``targets`` with EID set splitting + VID filtering."""
        cfg = self.config
        clock = SimulatedClock(cfg.cost_model)
        with get_tracer().span(
            "match", algorithm="ss", targets=len(targets)
        ) as span:
            if cfg.refining is not None:
                matcher = RefiningMatcher(
                    self.store,
                    split_config=cfg.split,
                    filter_config=cfg.filter,
                    refining_config=cfg.refining,
                    clock=clock,
                )
                results, stats = matcher.run(targets, universe=universe)
                report = MatchReport(
                    algorithm="ss",
                    targets=tuple(targets),
                    results=results,
                    num_selected=stats.total_selected,
                    avg_scenarios_per_eid=_avg_evidence(results),
                    scenarios_examined=stats.scenarios_examined,
                    times=clock.times(cfg.parallelism),
                    refining=stats,
                )
            else:
                splitter = SetSplitter(self.store, cfg.split, clock)
                split = splitter.run(targets, universe=universe)
                vid_filter = VIDFilter(self.store, cfg.filter, clock)
                results = vid_filter.match(
                    split.evidence, use_exclusion=cfg.use_exclusion
                )
                report = MatchReport(
                    algorithm="ss",
                    targets=tuple(targets),
                    results=results,
                    num_selected=split.num_selected,
                    avg_scenarios_per_eid=split.avg_scenarios_per_eid,
                    scenarios_examined=split.scenarios_examined,
                    times=clock.times(cfg.parallelism),
                )
                candidates = {
                    eid: len(members)
                    for eid, members in split.candidates.items()
                }
            span.set(**report_args(report))
        record_report_provenance(
            report,
            store=self.store,
            candidates=None if cfg.refining is not None else candidates,
        )
        return report

    def match_one(
        self,
        target: EID,
        universe: Optional[Sequence[EID]] = None,
    ) -> MatchResult:
        """Single-EID matching (the smallest elastic size)."""
        return self.match([target], universe=universe).results[target]

    def match_universal(
        self, universe: Optional[Sequence[EID]] = None
    ) -> MatchReport:
        """Universal labeling: match every EID observed in the store."""
        if universe is None:
            universe = sorted(self.store.eid_universe)
        return self.match(list(universe), universe=universe)

    # -- EDP baseline ----------------------------------------------------
    def match_edp(
        self,
        targets: Sequence[EID],
        universe: Optional[Sequence[EID]] = None,
    ) -> MatchReport:
        """Match ``targets`` with the EDP baseline, same V stage."""
        cfg = self.config
        clock = SimulatedClock(cfg.cost_model)
        with get_tracer().span(
            "match", algorithm="edp", targets=len(targets)
        ) as span:
            with get_tracer().span("e.edp", targets=len(targets)):
                edp = EDPMatcher(self.store, cfg.edp, clock)
                e_result = edp.run(targets, universe=universe)
            vid_filter = VIDFilter(self.store, cfg.filter, clock)
            results = vid_filter.match(e_result.evidence)
            report = MatchReport(
                algorithm="edp",
                targets=tuple(targets),
                results=results,
                num_selected=e_result.num_selected,
                avg_scenarios_per_eid=e_result.avg_scenarios_per_eid,
                scenarios_examined=e_result.scenarios_examined,
                times=clock.times(cfg.parallelism),
            )
            span.set(**report_args(report))
        record_report_provenance(report, store=self.store)
        return report


#: Evidence items kept per provenance record (audits need examples,
#: not a universal target's full list).
MAX_PROVENANCE_EVIDENCE = 8


def provenance_of(
    algorithm: str,
    results: Mapping[EID, MatchResult],
    store: Optional[ScenarioStore] = None,
    candidates: Optional[Mapping[EID, int]] = None,
    include_evidence: bool = True,
) -> Tuple[ProvenanceRecord, ...]:
    """Build per-match "why this EID→VID" records from V-stage results.

    The per-candidate score map aggregates each chosen detection's
    probability product under its true VID (the best score wins), so
    the argmax of ``scores`` is the predicted VID and the runners-up
    show how contested the decision was.  ``candidates`` carries the
    E stage's final candidate-set sizes when the caller has them.

    ``include_evidence=False`` skips the per-scenario evidence list
    (see :func:`repro.obs.provenance_evidence_listening`) — the
    serving path's records keep the decision (prediction, agreement,
    scores) without the per-scenario audit detail.
    """
    records = []
    for eid in sorted(results.keys()):
        result = results[eid]
        best = result.best
        scores: Dict[int, float] = {}
        for detection, score in zip(result.chosen, result.scores):
            vid = detection.true_vid
            if vid is not None:
                scores[vid.index] = max(
                    scores.get(vid.index, 0.0), float(score)
                )
        evidence = []
        for i, key in enumerate(
            result.scenario_keys[:MAX_PROVENANCE_EVIDENCE]
            if include_evidence
            else ()
        ):
            chosen = result.chosen[i] if i < len(result.chosen) else None
            detections = (
                len(store.v_scenario(key)) if store is not None else 0
            )
            evidence.append(
                EvidenceItem(
                    cell_id=key.cell_id,
                    tick=key.tick,
                    detections=detections,
                    claimed=(
                        best is not None
                        and chosen is not None
                        and chosen.true_vid == best.true_vid
                    ),
                )
            )
        records.append(
            ProvenanceRecord(
                eid_index=eid.index,
                eid_mac=eid.mac,
                algorithm=algorithm,
                predicted_vid=(
                    None
                    if best is None or best.true_vid is None
                    else best.true_vid.index
                ),
                agreement=result.agreement,
                scenarios_used=len(result.scenario_keys),
                scores=scores,
                evidence=tuple(evidence),
                candidates_remaining=(
                    None if candidates is None else candidates.get(eid)
                ),
            )
        )
    return tuple(records)


def report_args(report) -> Dict[str, float]:
    """The ``match`` span's closing attributes for a local or MapReduce
    report: its selection counts and simulated stage seconds (which
    the stage catalogue accumulates into
    ``ev_simulated_stage_seconds_total``)."""
    args: Dict[str, float] = {
        "num_selected": report.num_selected,
        "scenarios_examined": report.scenarios_examined,
    }
    for stage, seconds in report.times.as_dict().items():
        args[f"sim_{stage}_s"] = seconds
    return args


def record_report_provenance(
    report,
    store: Optional[ScenarioStore] = None,
    candidates: Optional[Mapping[EID, int]] = None,
) -> None:
    """Record a local or MapReduce run's provenance records when a run
    or event audience exists."""
    if provenance_listening():
        record_provenance(
            provenance_of(
                report.algorithm,
                report.results,
                store=store,
                candidates=candidates,
                include_evidence=provenance_evidence_listening(),
            )
        )


def _avg_evidence(results: Mapping[EID, MatchResult]) -> float:
    """Mean processed-scenario count over targets."""
    if not results:
        return 0.0
    return sum(len(r.scenario_keys) for r in results.values()) / len(results)
