"""VID filtering — the V stage (paper Sec. IV-B.2, Eq. 1).

Given each target EID's positive scenario list from the E stage, the V
stage processes *only* those V-Scenarios:

1. **Extraction** — detect human figures and extract appearance
   features in every distinct selected V-Scenario.  This is the
   dominant cost; a scenario shared by many EIDs is extracted once
   (the reuse that makes SS cheaper than EDP).
2. **Scoring** — for a candidate detection ``d`` and a scenario ``S``,
   ``P(d in S) = max over detections d' in S of sim(d, d')`` with
   ``sim = 1 - dist`` (Eq. 1); the candidate's probability of being the
   target's VID is the product over the target's scenario list
   (Sec. IV-B.2, following [24]).
3. **Choice** — "in every scenario, we choose the VID with the largest
   probability to be VID* as the final result": one chosen detection
   per scenario; the accuracy metric applies the majority criterion to
   these choices and the reported match is the highest-scoring one.

The per-pair membership vectors ``m(a, b)`` live in one table shared by
every target: a batch computes each scenario pair's dot block once, for
both directions, however many targets list the pair, and scores every
target straight from the table.  The *simulated*
comparison cost is still charged per target (the paper's Spark design
compares features inside one mapper per EID, so cross-EID comparison
reuse does not happen there — "this results in more comparisons of VID
features in the V stage of our algorithm").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.topology.matching import TopologyConfig

from repro.core.blas import one_blas_thread
from repro.metrics.timing import SimulatedClock
from repro.obs import get_event_log, get_tracer
from repro.obs import events as ev
from repro.sensing.scenarios import Detection, ScenarioKey, ScenarioStore, VScenario
from repro.world.entities import EID


@dataclass(frozen=True)
class FilterConfig:
    """V-stage knobs.

    Attributes:
        max_evidence: cap on how many scenarios of a target's list are
            actually processed (None = all).  Lets callers trade
            accuracy for V time; the headline benchmarks use None.
        agreement_threshold: similarity above which two chosen
            detections are considered the same person when judging a
            match's self-consistency (ground-truth-free, used by the
            refining loop's acceptability test).
        min_agreement: minimum fraction of a target's chosen detections
            that must mutually agree for the match to be *acceptable*
            to Algorithm 2.  The default is deliberately strict: a match
            whose choices only barely agree is worth a second, fresh
            pass, because pooling two passes' votes is cheap insurance
            against a round poisoned by missed detections.
        exclusion_threshold: similarity above which a candidate
            detection is considered the same person as an
            already-matched VID and suppressed when matching *other*
            EIDs (the paper's reuse of matched VIDs: "VIDs that have
            been already matched may help distinguishing those remain
            unmatched", Sec. IV-A).  Only used by
            :meth:`VIDFilter.match` with ``use_exclusion=True``.
        topology: a fitted
            :class:`~repro.topology.matching.TopologyConfig`, or
            ``None`` (the default: topology-blind matching, exactly the
            paper's V stage).  When set, majority-inconsistent evidence
            is dropped before feature comparison
            (``topology.prune``) and Eq. 1 score vectors are multiplied
            by per-scenario transit-consistency weights
            (``topology.prior``).
    """

    max_evidence: Optional[int] = None
    agreement_threshold: float = 0.6
    min_agreement: float = 0.75
    exclusion_threshold: float = 0.62
    topology: Optional["TopologyConfig"] = None

    def __post_init__(self) -> None:
        if self.max_evidence is not None and self.max_evidence <= 0:
            raise ValueError(
                f"max_evidence must be positive or None, got {self.max_evidence}"
            )
        if not 0.0 < self.agreement_threshold < 1.0:
            raise ValueError(
                f"agreement_threshold must be in (0, 1), got {self.agreement_threshold}"
            )
        if not 0.0 < self.min_agreement <= 1.0:
            raise ValueError(
                f"min_agreement must be in (0, 1], got {self.min_agreement}"
            )
        if not 0.0 < self.exclusion_threshold < 1.0:
            raise ValueError(
                f"exclusion_threshold must be in (0, 1), got {self.exclusion_threshold}"
            )
        if self.topology is not None and not hasattr(self.topology, "model"):
            raise ValueError(
                f"topology must be a TopologyConfig or None, "
                f"got {self.topology!r}"
            )


@dataclass
class MatchResult:
    """Outcome of VID filtering for one EID.

    Attributes:
        eid: the matched target.
        scenario_keys: the scenarios actually processed (the target's
            evidence list, minus detection-less scenarios, truncated to
            ``max_evidence``).
        chosen: the per-scenario chosen detections, aligned with
            ``scenario_keys``.
        scores: each chosen detection's probability product.
        agreement: fraction of chosen detections agreeing with the
            plurality cluster (computed without ground truth).
    """

    eid: EID
    scenario_keys: Tuple[ScenarioKey, ...]
    chosen: Tuple[Detection, ...]
    scores: Tuple[float, ...]
    agreement: float

    @property
    def is_empty(self) -> bool:
        """True when no scenario offered any detection to choose."""
        return not self.chosen

    @property
    def best(self) -> Optional[Detection]:
        """The reported VID: the highest-scoring chosen detection."""
        if not self.chosen:
            return None
        return self.chosen[int(np.argmax(self.scores))]

    def is_acceptable(self, config: FilterConfig) -> bool:
        """Algorithm 2's acceptability test, without ground truth."""
        if self.is_empty:
            return False
        return self.agreement >= config.min_agreement


def similarity(dots: np.ndarray) -> np.ndarray:
    """Eq. 1's ``sim = 1 - |f - f'| / 2`` of unit-norm features, from
    their dot products (``|f - f'|^2 = 2 - 2 f.f'``).

    Every step is monotone and correctly rounded, so ``similarity`` is
    non-decreasing in ``dots`` in floating point too:
    ``similarity(dots.max()) == similarity(dots).max()`` exactly.
    Callers take maxima over dot products first and convert only the
    winners.
    """
    return 1.0 - np.sqrt(np.maximum(2.0 - 2.0 * dots, 0.0)) / 2.0


def membership_vector(features_a: np.ndarray, features_b: np.ndarray) -> np.ndarray:
    """``P(d in S_b)`` for every detection ``d`` of scenario ``a``.

    Eq. 1 over unit-norm features: the membership probability takes the
    best-matching detection of ``b``.
    """
    if features_a.size == 0:
        return np.zeros(0)
    if features_b.size == 0:
        return np.zeros(features_a.shape[0])
    return similarity((features_a @ features_b.T).max(axis=1))


def agreement_of(chosen: Sequence[Detection], threshold: float) -> float:
    """Plurality agreement among chosen detections, by similarity.

    Two choices "agree" when their similarity reaches ``threshold``;
    the score is the largest agreement neighborhood's size over the
    number of choices.  Uses no ground truth, so Algorithm 2 can gate
    on it in production.
    """
    return _agreement([d.feature for d in chosen], threshold)


def _agreement(rows: Sequence[np.ndarray], threshold: float) -> float:
    """:func:`agreement_of` over the chosen detections' feature rows."""
    if not rows:
        return 0.0
    if len(rows) == 1:
        return 1.0
    features = np.array(rows)
    sims = similarity(features @ features.T)
    agree_counts = (sims >= threshold).sum(axis=1)
    return float(agree_counts.max()) / len(rows)


class VIDFilter:
    """The V stage: from per-EID scenario lists to matched detections."""

    def __init__(
        self,
        store: ScenarioStore,
        config: Optional[FilterConfig] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        self.store = store
        self.config = config if config is not None else FilterConfig()
        self.clock = clock if clock is not None else SimulatedClock()
        self._extracted: Set[int] = set()  # per-filter scenario ids
        # The pair table: _pairs[a][b] is m(a, b) for dense per-filter
        # scenario ids, a view into the fill block that computed it.
        self._pairs: Dict[int, Dict[int, np.ndarray]] = {}
        self._ids: Dict[ScenarioKey, int] = {}
        self._scenarios: List[VScenario] = []  # by id
        self._pruner = self._prior = None
        if self.config.topology is not None:
            # Imported here, not at module top: core must stay importable
            # without the topology package in the dependency picture
            # unless a caller actually opts in.
            from repro.topology.matching import ReachabilityPruner, TransitionPrior

            topo = self.config.topology
            if topo.prune:
                self._pruner = ReachabilityPruner(topo.model)
            if topo.prior:
                self._prior = TransitionPrior(topo.model, topo.prior_weight)
        # Cumulative topology decisions (see topology_report()).
        self._topology_counts: Dict[str, int] = {
            "pruned": 0, "kept": 0, "downweighted": 0,
        }

    def match(
        self,
        evidence: Mapping[EID, Sequence[ScenarioKey]],
        use_exclusion: bool = False,
    ) -> Dict[EID, MatchResult]:
        """Run VID filtering for every target in ``evidence``.

        Extraction is charged once per distinct scenario across all
        targets (frame reuse); comparisons are charged per target.
        Every target's evidence is planned once and its pairs computed
        up front, in bulk, so a pair shared by many targets costs host
        time once; each target is then scored from the pair table.

        With ``use_exclusion=True`` the targets are processed from the
        shortest evidence list up (the analog of the correctness
        proof's post-order traversal, Sec. IV-D), and each confidently
        matched appearance is *claimed*: later targets' candidate
        detections that look like a claimed person are suppressed —
        "VIDs that have been already matched may help distinguishing
        those remain unmatched" (Sec. IV-A).
        """
        results: Dict[EID, MatchResult] = {}
        before = self.work()
        with get_tracer().span(
            "v.filter", targets=len(evidence), exclusion=use_exclusion
        ) as span:
            plans = {eid: self._evidence(keys) for eid, keys in evidence.items()}
            ids = {eid: self._ids_of(plan[0]) for eid, plan in plans.items()}
            self._fill(ids.values())
            if not use_exclusion:
                for eid in sorted(evidence.keys()):
                    results[eid] = self._decide(eid, plans[eid], ids[eid])
            else:
                claimed: List[np.ndarray] = []
                order = sorted(
                    evidence.keys(), key=lambda e: (len(evidence[e]), e)
                )
                for eid in order:
                    result = self._decide(eid, plans[eid], ids[eid], claimed)
                    results[eid] = result
                    centroid = self._claim_centroid(result)
                    if centroid is not None:
                        claimed.append(centroid)
            span.set(**self.work_since(before))
        return results

    def work(self) -> Dict[str, int]:
        """Cumulative V work, topology decisions included when on."""
        work = {
            "detections_extracted": self.clock.detections_extracted,
            "comparisons": self.clock.comparisons,
        }
        if self.config.topology is not None:
            for name, count in self._topology_counts.items():
                work[f"topology_{name}"] = count
        return work

    def work_since(self, before: Mapping[str, int]) -> Dict[str, int]:
        """The work since a :meth:`work` snapshot, as span attributes."""
        return {key: value - before[key] for key, value in self.work().items()}

    def match_one(
        self,
        eid: EID,
        scenario_keys: Sequence[ScenarioKey],
        claimed: Optional[Sequence[np.ndarray]] = None,
    ) -> MatchResult:
        """Run VID filtering for a single target.

        ``claimed`` holds appearance centroids of already-matched
        people; candidate detections closer than ``exclusion_threshold``
        to any of them are suppressed (unless that would leave a
        scenario with no candidate at all).
        """
        plan = self._evidence(scenario_keys)
        ids = self._ids_of(plan[0])
        self._fill([ids])
        return self._decide(eid, plan, ids, claimed)

    def _decide(
        self,
        eid: EID,
        plan: Tuple[List[ScenarioKey], List[ScenarioKey], List[ScenarioKey]],
        ids: List[int],
        claimed: Optional[Sequence[np.ndarray]] = None,
    ) -> MatchResult:
        """Score one target whose pairs are in the table, recording the
        topology decisions and events of its :meth:`_evidence` plan."""
        keys, detectionless, dropped = plan
        log = get_event_log()
        if log.debug:
            for key in detectionless:
                log.emit(
                    ev.V_SCENARIO_DROPPED,
                    eid=eid.index,
                    cell_id=key.cell_id,
                    tick=key.tick,
                    reason="no_detections",
                )
        if self._pruner is not None and keys:
            self._topology_counts["pruned"] += len(dropped)
            self._topology_counts["kept"] += len(keys)
            if dropped:
                log.emit(
                    ev.V_TOPOLOGY_PRUNED,
                    eid=eid.index,
                    mac=eid.mac,
                    dropped=len(dropped),
                    kept=len(keys),
                )
        if not keys:
            if log.debug:
                log.emit(
                    ev.V_MATCH_DECIDED,
                    eid=eid.index,
                    mac=eid.mac,
                    predicted_vid=None,
                    scenarios=0,
                    agreement=0.0,
                )
            return MatchResult(
                eid=eid, scenario_keys=(), chosen=(), scores=(), agreement=0.0
            )
        with get_tracer().span("v.match_one", eid=eid.index, evidence=len(keys)):
            result = self._choose(eid, keys, ids, claimed)
        if log.debug:
            best = result.best
            log.emit(
                ev.V_MATCH_DECIDED,
                eid=eid.index,
                mac=eid.mac,
                predicted_vid=None if best is None else best.true_vid,
                scenarios=len(result.scenario_keys),
                agreement=result.agreement,
                best_score=None if not result.scores else max(result.scores),
            )
        return result

    def _choose(
        self,
        eid: EID,
        keys: List[ScenarioKey],
        ids: List[int],
        claimed: Optional[Sequence[np.ndarray]] = None,
    ) -> MatchResult:
        """Each scenario's most probable detection: its Eq. 1 score,
        times the topology prior, minus claimed appearances.

        Extraction is charged the first time a target's scoring uses a
        scenario (the modeled cost; the features themselves live on the
        scenario).
        """
        scenarios = [self._scenarios[i] for i in ids]
        for scenario_id, scenario in zip(ids, scenarios):
            if scenario_id not in self._extracted:
                self.clock.charge_extraction(len(scenario))
                self._extracted.add(scenario_id)
        vectors = self._score_vectors(ids, [len(s) for s in scenarios])
        weights = self._topology_weights(keys)
        centroids = np.stack(list(claimed)) if claimed else None
        chosen: List[Detection] = []
        scores: List[float] = []
        rows: List[np.ndarray] = []
        for i, (scenario, score_vec) in enumerate(zip(scenarios, vectors)):
            features = scenario.features
            if weights is not None:
                score_vec = score_vec * weights[i]
            if centroids is not None:
                score_vec = self._suppress_claimed(features, score_vec, centroids)
            winner = int(score_vec.argmax())
            chosen.append(scenario.detection(winner))
            scores.append(float(score_vec[winner]))
            rows.append(features[winner])
        return MatchResult(
            eid=eid,
            scenario_keys=tuple(keys),
            chosen=tuple(chosen),
            scores=tuple(scores),
            agreement=_agreement(rows, self.config.agreement_threshold),
        )

    def _score_vectors(
        self, ids: Sequence[int], sizes: Sequence[int]
    ) -> List[np.ndarray]:
        """Per scenario of ``ids`` (of ``sizes`` detections): each
        detection's probability product over the other scenarios'
        memberships (Eq. 1), taken in evidence order, read from the pair
        table.

        Comparisons are charged per target and ordered pair, as the
        target's own mapper makes them (Sec. V-C), even when the pair
        came from the shared table.
        """
        pairs = self._pairs
        charge = self.clock.charge_comparisons
        vectors: List[np.ndarray] = []
        for a, size_a in zip(ids, sizes):
            row = pairs.get(a)
            factors = [row[b] for b in ids if b != a]
            # The product starts at the first factor (1.0 * x == x
            # exactly), not at a vector of ones.
            score_vec = factors[0].copy() if factors else np.ones(size_a)
            for factor in factors[1:]:
                score_vec *= factor
            for b, size_b in zip(ids, sizes):
                if b != a:
                    charge(size_a * size_b)
            vectors.append(score_vec)
        return vectors

    def _ids_of(self, keys: Sequence[ScenarioKey]) -> List[int]:
        """Dense per-filter scenario ids: the pair table is keyed by
        ids, which hash far faster than keys."""
        ids: List[int] = []
        for key in keys:
            scenario_id = self._ids.get(key)
            if scenario_id is None:
                scenario_id = self._ids[key] = len(self._scenarios)
                self._scenarios.append(self.store.v_scenario(key))
            ids.append(scenario_id)
        return ids

    def _fill(self, id_lists: Iterable[Sequence[int]]) -> None:
        """Put ``m(a, b)`` in the pair table for every ordered pair of
        distinct scenarios within each of ``id_lists``.

        The missing pairs are filled scenario by scenario.  One matmul
        of ``a``'s features against every missing partner ``b > a``
        stacked gives a dot block whose row-segment maxima are
        ``m(a, b)`` and whose column maxima are ``m(b, a)``, so each
        pair is computed once, for both directions.  Maxima are taken
        over dot products and only they go through :func:`similarity`.
        The table keeps views into the two result arrays, not copies.
        """
        pairs = self._pairs
        partners: Dict[int, Set[int]] = {}
        for ids in id_lists:
            for a in ids:
                known = pairs.get(a, ())
                for b in ids:
                    if a < b and b not in known:
                        partners.setdefault(a, set()).add(b)
        if not partners:
            return
        with one_blas_thread:
            for a in sorted(partners):
                others = sorted(partners[a])
                feats = [self._features_of(b) for b in others]
                sizes = [f.shape[0] for f in feats]
                starts = np.cumsum([0] + sizes[:-1])
                dots = self._features_of(a) @ np.concatenate(feats).T
                rows = similarity(np.maximum.reduceat(dots, starts, axis=1).T)
                cols = similarity(dots.max(axis=0))
                row_a = pairs.setdefault(a, {})
                for b, row, lo, size in zip(others, rows, starts.tolist(), sizes):
                    row_a[b] = row
                    pairs.setdefault(b, {})[a] = cols[lo: lo + size]

    def _features_of(self, scenario_id: int) -> np.ndarray:
        """The feature matrix of a scenario, by per-filter id."""
        return self._scenarios[scenario_id].features

    def _topology_weights(self, keys: Sequence[ScenarioKey]) -> Optional[np.ndarray]:
        """Per-scenario transit-consistency multipliers, or ``None``.

        A weight below 1.0 counts the scenario as downweighted in
        :meth:`topology_report`.
        """
        if self._prior is None:
            return None
        weights = self._prior.weights(list(keys))
        self._topology_counts["downweighted"] += int((weights < 1.0).sum())
        return weights

    def topology_report(self) -> Dict[str, int]:
        """Cumulative topology decisions: scenarios pruned before
        comparison, scenarios kept after pruning, and scenarios the
        transition prior downweighted."""
        return dict(self._topology_counts)

    def _suppress_claimed(
        self,
        features: np.ndarray,
        score_vec: np.ndarray,
        centroids: np.ndarray,
    ) -> np.ndarray:
        """Zero out candidates that look like an already-matched person."""
        self.clock.charge_comparisons(features.shape[0] * centroids.shape[0])
        best = membership_vector(features, centroids)
        mask = best >= self.config.exclusion_threshold
        if mask.all():
            return score_vec  # suppressing everyone would be nonsense
        suppressed = score_vec.copy()
        suppressed[mask] = 0.0
        return suppressed

    def _claim_centroid(self, result: MatchResult) -> Optional[np.ndarray]:
        """Centroid of a confident match's agreeing choices, or None.

        Only self-consistent matches claim an appearance — claiming on
        a shaky match would suppress the *right* person for later
        targets, cascading one error into many.
        """
        if result.is_empty or not result.is_acceptable(self.config):
            return None
        features = np.stack([d.feature for d in result.chosen])
        centroid = features.mean(axis=0)
        norm = np.linalg.norm(centroid)
        if norm == 0.0:
            return None
        return centroid / norm

    def pool(self, first: MatchResult, second: MatchResult) -> MatchResult:
        """Merge two rounds' matches for one EID (Algorithm 2 pooling).

        The chosen detections of both rounds vote together: per-round
        failures come from correlated evidence (one missed detection
        poisons every product of its round), so pooling independent
        rounds is what actually repairs them.  Agreement is recomputed
        over the combined choices.
        """
        if first.eid != second.eid:
            raise ValueError(
                f"cannot pool results for different EIDs: "
                f"{first.eid} vs {second.eid}"
            )
        chosen = first.chosen + second.chosen
        return MatchResult(
            eid=first.eid,
            scenario_keys=first.scenario_keys + second.scenario_keys,
            chosen=chosen,
            scores=first.scores + second.scores,
            agreement=agreement_of(chosen, self.config.agreement_threshold),
        )

    # ------------------------------------------------------------------
    def _evidence(
        self, scenario_keys: Sequence[ScenarioKey]
    ) -> Tuple[List[ScenarioKey], List[ScenarioKey], List[ScenarioKey]]:
        """``(keys, detectionless, pruned)``: the evidence to score.

        Duplicate and detection-less scenarios are dropped and the cap
        applied; then the topology pruner (if any) drops
        majority-inconsistent evidence.  A V-Scenario with no detections
        offers no VID to choose and would zero out every candidate's
        product, so it is unusable evidence (this happens under heavy
        VID missing).  Pure: :meth:`_decide` records the decisions.
        """
        keys: List[ScenarioKey] = []
        detectionless: List[ScenarioKey] = []
        for key in dict.fromkeys(scenario_keys):
            if len(self.store.v_scenario(key)) > 0:
                keys.append(key)
            else:
                detectionless.append(key)
        if self.config.max_evidence is not None:
            keys = keys[: self.config.max_evidence]
        pruned: List[ScenarioKey] = []
        if self._pruner is not None and keys:
            keys, pruned = self._pruner.prune(keys)
        return keys, detectionless, pruned

    @property
    def scenarios_extracted(self) -> int:
        """Distinct V-Scenarios extracted so far (the reuse metric)."""
        return len(self._extracted)
