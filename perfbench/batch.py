"""``batch-paper``: offline labeling at the paper's Sec. VI shape.

Build the world several times (set-up), match 600 sampled targets once
cold, then repeat warm matches of the same targets until the run's
time is up.  Every match is scored against ground truth and must hit
the accuracy pinned for the world.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Optional

from common import (
    COVERAGE_FLOOR,
    TARGETS,
    Outcome,
    build_layers,
    build_worlds,
    instrument_matcher,
    median,
    paper_config,
    peak_rss_mb,
    percentile,
    registry_value,
    tail_facts,
    target_seed,
)
from spans import Instrumentation, Recorder

PINNED_PATH = Path(__file__).resolve().parent / "pinned_accuracy.json"

#: Warm matches the run always makes, however short ``seconds`` is.
MIN_WARM = 3


def pinned_accuracy() -> Dict[str, int]:
    """Correct matches out of ``TARGETS`` per target sample."""
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _v_counters() -> Dict[str, float]:
    return {
        "extracted": registry_value("ev_v_detections_extracted_total"),
        "comparisons": registry_value("ev_v_comparisons_total"),
        "hits": registry_value("ev_cache_hits_total", cache="features"),
        "misses": registry_value("ev_cache_misses_total", cache="features"),
    }


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in before}


def run(
    seed: int,
    seconds: float,
    trace: bool,
    config=None,
    targets: int = TARGETS,
    expected_correct: Optional[int] = None,
) -> Outcome:
    """One ``batch-paper`` run.

    ``config`` defaults to the paper-shape world; ``expected_correct``
    defaults to the accuracy pinned for the seed's target sample.
    """
    from repro.core.matcher import EVMatcher

    out = Outcome()
    if config is None:
        config = paper_config()
        expected_correct = pinned_accuracy().get(str(target_seed(seed)))
    out.check(
        expected_correct is not None,
        f"no pinned accuracy for target sample {target_seed(seed)}",
    )

    # -- set-up: the world build, repeated (traced runs trace them all;
    # four spans per build cost nothing next to a multi-second build).
    build_rec = Recorder()
    dataset, build_s = build_worlds(config, build_rec if trace else None)
    sample = dataset.sample_targets(targets, seed=target_seed(seed))
    truth = dataset.truth
    matcher = EVMatcher(dataset.store)

    def match_once():
        started = time.perf_counter()
        report = matcher.match(sample)
        score = report.score(truth)
        return time.perf_counter() - started, report, score

    # -- the measured window: one cold match, then warm ones.
    cold_rec, warm_rec = Recorder(), Recorder()
    counters = _v_counters()
    window_started = time.perf_counter()
    with Instrumentation(cold_rec) as inst:
        if trace:
            instrument_matcher(inst)
        with cold_rec.span("bench.match"):
            cold_s, reference, score = match_once()
    cold_counters = _delta(counters, _v_counters())
    reference_predictions = reference.predictions()
    scores = [score]
    warm_times, traced_times, untraced_times = [], [], []
    counters = _v_counters()
    while (
        len(warm_times) < MIN_WARM
        or time.perf_counter() - window_started < seconds
    ):
        traced_match = trace and len(warm_times) % 2 == 1
        with Instrumentation(warm_rec) as inst:
            if traced_match:
                instrument_matcher(inst)
                with warm_rec.span("bench.match"):
                    elapsed, report, score = match_once()
            else:
                elapsed, report, score = match_once()
        warm_times.append(elapsed)
        (traced_times if traced_match else untraced_times).append(elapsed)
        scores.append(score)
        out.check(
            report.predictions() == reference_predictions,
            "a warm match answered differently from the cold match",
        )
    window_s = time.perf_counter() - window_started
    warm_counters = _delta(counters, _v_counters())

    out.attempted = len(scores)
    accuracy = scores[0].correct / scores[0].total
    if expected_correct is not None:
        for score in scores:
            out.check(
                score.correct == expected_correct and score.total == targets,
                f"accuracy {score.correct}/{score.total} differs from the "
                f"pinned {expected_correct}/{targets}",
            )

    matched = targets * len(scores)
    out.end_to_end = {
        "setup_s": build_s,
        "throughput_per_s": matched / (cold_s + sum(warm_times)),
        "latency_p50_ms": median(warm_times) * 1e3,
        "latency_p90_ms": percentile(warm_times, 90) * 1e3,
        "accuracy": accuracy,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.facts.update(
        split_backend=_split_backend(matcher),
        target_seed=target_seed(seed),
        **tail_facts(warm_times),
        cold_match_s=cold_s,
        window_s=window_s,
        scenarios=len(dataset.store),
    )
    if trace:
        _layers(
            out, dataset, reference, build_rec, cold_rec, warm_rec,
            cold_counters, warm_counters, len(warm_times),
            traced_times, untraced_times,
        )
    return out


def _split_backend(matcher) -> str:
    from repro.core.accel import resolve_backend

    return resolve_backend(matcher.config.split.backend)


def _layers(
    out, dataset, reference, build_rec, cold_rec, warm_rec,
    cold_counters, warm_counters, warm_count, traced_times, untraced_times,
) -> None:
    split = warm_rec.get("e.split").durations
    vfilter = warm_rec.get("v.filter").durations
    match = warm_rec.get("match").durations
    lookups = warm_counters["hits"] + warm_counters["misses"]
    out.layer({
        **build_layers(build_rec, dataset),
        "e.split_s": median(split),
        "e.scenarios_examined": reference.scenarios_examined,
        "e.selected": reference.num_selected,
        "e.scenarios_per_eid": reference.avg_scenarios_per_eid,
        "v.filter_s": median(vfilter),
        "v.match_one_p99_us": percentile(
            warm_rec.get("v.match_one").durations, 99
        ) * 1e6,
        "v.filter_cold_s": cold_rec.get("v.filter").total_s,
        "v.detections_extracted": cold_counters["extracted"],
        "v.comparisons": warm_counters["comparisons"] / warm_count,
        "v.feature_cache_hit_rate": (
            warm_counters["hits"] / lookups if lookups else 0.0
        ),
        "match.other_s": median(
            [m - s - f for m, s, f in zip(match, split, vfilter)]
        ),
        "match.cold_s": cold_rec.get("match").total_s,
        "trace.overhead_ms": (
            median(traced_times) - median(untraced_times)
        ) * 1e3,
    })
    wall = covered = 0.0
    for rec, root in ((build_rec, "bench.build"), (cold_rec, "bench.match"),
                      (warm_rec, "bench.match")):
        root_s, layers_s = rec.self_time_under(root)
        wall += root_s
        covered += layers_s
    out.layer({"trace.wall_s": wall, "trace.coverage": covered / wall})
    out.check(
        covered / wall >= COVERAGE_FLOOR,
        f"layer self times cover {covered / wall:.1%} of the traced wall "
        f"time, below {COVERAGE_FLOOR:.0%}",
    )
    out.recorders.update(build=build_rec, cold=cold_rec, warm=warm_rec)
