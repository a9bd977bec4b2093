"""Performance kernels: the bounded V-stage caches.

Not a paper figure — this pins the service-scale claim of
``repro.core.caches``: a byte-budgeted ``VIDFilter`` keeps its peak
cache footprint under the configured budget while matching the
unbounded filter's results exactly.

Besides the assertions, every measurement lands in
``BENCH_kernels.json`` at the repo root (targets/sec for the filter hot
path, cache hit rates), so CI keeps a perf trajectory.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest
from conftest import emit

from repro.bench.reporting import render_rows, write_bench_artifact
from repro.core.set_splitting import SetSplitter
from repro.core.vid_filtering import FilterConfig, VIDFilter
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import build_dataset

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_trajectory():
    """Collect every measurement and write ``BENCH_kernels.json``."""
    yield
    if _RESULTS:
        write_bench_artifact(BENCH_PATH, _RESULTS)


@pytest.fixture(scope="module")
def small_world():
    """A detection-bearing world for the V-stage cache measurements."""
    return build_dataset(
        ExperimentConfig(
            num_people=120,
            cells_per_side=3,
            duration=600.0,
            sample_dt=10.0,
            warmup=100.0,
            seed=11,
        )
    )


def test_bounded_filter_budget_and_throughput(small_world):
    store = small_world.store
    targets = list(small_world.sample_targets(24, seed=1))
    split = SetSplitter(store).run(targets)

    unbounded = VIDFilter(store, FilterConfig())
    baseline = unbounded.match(split.evidence)

    budget = 256 * 1024
    bounded_cfg = FilterConfig(
        feature_cache_bytes=budget, membership_cache_bytes=budget
    )
    bounded = VIDFilter(store, bounded_cfg)
    started = time.perf_counter()
    results = bounded.match(split.evidence)
    elapsed = time.perf_counter() - started

    # Eviction may cost recomputes, never results.
    for target in targets:
        assert results[target].scenario_keys == baseline[target].scenario_keys
        assert results[target].chosen == baseline[target].chosen
        assert results[target].scores == baseline[target].scores

    report = bounded.cache_report()
    # The membership cache is the production pair table: targets
    # sharing scenario pairs read them from it.
    assert report["membership"]["hit_rate"] > 0
    for name, stats in report.items():
        assert stats["peak_bytes"] <= budget, (
            f"{name} cache peaked at {stats['peak_bytes']} bytes, "
            f"budget {budget}"
        )

    _RESULTS["filter"] = {
        "targets": len(targets),
        "budget_bytes": budget,
        "bounded_s": round(elapsed, 4),
        "targets_per_s": round(len(targets) / elapsed, 1),
        "caches": {
            name: {
                "hit_rate": round(stats["hit_rate"], 3),
                "evictions": stats["evictions"],
                "peak_bytes": stats["peak_bytes"],
            }
            for name, stats in report.items()
        },
    }
    emit(render_rows(
        f"bounded VID filtering — {len(targets)} targets, "
        f"{budget // 1024} KiB budgets",
        ("cache", "hit_rate", "evictions", "peak_bytes"),
        [
            {"cache": name, "hit_rate": round(stats["hit_rate"], 3),
             "evictions": stats["evictions"],
             "peak_bytes": stats["peak_bytes"]}
            for name, stats in report.items()
        ],
    ))
