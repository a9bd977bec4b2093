"""Performance kernels: the V stage's filter hot path.

Not a paper figure — one cold ``VIDFilter.match`` on a small world,
filling the shared pair table and scoring every target from it.  The
measurement lands in ``BENCH_kernels.json`` at the repo root
(targets/sec for the filter hot path), so CI keeps a perf trajectory
and the regression sentinel judges ``filter.targets_per_s``.
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
    """A detection-bearing world for the V-stage measurement."""
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


def test_filter_throughput(small_world):
    store = small_world.store
    targets = list(small_world.sample_targets(24, seed=1))
    split = SetSplitter(store).run(targets)

    vid_filter = VIDFilter(store, FilterConfig())
    started = time.perf_counter()
    results = vid_filter.match(split.evidence)
    elapsed = time.perf_counter() - started

    # Targets sharing scenario pairs read them from the one pair table.
    assert all(not results[target].is_empty for target in targets)
    pairs = sum(len(row) for row in vid_filter._pairs.values())
    assert pairs > 0

    _RESULTS["filter"] = {
        "targets": len(targets),
        "filter_s": round(elapsed, 4),
        "targets_per_s": round(len(targets) / elapsed, 1),
        "ordered_pairs": pairs,
    }
    emit(render_rows(
        f"VID filtering — {len(targets)} targets",
        ("targets", "filter_s", "targets_per_s", "ordered_pairs"),
        [_RESULTS["filter"]],
    ))
