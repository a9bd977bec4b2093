"""Performance kernels: accelerated E stage vs the Python reference,
and the bounded V-stage caches.

Not a paper figure — this pins the service-scale claims of
``repro.core.accel`` / ``repro.core.caches``:

* a universal split over a 2048-EID synthetic store runs at least
  100x faster on the best available kernel backend (``bitset``, or
  ``numba`` when installed) than on the pure-Python reference, with
  byte-identical results;
* a 65,536-EID store (1024 words per row) sustains a floor of
  examined scenarios per second on the best available backend;
* a byte-budgeted ``VIDFilter`` keeps its peak cache footprint under
  the configured budget while matching the unbounded filter's results
  exactly.

Besides the assertions, every measurement lands in
``BENCH_kernels.json`` at the repo root (ops/sec for the split and
filter hot paths, cache hit rates), so CI keeps a perf trajectory.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest
from conftest import emit

from repro.bench.reporting import render_rows, write_bench_artifact
from repro.core.accel import AUTO_BACKEND, matrix_for, resolve_backend
from repro.core.matcher import EVMatcher, MatcherConfig
from repro.core.set_splitting import SelectionStrategy, SetSplitter, SplitConfig
from repro.core.vid_filtering import FilterConfig, VIDFilter
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import build_dataset
from repro.sensing.scenarios import (
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.world.entities import EID

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

# The 2048-EID split shape: a dense city window where most of the crowd
# is vague (present but not confirmed), so candidate sets stay large for
# most of the run and converge right at the end.  Large live candidate
# sets are exactly where the packed-word kernels pull away from the
# reference's per-element set algebra.
NUM_EIDS = 2048
NUM_SCENARIOS = 192
INCLUSIVE_PER_SCENARIO = 1024
VAGUE_PER_SCENARIO = 864
NUM_CELLS = 16

#: Pinned floor: best-backend split vs the Python reference (ISSUE 7).
MIN_SPEEDUP = 100.0

# The wide-universe shape: 65,536 interned EIDs = 1024 words per row.
WIDE_NUM_EIDS = 65_536
WIDE_NUM_SCENARIOS = 256
WIDE_NUM_TARGETS = 512
WIDE_INCLUSIVE = 2048
WIDE_VAGUE = 2048

#: Pinned floor: examined scenarios per second on the 65,536-EID store.
WIDE_MIN_SCENARIOS_PER_S = 500.0

_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_trajectory():
    """Collect every measurement and write ``BENCH_kernels.json``."""
    yield
    if _RESULTS:
        write_bench_artifact(BENCH_PATH, _RESULTS)


def _dense_store(
    num_eids: int,
    num_scenarios: int,
    inclusive_size: int,
    vague_size: int,
    seed: int = 7,
) -> ScenarioStore:
    """A synthetic store where every scenario confirms ``inclusive_size``
    EIDs and vaguely sees another ``vague_size`` of a ``num_eids``
    universe."""
    rng = np.random.default_rng(seed)
    scenarios = []
    for i in range(num_scenarios):
        seen = rng.choice(
            num_eids, size=inclusive_size + vague_size, replace=False
        )
        inclusive = frozenset(EID(int(e)) for e in seen[:inclusive_size])
        vague = frozenset(EID(int(e)) for e in seen[inclusive_size:])
        key = ScenarioKey(cell_id=int(i % NUM_CELLS), tick=int(i // NUM_CELLS))
        scenarios.append(
            EVScenario(
                e=EScenario(key=key, inclusive=inclusive, vague=vague),
                v=VScenario(key=key, detections=()),
            )
        )
    return ScenarioStore(scenarios)


@pytest.fixture(scope="module")
def big_store():
    """The 2048-EID dense city window (see module constants)."""
    return _dense_store(
        NUM_EIDS, NUM_SCENARIOS, INCLUSIVE_PER_SCENARIO, VAGUE_PER_SCENARIO
    )


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


def _universal_split(store, backend: str, targets=None):
    config = SplitConfig(
        strategy=SelectionStrategy.SEQUENTIAL,
        min_gap_ticks=0,
        backend=backend,
    )
    if targets is None:
        targets = sorted(store.eid_universe)
    started = time.perf_counter()
    result = SetSplitter(store, config).run(targets)
    return result, time.perf_counter() - started


def test_accel_split_speedup(big_store):
    # The matrix is a once-per-store cost amortized over every served
    # query; build it outside the timed region like the service does.
    matrix_for(big_store).sync()
    backend = resolve_backend(AUTO_BACKEND)

    # Warm the accelerated path (JIT compilation, matrix caches) so the
    # timed run measures the steady service state, then take the best
    # of three to shed scheduler noise.
    accel_result, accel_s = _universal_split(big_store, backend)
    for _ in range(2):
        _result, elapsed = _universal_split(big_store, backend)
        accel_s = min(accel_s, elapsed)
    python_result, python_s = _universal_split(big_store, "python")

    assert python_result.recorded == accel_result.recorded
    assert python_result.evidence == accel_result.evidence
    assert python_result.candidates == accel_result.candidates
    assert python_result.scenarios_examined == accel_result.scenarios_examined

    speedup = python_s / accel_s
    examined = python_result.scenarios_examined
    _RESULTS["split"] = {
        "num_eids": NUM_EIDS,
        "num_scenarios": NUM_SCENARIOS,
        "backend_label": backend,
        "scenarios_examined": examined,
        "python_s": round(python_s, 4),
        "accel_s": round(accel_s, 4),
        "python_scenarios_per_s": round(examined / python_s, 1),
        "accel_scenarios_per_s": round(examined / accel_s, 1),
        "speedup": round(speedup, 2),
    }
    emit(render_rows(
        f"universal split over {NUM_EIDS} EIDs — python vs {backend}",
        ("backend", "seconds", "scenarios_per_s"),
        [
            {"backend": "python", "seconds": round(python_s, 3),
             "scenarios_per_s": round(examined / python_s, 1)},
            {"backend": backend, "seconds": round(accel_s, 3),
             "scenarios_per_s": round(examined / accel_s, 1)},
        ],
    ))
    emit(f"{backend} speedup: {speedup:.1f}x")

    assert speedup >= MIN_SPEEDUP, (
        f"{backend} backend should be >={MIN_SPEEDUP:.0f}x faster than "
        f"the reference on a {NUM_EIDS}-EID universal split, got "
        f"{speedup:.2f}x ({python_s:.3f}s vs {accel_s:.3f}s)"
    )


def test_split_65536_throughput():
    """The wide-universe floor: 65,536 interned EIDs, 1024-word rows.

    The Python reference is deliberately not timed here (it would take
    minutes); backend equivalence is pinned by the hypothesis suite and
    the 2048-EID test above.  This entry pins absolute throughput so a
    regression in the wide-row kernels fails CI even when the relative
    speedup still looks healthy.
    """
    store = _dense_store(
        WIDE_NUM_EIDS, WIDE_NUM_SCENARIOS, WIDE_INCLUSIVE, WIDE_VAGUE,
        seed=13,
    )
    matrix_for(store).sync()
    backend = resolve_backend(AUTO_BACKEND)
    targets = sorted(store.eid_universe)[:WIDE_NUM_TARGETS]

    result, elapsed = _universal_split(store, backend, targets)  # warmup
    for _ in range(2):
        run, run_s = _universal_split(store, backend, targets)
        elapsed = min(elapsed, run_s)
    assert run.scenarios_examined == result.scenarios_examined
    examined = result.scenarios_examined
    assert examined > 0
    assert set(result.candidates) == set(targets)
    scenarios_per_s = examined / elapsed

    _RESULTS["split_65536"] = {
        "num_eids": WIDE_NUM_EIDS,
        "num_scenarios": WIDE_NUM_SCENARIOS,
        "num_targets": WIDE_NUM_TARGETS,
        "backend_label": backend,
        "scenarios_examined": examined,
        "accel_s": round(elapsed, 4),
        "scenarios_per_s": round(scenarios_per_s, 1),
        "distinguished": len(result.distinguished),
    }
    emit(
        f"65,536-EID split: {examined} scenarios in {elapsed:.3f}s on "
        f"{backend} = {scenarios_per_s:.0f} scenarios/s "
        f"({len(result.distinguished)}/{WIDE_NUM_TARGETS} distinguished)"
    )
    assert scenarios_per_s >= WIDE_MIN_SCENARIOS_PER_S, (
        f"65,536-EID split should sustain >="
        f"{WIDE_MIN_SCENARIOS_PER_S:.0f} scenarios/s on {backend}, got "
        f"{scenarios_per_s:.1f} ({elapsed:.3f}s for {examined})"
    )


def test_bounded_filter_budget_and_throughput(small_world):
    store = small_world.store
    targets = list(small_world.sample_targets(24, seed=1))
    split = SetSplitter(store, SplitConfig(backend="bitset")).run(targets)

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
