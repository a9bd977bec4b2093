"""The benchmark's own tests, on a tiny world.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Every workload must emit every named metric, traced and untraced, and
a deliberately corrupted answer must fail the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import batch  # noqa: E402
import ingest  # noqa: E402
import run as runner  # noqa: E402
import serve  # noqa: E402
from common import END_TO_END, PER_LAYER, target_seed  # noqa: E402
from spans import Instrumentation, Recorder  # noqa: E402

from repro.core.matcher import EVMatcher  # noqa: E402
from repro.datagen.config import ExperimentConfig  # noqa: E402
from repro.datagen.dataset import build_dataset  # noqa: E402

SEED = 1
TARGETS = 12
TINY = ExperimentConfig(
    num_people=40, cells_per_side=3, duration=600.0, sample_dt=10.0, seed=5
)


@pytest.fixture(scope="module")
def tiny_correct() -> int:
    """What the tiny world's batch match scores, for the pinned check."""
    dataset = build_dataset(TINY)
    sample = dataset.sample_targets(TARGETS, seed=target_seed(SEED))
    return EVMatcher(dataset.store).match(sample).score(dataset.truth).correct


def _assert_every_metric(outcome, trace: bool) -> None:
    result = outcome.result(trace)
    table = PER_LAYER if trace else END_TO_END
    assert result["correct"], outcome.problems
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert list(result["metrics"]) == list(table)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == table[name]
    json.dumps(result)  # the result line must serialize


@pytest.mark.parametrize("trace", [False, True])
def test_batch_emits_every_metric(trace, tiny_correct):
    outcome = batch.run(
        SEED, 0.2, trace, config=TINY, targets=TARGETS,
        expected_correct=tiny_correct,
    )
    _assert_every_metric(outcome, trace)
    if trace:
        assert outcome.per_layer["trace.coverage"] >= 0.95
        assert outcome.per_layer["e.split_s"] > 0


def test_batch_wrong_accuracy_fails(tiny_correct):
    outcome = batch.run(
        SEED, 0.1, False, config=TINY, targets=TARGETS,
        expected_correct=tiny_correct + 1,
    )
    assert not outcome.correct
    assert any("pinned" in problem for problem in outcome.problems)


@pytest.mark.parametrize("trace", [False, True])
def test_serve_emits_every_metric(trace):
    outcome = serve.run(SEED, 1.0, trace, config=TINY, targets=TARGETS)
    _assert_every_metric(outcome, trace)
    assert outcome.facts["answers_checked"] > 0


def test_serve_corrupted_answer_fails(monkeypatch):
    real = serve.in_process_predictions

    def corrupted(store, targets):
        expected = real(store, targets)
        first = min(expected)
        expected[first] = -1  # no detection has this id
        return expected

    monkeypatch.setattr(serve, "in_process_predictions", corrupted)
    outcome = serve.run(SEED, 0.5, False, config=TINY, targets=TARGETS)
    assert not outcome.correct
    assert any("differ from EVMatcher" in p for p in outcome.problems)


@pytest.mark.parametrize("trace", [False, True])
def test_ingest_emits_every_metric(trace):
    outcome = ingest.run(SEED, 0.1, trace, config=TINY, targets=TARGETS)
    _assert_every_metric(outcome, trace)
    if trace:
        assert outcome.per_layer["trace.coverage"] >= 0.95
        assert outcome.per_layer["stream.windows_closed"] > 0


def test_ingest_lost_scenario_fails(monkeypatch):
    from repro.stream import ServiceSink

    real = ServiceSink.emit_window
    dropped = []

    def lossy(self, scenarios):
        if scenarios and not dropped:
            dropped.append(scenarios[0])
            scenarios = scenarios[1:]
        return real(self, scenarios)

    monkeypatch.setattr(ServiceSink, "emit_window", lossy)
    outcome = ingest.run(SEED, 0.1, False, config=TINY, targets=TARGETS)
    assert dropped
    assert not outcome.correct
    assert any("differs from the batch store" in p for p in outcome.problems)


def test_ingest_failed_read_fails(monkeypatch):
    from concurrent.futures import Future

    from repro.service.api import MatchResponse
    from repro.service.server import MatchService

    def failing(self, request):
        future = Future()
        future.set_result(MatchResponse(status="error", error="injected"))
        return future

    monkeypatch.setattr(MatchService, "submit", failing)
    outcome = ingest.run(SEED, 0.5, False, config=TINY, targets=TARGETS)
    assert outcome.failed > 0
    assert not outcome.correct
    assert any("reader requests failed" in p for p in outcome.problems)
    assert outcome.facts["latency_samples"] == 0  # failures are not timed


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_add_up_to_the_root():
    recorder = Recorder()

    class Layer:
        def outer(self):
            self.inner()
            sum(range(20000))

        def inner(self):
            sum(range(50000))

    original = Layer.__dict__["outer"]
    with Instrumentation(recorder) as inst:
        inst.patch(Layer, "outer", "outer")
        inst.patch(Layer, "inner", "inner")
        with recorder.span("root"):
            Layer().outer()
    assert Layer.__dict__["outer"] is original
    root, covered = recorder.self_time_under("root")
    outer, inner = recorder.get("outer"), recorder.get("inner")
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    assert covered == pytest.approx(outer.total_s, rel=1e-9)
    assert covered <= root
