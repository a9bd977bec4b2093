"""Pieces every workload shares: the paper-shape world, the metric
tables, percentiles, memory readings and the run outcome."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from spans import Instrumentation, Recorder

#: Distinct target samples; ``--seed n`` matches sample ``n % SAMPLES``
#: of the one paper-shape world, so every seed has a pinned accuracy.
#: The world itself is fixed (the paper's default): run-to-run spread
#: then reflects the system, not how hard one random world happens to be.
SAMPLES = 64

#: Targets matched / watched, the paper's Sec. VI default.
TARGETS = 600

#: World builds per run; every workload's set-up counts their median.
BUILDS = 3

#: End-to-end metrics: every workload reports each of them (see
#: METRICS.md for what each means on each workload).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "accuracy": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run.  A layer that does not run in
#: the benchmark's process on a workload reports 0 there.
PER_LAYER = {
    "datagen.traces_s": "s",
    "sensing.build_s": "s",
    "topology.fit_s": "s",
    "sensing.scenarios": "count",
    "io.save_s": "s",
    "e.split_s": "s",
    "e.scenarios_examined": "count",
    "e.selected": "count",
    "e.scenarios_per_eid": "count",
    "v.filter_s": "s",
    "v.match_one_p99_us": "us",
    "v.filter_cold_s": "s",
    "v.detections_extracted": "count",
    "v.comparisons": "count",
    "v.feature_cache_hit_rate": "ratio",
    "match.other_s": "s",
    "match.cold_s": "s",
    "service.latency_p50_ms": "ms",
    "wire.overhead_p50_ms": "ms",
    "service.cache_hit_rate": "ratio",
    "service.dedup": "count",
    "service.batched": "count",
    "service.miss_p50_ms": "ms",
    "investigate_p50_ms": "ms",
    "worker.ready_s": "s",
    "stream.source_s": "s",
    "stream.assemble_s": "s",
    "stream.other_s": "s",
    "service.ingest_s": "s",
    "service.ingest_p99_ms": "ms",
    "incremental.observe_s": "s",
    "service.invalidated": "count",
    "live.cache_hit_rate": "ratio",
    "reader.lag_ms": "ms",
    "stream.windows_closed": "count",
    "stream.scenarios_applied": "count",
    "error_rate": "ratio",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ms": "ms",
}

#: The traced run fails when the layers' self times account for less
#: than this share of the traced wall time.
COVERAGE_FLOOR = 0.95


def paper_config():
    """The paper-shape world: 1000 people, 5x5 cells, 1500 s at 10 s."""
    from repro.bench.datasets import default_config

    return default_config()


def target_seed(seed: int) -> int:
    """The target sample benchmark seed ``seed`` matches."""
    return seed % SAMPLES


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, the repo's convention (0.0 if empty)."""
    from repro.obs.registry import nearest_rank

    return float(nearest_rank(values, q))


def tail_facts(latencies_s: Sequence[float]) -> Dict[str, float]:
    """Upper percentiles (ms) for the facts line, beyond the p50/p90
    metrics, with the sample count they rest on."""
    facts = {
        f"latency_p{q}_ms": percentile(latencies_s, q) * 1e3 for q in (75, 95, 99)
    }
    facts["latency_samples"] = len(latencies_s)
    return facts


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def instrument_build(inst: Instrumentation) -> None:
    """Spans around the world build's steps (``build_dataset`` calls
    each through its module globals / class attributes)."""
    from repro.datagen import dataset as dataset_module
    from repro.sensing.builder import ScenarioBuilder
    from repro.topology.transit import TransitModel

    inst.patch(dataset_module, "build_dataset", "datagen.build")
    inst.patch(dataset_module, "generate_traces", "datagen.traces")
    inst.patch(ScenarioBuilder, "build", "sensing.build")
    inst.patch(TransitModel, "fit", "topology.fit")


def instrument_matcher(inst: Instrumentation) -> None:
    """Spans around the matcher's stages."""
    from repro.core.matcher import EVMatcher, MatchReport
    from repro.core.set_splitting import SetSplitter
    from repro.core.vid_filtering import VIDFilter

    inst.patch(EVMatcher, "match", "match")
    inst.patch(SetSplitter, "run", "e.split")
    inst.patch(VIDFilter, "match", "v.filter")
    inst.patch(VIDFilter, "match_one", "v.match_one")
    inst.patch(MatchReport, "score", "score")


def build_world(config, recorder: Optional[Recorder] = None):
    """Build the world, inside build spans when ``recorder`` is given.
    Returns ``(dataset, seconds)``."""
    from repro.datagen import dataset as dataset_module

    if recorder is None:
        started = time.perf_counter()
        dataset = dataset_module.build_dataset(config)
        return dataset, time.perf_counter() - started
    with Instrumentation(recorder) as inst:
        instrument_build(inst)
        started = time.perf_counter()
        with recorder.span("bench.build"):
            dataset = dataset_module.build_dataset(config)
        return dataset, time.perf_counter() - started


def build_worlds(config, recorder: Optional[Recorder] = None):
    """Build the world ``BUILDS`` times, one alive at a time, as a
    user's process would.  Returns ``(last dataset, median seconds)``."""
    times = []
    dataset = None
    for _ in range(BUILDS):
        dataset = None
        dataset, elapsed = build_world(config, recorder)
        times.append(elapsed)
    return dataset, median(times)


def build_layers(recorder: Recorder, dataset) -> Dict[str, float]:
    """The world-build per-layer metrics, per traced build."""
    builds = max(1, recorder.get("bench.build").calls)
    return {
        "datagen.traces_s": recorder.get("datagen.traces").total_s / builds,
        "sensing.build_s": recorder.get("sensing.build").total_s / builds,
        "topology.fit_s": recorder.get("topology.fit").total_s / builds,
        "sensing.scenarios": len(dataset.store),
    }


def coverage(recorder: Recorder, root: str) -> Dict[str, float]:
    """Share of the root spans' wall time that the layers' self times
    account for, on the root's threads."""
    wall, covered = recorder.self_time_under(root)
    return {
        "trace.wall_s": wall,
        "trace.coverage": covered / wall if wall > 0 else 0.0,
    }


def registry_value(name: str, **labels: str) -> float:
    """Current value of a process-registry counter."""
    from repro.obs import get_registry

    counter = get_registry().get(name)
    if counter is None:
        return 0.0
    return float(counter.value(**labels)) if labels else float(counter.total())


@dataclass
class Outcome:
    """One run's result, before printing."""

    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    facts: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: traced phases' span recorders, written out after the run.
    recorders: Dict[str, Recorder] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, ok: bool, problem: str) -> None:
        """Record ``problem`` unless ``ok``: a failed check fails the run."""
        if not ok:
            self.problems.append(problem)

    def layer(self, values: Dict[str, float]) -> None:
        self.per_layer.update(values)

    def result(self, trace: bool) -> Dict[str, object]:
        """The contract's result object: every end-to-end metric
        untraced, every per-layer metric traced (0 for layers that do
        not run in this process on this workload)."""
        if trace:
            table = PER_LAYER
            values = {name: self.per_layer.get(name, 0.0) for name in table}
            values["error_rate"] = self.failed / max(1, self.attempted)
        else:
            table = END_TO_END
            values = {name: self.end_to_end[name] for name in table}
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": float(values[name]), "unit": table[name]}
                for name in table
            },
        }


def work_dir(root: Path) -> Path:
    """Scratch space inside the checkout (ignored by git)."""
    path = root / ".perfbench"
    path.mkdir(exist_ok=True)
    return path
