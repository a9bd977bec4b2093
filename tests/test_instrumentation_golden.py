"""Golden instrumentation of the pipeline's stages on one fixed world.

The paper's evaluation is read off the pipeline's own counts, so what
the stages publish is pinned here, run by run:

* ``EVMatcher.match``, ``EVMatcher.match_edp`` and a match under
  ``RefiningConfig()``, each with a debug-level flight recorder;
* ``repro match --engine mapreduce --topology --metrics`` (metrics
  only);
* a synchronous ``StreamPipeline`` killed after a checkpoint, then
  restored from it.

For every run the pin holds the metric families of a fresh process
registry (kind, help text, label sets and every series value, except
the real-time ``ev_e_split_seconds``, of which only the observation
count is pinned), and, where a flight recorder listens, the event types
in order with their fields.  An event may carry fields beyond the
pinned ones.  Every run is repeated under the no-op tracer and under a
recording :class:`~repro.obs.Tracer`; both must publish the same.

To re-derive the pins after an intentional change to what a stage
publishes, run ``python tests/test_instrumentation_golden.py`` from
the repository root with ``PYTHONPATH=src`` (it rewrites
``golden/instrumentation.json``) and say in the change what moved.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.matcher import EVMatcher, MatcherConfig
from repro.core.refining import RefiningConfig
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import build_dataset
from repro.datagen.io import save_dataset
from repro.obs import (
    EventLog,
    MetricsRegistry,
    Tracer,
    null_tracer,
    set_event_log,
    set_registry,
    set_tracer,
)
from repro.sensing.scenarios import ScenarioStore
from repro.stream import StoreSink, StreamConfig, StreamPipeline, TraceReplaySource

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "instrumentation.json"

#: Targets matched in every matcher run.
TARGETS = 8

#: Histograms timed on the wall clock: only their counts are exact.
REAL_TIME = ("ev_e_split_seconds",)

#: Stand-in for the run's temporary checkpoint path in event fields.
CHECKPOINT = "<checkpoint>"


def _world():
    """A small practical-setting world: vague zones, drift and misses
    make topology pruning fire and leave some targets unresolved."""
    return build_dataset(
        ExperimentConfig(
            num_people=60,
            cells_per_side=3,
            duration=300.0,
            vague_width=25.0,
            e_drift_sigma=12.0,
            e_miss_rate=0.05,
            v_miss_rate=0.05,
            seed=3,
        )
    )


def _metrics(registry: MetricsRegistry):
    families = []
    for entry in registry.export_state()["metrics"]:
        if entry["kind"] == "histogram" and entry["name"] in REAL_TIME:
            entry = dict(entry)
            entry["series"] = [
                [labels, {"count": state["count"]}]
                for labels, state in entry["series"]
            ]
        families.append(entry)
    return families


def _events(log: EventLog, checkpoint: str = ""):
    out = []
    for event in log.events():
        fields = {
            key: CHECKPOINT if checkpoint and value == checkpoint else value
            for key, value in event["fields"].items()
        }
        out.append({"type": event["type"], "fields": fields})
    return out


def _record(case: str, run, tracer_kind: str):
    """Run ``run()`` on a fresh registry, a fresh debug-level log and
    the given tracer; returns ``(metrics, events)``, events ``None``
    for the runs whose events are not pinned."""
    registry = MetricsRegistry()
    log = EventLog(capacity=1_000_000, level="debug")
    tracer = Tracer() if tracer_kind == "tracer" else null_tracer()
    previous = (set_registry(registry), set_event_log(log), set_tracer(tracer))
    try:
        checkpoint = run()
    finally:
        set_registry(previous[0])
        set_event_log(previous[1])
        set_tracer(previous[2])
    if case not in PINNED_EVENTS:
        return _metrics(registry), None
    return _metrics(registry), _events(log, checkpoint or "")


def _matcher_case(world, method: str, config=None):
    def run():
        matcher = EVMatcher(world.store, config)
        targets = list(world.sample_targets(TARGETS, seed=1))
        getattr(matcher, method)(targets)

    return run


def _cli_case(path: str):
    def run():
        with redirect_stdout(StringIO()):
            code = main(
                ["match", "--dataset", path, "--targets", str(TARGETS),
                 "--topology", "--engine", "mapreduce", "--metrics"]
            )
        assert code == 0

    return run


def _stream_case(world, directory: str):
    def run():
        checkpoint = os.path.join(directory, "stream.ck.json")
        if os.path.exists(checkpoint):
            os.remove(checkpoint)
        builder_config = world.config.builder_config()
        store = ScenarioStore([])
        for overrides in (
            {"checkpoint_every_windows": 3, "max_events": 240},
            {},
        ):
            StreamPipeline(
                TraceReplaySource.from_dataset(world),
                StoreSink(store),
                StreamConfig.from_builder(
                    builder_config,
                    synchronous=True,
                    checkpoint_path=checkpoint,
                    **overrides,
                ),
            ).run()
        return checkpoint

    return run


CASES = ("match", "match_edp", "match_refining", "cli_mapreduce", "stream")

#: The runs whose flight-recorder events are pinned.
PINNED_EVENTS = ("match", "match_edp", "match_refining", "stream")


def _cases(world, path: str, directory: str):
    return {
        "match": _matcher_case(world, "match"),
        "match_edp": _matcher_case(world, "match_edp"),
        "match_refining": _matcher_case(
            world, "match", MatcherConfig(refining=RefiningConfig())
        ),
        "cli_mapreduce": _cli_case(path),
        "stream": _stream_case(world, directory),
    }


def _same(expected, actual, where: str) -> None:
    """Exact equality, except floats to 1e-9 relative (scores are BLAS
    products whose last bits may move)."""
    if isinstance(expected, float) or isinstance(actual, float):
        assert isinstance(actual, (int, float)), f"{where}: {actual!r}"
        assert math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-12), (
            f"{where}: expected {expected!r}, got {actual!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), f"{where}: {actual!r}"
        assert sorted(expected) == sorted(actual), (
            f"{where}: keys {sorted(expected)} != {sorted(actual)}"
        )
        for key in expected:
            _same(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{where}: {actual!r}"
        assert len(expected) == len(actual), (
            f"{where}: {len(expected)} items != {len(actual)}"
        )
        for i, (e, a) in enumerate(zip(expected, actual)):
            _same(e, a, f"{where}[{i}]")
    else:
        assert expected == actual, f"{where}: expected {expected!r}, got {actual!r}"


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    directory = tmp_path_factory.mktemp("instrumentation")
    world = _world()
    path = str(save_dataset(world, directory / "world.npz"))
    return _cases(world, path, str(directory))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("tracer_kind", ["null", "tracer"])
@pytest.mark.parametrize("case", CASES)
def test_stage_instrumentation_matches_golden(recorded, golden, case, tracer_kind):
    metrics, events = _record(case, recorded[case], tracer_kind)
    expected = golden[case]
    assert [m["name"] for m in metrics] == [m["name"] for m in expected["metrics"]]
    _same(expected["metrics"], json.loads(json.dumps(metrics)), f"{case}.metrics")

    if expected["events"] is None:
        return
    assert [e["type"] for e in events] == [e["type"] for e in expected["events"]]
    for i, (want, got) in enumerate(zip(expected["events"], events)):
        got_fields = json.loads(json.dumps(got["fields"]))
        missing = sorted(set(want["fields"]) - set(got_fields))
        assert not missing, f"{case} event {i} ({want['type']}) lacks {missing}"
        for key, value in want["fields"].items():
            _same(value, got_fields[key], f"{case}.events[{i}].{key}")


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as directory:
        world = _world()
        path = str(save_dataset(world, Path(directory) / "world.npz"))
        cases = _cases(world, path, directory)
        golden = {}
        for case in CASES:
            metrics, events = _record(case, cases[case], "null")
            golden[case] = {"metrics": metrics, "events": events}
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
