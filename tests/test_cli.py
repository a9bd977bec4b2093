"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main, run_experiment, run_match


class TestParser:
    def test_match_defaults(self):
        args = build_parser().parse_args(["match"])
        assert args.command == "match"
        assert args.algorithm == "both"
        assert args.people == 400

    def test_experiment_parsing(self):
        args = build_parser().parse_args(["experiment", "fig5"])
        assert args.command == "experiment"
        assert args.name == "fig5"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunExperiment:
    def test_list(self):
        out = io.StringIO()
        assert run_experiment("list", out=out) == 0
        text = out.getvalue()
        for name in EXPERIMENTS:
            assert name in text

    def test_unknown_experiment(self):
        assert run_experiment("fig99") == 2

    def test_registry_complete(self):
        # All nine tables/figures of the paper are runnable from the CLI.
        assert set(EXPERIMENTS) == {
            "fig5", "fig6", "fig7", "fig8", "fig9",
            "table1", "table2", "fig10", "fig11",
        }


class TestServeParser:
    def test_serve_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--workers", "--queue-size", "--shards", "--no-cache",
                     "--requests", "--watch"):
            assert flag in text

    def test_loadtest_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["loadtest", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--clients", "--requests", "--pool",
                     "--targets-per-request", "--workers", "--shards"):
            assert flag in text

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.workers == 2
        assert args.queue_size == 64
        assert not args.no_cache

    def test_loadtest_defaults(self):
        args = build_parser().parse_args(["loadtest"])
        assert args.command == "loadtest"
        assert args.clients == 4
        assert args.pool == 8

    def test_serve_runs_demo_traffic(self, capsys):
        assert main(
            ["serve", "--people", "50", "--cells", "2", "--duration", "250",
             "--requests", "8", "--watch", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "service up" in out
        assert "service stats" in out

    def test_loadtest_reports_both_modes(self, capsys):
        assert main(
            ["loadtest", "--people", "50", "--cells", "2", "--duration", "250",
             "--clients", "2", "--requests", "4", "--pool", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "cold" in out and "cached" in out and "speedup" in out


class TestRunMatch:
    def test_small_match_runs(self):
        out = io.StringIO()
        args = build_parser().parse_args(
            [
                "match",
                "--people", "60",
                "--cells", "2",
                "--targets", "15",
                "--duration", "300",
                "--algorithm", "ss",
            ]
        )
        assert run_match(args, out=out) == 0
        text = out.getvalue()
        assert "ss" in text and "accuracy_pct" in text

    def test_main_dispatch(self, capsys):
        assert main(["experiment", "list"]) == 0
        captured = capsys.readouterr()
        assert "fig5" in captured.out


class TestBuildAndInvestigate:
    def test_build_then_match_from_dataset(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "world.npz")
        assert main(
            ["build", "--out", out, "--people", "50", "--cells", "2",
             "--duration", "200"]
        ) == 0
        assert main(
            ["match", "--dataset", out, "--targets", "10", "--algorithm", "ss"]
        ) == 0
        captured = capsys.readouterr().out
        assert "saved" in captured and "accuracy_pct" in captured

    def test_investigate(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "world.npz")
        main(["build", "--out", out, "--people", "40", "--cells", "2",
              "--duration", "200"])
        assert main(["investigate", "--dataset", out, "--suspect", "1"]) == 0
        captured = capsys.readouterr().out
        assert "profile of" in captured

    def test_investigate_unknown_suspect(self, tmp_path):
        from repro.cli import main

        out = str(tmp_path / "world.npz")
        main(["build", "--out", out, "--people", "20", "--cells", "2",
              "--duration", "150"])
        assert main(["investigate", "--dataset", out, "--suspect", "9999"]) == 2


class TestStream:
    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.command == "stream"
        assert args.speedup == 0.0
        assert args.jitter == 0
        assert args.policy == "block"
        assert args.checkpoint is None
        assert args.events is None

    def test_stream_flags(self):
        args = build_parser().parse_args(
            [
                "stream", "--checkpoint", "ck.json", "--speedup", "50",
                "--events", "ev.jsonl", "--jitter", "2", "--lateness", "3",
                "--max-events", "100", "--policy", "shed",
            ]
        )
        assert args.checkpoint == "ck.json"
        assert args.speedup == 50.0
        assert args.events == "ev.jsonl"
        assert args.jitter == 2
        assert args.lateness == 3
        assert args.max_events == 100
        assert args.policy == "shed"

    def test_stream_replay_reports_equivalence(self, capsys):
        code = main(
            [
                "stream", "--people", "25", "--cells", "3",
                "--duration", "100", "--seed", "5", "--jitter", "2",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "batch equivalence      OK" in captured
        assert "events applied" in captured

    def test_stream_kill_then_restore(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "ck.json")
        base = [
            "stream", "--people", "25", "--cells", "3", "--duration", "100",
            "--seed", "5", "--checkpoint", checkpoint,
        ]
        assert main(base + ["--max-events", "150"]) == 0
        first = capsys.readouterr().out
        assert "(killed)" in first
        assert main(base) == 0
        second = capsys.readouterr().out
        assert "(restored)" in second
        assert "batch equivalence      OK" in second

    def test_stream_live_with_events(self, tmp_path, capsys):
        events_path = str(tmp_path / "ev.jsonl")
        code = main(
            [
                "stream", "--live", "--people", "15", "--cells", "3",
                "--windows", "3", "--events", events_path,
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "live stream" in captured
        import json

        events = [json.loads(line) for line in open(events_path)]
        types = {event["type"] for event in events}
        assert "stream.window.closed" in types
        assert "stream.scenario.emitted" in types


class TestProfilingCli:
    def test_match_profile_flags(self):
        args = build_parser().parse_args(
            ["match", "--profile", "out.collapsed", "--profile-hz", "50"]
        )
        assert args.profile == "out.collapsed"
        assert args.profile_hz == 50.0
        # Off by default: no sampler thread unless asked for.
        args = build_parser().parse_args(["match"])
        assert args.profile is None
        assert args.profile_hz is None

    def test_cluster_profile_parsing(self):
        args = build_parser().parse_args(
            [
                "cluster", "profile", "out.collapsed",
                "--requests", "4", "--profile-hz", "250",
                "--events-per-beat", "64", "--telemetry-interval", "0.5",
            ]
        )
        assert args.cluster_command == "profile"
        assert args.output == "out.collapsed"
        assert args.requests == 4
        assert args.profile_hz == 250.0
        assert args.events_per_beat == 64
        assert args.telemetry_interval == 0.5

    def test_cluster_serve_ships_tuning_flags(self):
        args = build_parser().parse_args(["cluster", "serve"])
        assert args.telemetry_interval == 1.0
        assert args.events_per_beat == 256
        assert args.profile_hz == 0.0  # profiling is opt-in

    def test_cluster_slowlog_parsing(self):
        args = build_parser().parse_args(
            ["cluster", "slowlog", "--connect", "127.0.0.1:7000", "--limit", "5"]
        )
        assert args.cluster_command == "slowlog"
        assert args.connect == "127.0.0.1:7000"
        assert args.limit == 5
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "slowlog"])

    def test_match_profile_writes_both_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "prof.collapsed")
        code = main(
            [
                "match",
                "--people", "80", "--cells", "2", "--targets", "40",
                "--duration", "300", "--profile", out,
                "--profile-hz", "400",
            ]
        )
        assert code == 0
        collapsed = open(out).read()
        assert collapsed.strip(), "profiler landed no samples"
        for line in collapsed.splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0
        import json

        doc = json.load(open(out + ".speedscope.json"))
        assert doc["profiles"], "speedscope document is empty"
        assert "profile" in capsys.readouterr().out


class TestTopologyCli:
    def test_parser_flags(self):
        args = build_parser().parse_args(["match"])
        assert args.topology is False
        args = build_parser().parse_args(["match", "--topology"])
        assert args.topology is True
        args = build_parser().parse_args(["cluster", "serve", "--topology"])
        assert args.topology is True
        args = build_parser().parse_args(
            ["topology", "build", "--out", "w.npz", "--people", "50"]
        )
        assert (args.command, args.topology_command) == ("topology", "build")
        assert args.people == 50
        args = build_parser().parse_args(["topology", "inspect", "--edges", "3"])
        assert args.topology_command == "inspect"
        assert args.edges == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topology", "build"])  # --out required
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topology"])  # subcommand required

    def test_topology_build_then_inspect(self, tmp_path, capsys):
        out = str(tmp_path / "world.npz")
        assert main(
            ["topology", "build", "--out", out, "--people", "40",
             "--cells", "3", "--duration", "200"]
        ) == 0
        assert main(
            ["topology", "inspect", "--dataset", out, "--edges", "5"]
        ) == 0
        captured = capsys.readouterr().out
        assert "camera graph" in captured
        assert "busiest" in captured
        assert "traversals" in captured

    def test_match_with_topology(self, tmp_path, capsys):
        out = str(tmp_path / "world.npz")
        assert main(
            ["build", "--out", out, "--people", "50", "--cells", "2",
             "--duration", "200"]
        ) == 0
        assert main(
            ["match", "--dataset", out, "--targets", "10",
             "--algorithm", "ss", "--topology"]
        ) == 0
        captured = capsys.readouterr().out
        assert "topology:" in captured and "fitted edges" in captured
        assert "accuracy_pct" in captured

    def test_match_topology_on_mapreduce(self, tmp_path, capsys):
        out = str(tmp_path / "world.npz")
        assert main(
            ["build", "--out", out, "--people", "40", "--cells", "2",
             "--duration", "200"]
        ) == 0
        assert main(
            ["match", "--dataset", out, "--targets", "8", "--topology",
             "--engine", "mapreduce", "--algorithm", "ss"]
        ) == 0
        captured = capsys.readouterr().out
        assert "topology:" in captured
        assert any(line.split()[:1] == ["ss"] for line in captured.splitlines())

    def test_mapreduce_publishes_the_local_match_metrics(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry, set_registry

        out = str(tmp_path / "world.npz")
        assert main(
            ["build", "--out", out, "--people", "40", "--cells", "2",
             "--duration", "200"]
        ) == 0
        names = {}
        for engine in ("local", "mapreduce"):
            previous = set_registry(MetricsRegistry())
            try:
                capsys.readouterr()
                assert main(
                    ["match", "--dataset", out, "--targets", "8", "--topology",
                     "--metrics", "--engine", engine]
                ) == 0
            finally:
                set_registry(previous)
            names[engine] = {
                line.split("{")[0].split()[0]
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("ev_")
            }
        assert "ev_match_runs_total" in names["local"]
        assert "ev_e_scenarios_examined_total" in names["local"]
        assert "ev_v_comparisons_total" in names["local"]
        assert names["mapreduce"] == names["local"]

    def test_match_topology_needs_a_fitted_graph(self, tmp_path, capsys):
        from repro.datagen.config import ExperimentConfig
        from repro.datagen.dataset import build_dataset
        from repro.datagen.io import save_dataset

        dataset = build_dataset(
            ExperimentConfig(
                num_people=30, cells_per_side=2, duration=150.0, seed=1
            )
        )
        dataset.topology = None  # a pre-topology world
        path = str(save_dataset(dataset, tmp_path / "old.npz"))
        assert main(
            ["match", "--dataset", path, "--targets", "5", "--topology"]
        ) == 2
        assert "fitted camera graph" in capsys.readouterr().err
        # Same world loads fine topology-blind (backward compatibility).
        assert main(["match", "--dataset", path, "--targets", "5"]) == 0

    def test_inspect_reports_the_camera_graph(self, capsys):
        assert main(
            ["inspect", "--people", "40", "--cells", "2", "--duration", "200"]
        ) == 0
        captured = capsys.readouterr().out
        assert "camera graph (topology):" in captured
        assert "fitted edges" in captured


class TestClusterJournalDir:
    """A cluster run removes the journal directory it made itself, and
    keeps one it was given."""

    FLAGS = [
        "cluster", "serve", "--people", "40", "--cells", "2",
        "--duration", "200", "--processes", "1", "--replication", "1",
        "--threads", "1", "--serve-seconds", "0.1",
    ]

    @pytest.fixture(autouse=True)
    def private_tmp(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR

    def test_made_journal_dir_removed(self, tmp_path, capsys):
        assert main(self.FLAGS) == 0
        out = capsys.readouterr().out
        assert f"journals in {tmp_path}" in out
        assert list(tmp_path.glob("repro-cluster-*")) == []

    def test_given_journal_dir_kept(self, tmp_path, capsys):
        given = tmp_path / "journals"
        assert main(self.FLAGS + ["--journal-dir", str(given)]) == 0
        assert (given / "world.npz").is_file()
        assert list(tmp_path.glob("repro-cluster-*")) == []


class TestClusterTrace:
    """``repro cluster trace`` sends each request with a trace envelope
    of its own and writes the last one's merged trace, fetched by id."""

    def test_writes_one_merged_cross_process_trace(self, tmp_path, capsys):
        output = tmp_path / "trace.json"
        assert main([
            "cluster", "trace", str(output), "--people", "60",
            "--processes", "2", "--requests", "2",
        ]) == 0
        chrome = json.loads(output.read_text())
        trace_id = chrome["otherData"]["trace_id"]
        assert f"trace {trace_id}," in capsys.readouterr().out
        spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert {e["args"]["trace_id"] for e in spans} == {trace_id}
        assert len({e["pid"] for e in spans}) >= 2
        ids = {e["args"]["span_id"] for e in spans}
        parents = {e["args"]["parent_span_id"] for e in spans}
        assert parents - {None} <= ids
        roots = [
            e["name"] for e in spans if e["args"]["parent_span_id"] is None
        ]
        assert roots == ["gateway.request"]
