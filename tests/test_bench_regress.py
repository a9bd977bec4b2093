"""Perf-regression sentinel: history schema, rule evaluation, CI gate.

Exercises the full sentinel loop: ``write_bench_artifact`` appends a
validated entry to ``BENCH_HISTORY.jsonl``; :func:`check_history`
judges the newest entry per artifact against direction/tolerance
rules (absolute bounds plus a relative tolerance against the median of
the earlier entries); ``scripts/check_bench_regression.py`` turns the
verdicts into exit codes.  Ends by judging the repo's committed
history against :data:`DEFAULT_RULES` — the same check CI runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.reporting import write_bench_artifact
from repro.obs.regress import (
    DEFAULT_RULES,
    HISTORY_NAME,
    RegressionRule,
    append_bench_history,
    check_history,
    history_entry,
    load_history,
    metric_value,
    resolve_git_sha,
    validate_history_entry,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_bench_regression.py"


def entry(artifact, payload, ts, sha="cafebabe"):
    return history_entry(artifact, payload, git_sha=sha, ts=ts)


class TestHistorySchema:
    def test_roundtrip_append_and_load(self, tmp_path):
        path = tmp_path / HISTORY_NAME
        first = append_bench_history(
            path, "BENCH_x.json", {"m": {"v": 1.0}}, git_sha="aaa", ts=10.0
        )
        second = append_bench_history(
            path, "BENCH_x.json", {"m": {"v": 2.0}}, git_sha="bbb", ts=20.0
        )
        loaded = load_history(path)
        assert loaded == [first, second]
        assert [e["git_sha"] for e in loaded] == ["aaa", "bbb"]

    def test_backend_label_is_lifted_from_the_payload(self):
        made = entry(
            "BENCH_kernels.json",
            {"split": {"speedup": 5.0, "backend_label": "numpy"}},
            ts=1.0,
        )
        assert made["backend_label"] == "numpy"
        plain = entry("BENCH_x.json", {"v": 1.0}, ts=1.0)
        assert plain["backend_label"] == ""

    def test_invalid_entries_are_rejected(self):
        good = entry("BENCH_x.json", {"v": 1.0}, ts=1.0)
        validate_history_entry(good)
        for corrupt in (
            {**good, "artifact": ""},
            {**good, "ts": -1.0},
            {**good, "ts": "yesterday"},
            {**good, "git_sha": ""},
            {**good, "payload": {}},
            {k: v for k, v in good.items() if k != "payload"},
            "not an object",
        ):
            with pytest.raises(ValueError):
                validate_history_entry(corrupt)

    def test_load_names_the_offending_line(self, tmp_path):
        path = tmp_path / HISTORY_NAME
        path.write_text(
            json.dumps(entry("BENCH_x.json", {"v": 1.0}, ts=1.0)) + "\n"
            + "{not json\n"
        )
        with pytest.raises(ValueError, match=rf"{HISTORY_NAME}:2"):
            load_history(path)

    def test_resolve_git_sha_prefers_the_ci_env(self, monkeypatch):
        monkeypatch.setenv("GITHUB_SHA", "feedface")
        assert resolve_git_sha() == "feedface"
        monkeypatch.delenv("GITHUB_SHA")
        # In this repo the fallback is a real rev-parse.
        assert resolve_git_sha(cwd=REPO_ROOT) not in ("", "unknown")

    def test_metric_value_resolves_dotted_paths(self):
        payload = {"a": {"b": 3}, "s": "str", "flag": True}
        assert metric_value(payload, "a.b") == 3.0
        assert metric_value(payload, "a.missing") is None
        assert metric_value(payload, "s") is None
        assert metric_value(payload, "flag") is None


class TestArtifactHistoryHookup:
    def test_write_appends_beside_the_artifact(self, tmp_path):
        out = tmp_path / "BENCH_demo.json"
        write_bench_artifact(out, {"m": {"v": 1.5}}, git_sha="abc", ts=5.0)
        assert json.loads(out.read_text()) == {"m": {"v": 1.5}}
        (made,) = load_history(tmp_path / HISTORY_NAME)
        assert made["artifact"] == "BENCH_demo.json"
        assert made["git_sha"] == "abc"
        assert made["payload"] == {"m": {"v": 1.5}}

    def test_explicit_history_path_and_false_skip(self, tmp_path):
        out = tmp_path / "BENCH_demo.json"
        elsewhere = tmp_path / "sub" / "hist.jsonl"
        elsewhere.parent.mkdir()
        write_bench_artifact(
            out, {"v": 1.0}, history=elsewhere, git_sha="abc", ts=5.0
        )
        assert len(load_history(elsewhere)) == 1
        assert not (tmp_path / HISTORY_NAME).exists()

        write_bench_artifact(out, {"v": 2.0}, history=False)
        assert not (tmp_path / HISTORY_NAME).exists()
        assert len(load_history(elsewhere)) == 1


RULE = RegressionRule(
    "BENCH_x.json", "m.v", "higher", floor=1.0, rel_tolerance=0.5
)


class TestCheckHistory:
    def test_steady_history_passes(self):
        entries = [
            entry("BENCH_x.json", {"m": {"v": 10.0 + i}}, ts=float(i + 1))
            for i in range(4)
        ]
        assert check_history(entries, [RULE]) == []

    def test_newest_is_judged_against_the_median_baseline(self):
        # Baseline = median(10, 11, 100) = 11; one freak earlier run
        # cannot move it, so 6.0 > 11 * 0.5 still passes ...
        entries = [
            entry("BENCH_x.json", {"m": {"v": v}}, ts=float(i + 1))
            for i, v in enumerate([10.0, 100.0, 11.0, 6.0])
        ]
        assert check_history(entries, [RULE]) == []
        # ... while a real slide below the tolerance fails.
        entries.append(entry("BENCH_x.json", {"m": {"v": 5.0}}, ts=9.0))
        failures = check_history(entries, [RULE])
        assert len(failures) == 1
        assert failures[0].startswith("BENCH_x.json:m.v:")
        assert "baseline" in failures[0]

    def test_absolute_floor_applies_without_any_baseline(self):
        entries = [entry("BENCH_x.json", {"m": {"v": 0.5}}, ts=1.0)]
        failures = check_history(entries, [RULE])
        assert failures == ["BENCH_x.json:m.v: 0.5 below absolute floor 1"]

    def test_lower_is_better_ceiling(self):
        rule = RegressionRule(
            "BENCH_x.json", "pct", "lower", ceiling=5.0, rel_tolerance=None
        )
        ok = [entry("BENCH_x.json", {"pct": 4.0}, ts=1.0)]
        assert check_history(ok, [rule]) == []
        bad = [entry("BENCH_x.json", {"pct": 7.5}, ts=1.0)]
        (failure,) = check_history(bad, [rule])
        assert "above absolute ceiling" in failure

    def test_lower_direction_relative_tolerance(self):
        rule = RegressionRule(
            "BENCH_x.json", "pct", "lower", rel_tolerance=0.5
        )
        entries = [
            entry("BENCH_x.json", {"pct": v}, ts=float(i + 1))
            for i, v in enumerate([2.0, 2.0, 2.9])
        ]
        assert check_history(entries, [rule]) == []
        entries.append(entry("BENCH_x.json", {"pct": 4.0}, ts=9.0))
        (failure,) = check_history(entries, [rule])
        assert "above baseline" in failure

    def test_missing_artifact_and_missing_metric_fail(self):
        assert check_history([], [RULE]) == [
            "BENCH_x.json:m.v: no history entries for BENCH_x.json"
        ]
        entries = [entry("BENCH_x.json", {"other": 1.0}, ts=1.0)]
        (failure,) = check_history(entries, [RULE])
        assert "metric missing from the newest entry" in failure

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            RegressionRule("BENCH_x.json", "m", "sideways")
        with pytest.raises(ValueError):
            RegressionRule("BENCH_x.json", "m", "higher", rel_tolerance=0.0)


def run_script(*argv):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        capture_output=True,
        text=True,
        timeout=60.0,
        cwd=REPO_ROOT,
    )


class TestSentinelScript:
    def write_history(self, tmp_path, values):
        path = tmp_path / HISTORY_NAME
        for i, value in enumerate(values):
            append_bench_history(
                path,
                "BENCH_kernels.json",
                {"filter": {"targets_per_s": value}},
                git_sha="cafe",
                ts=float(i + 1),
            )
        return path

    def test_good_history_exits_zero(self, tmp_path):
        path = self.write_history(tmp_path, [2000.0, 2100.0, 1950.0])
        # Other artifacts' rules fail (no entries) — restricting the
        # check to one artifact's rules needs the full repo history, so
        # this fixture covers only BENCH_kernels rules via the committed
        # repo check below; here assert the kernels verdicts directly.
        result = run_script("--history", str(path))
        assert (
            "ok      BENCH_kernels.json:filter.targets_per_s" in result.stdout
        )

    def test_injected_regression_fails(self, tmp_path):
        # Healthy baseline, then the tentpole acceptance fixture: a
        # collapse far beyond the relative tolerance and the floor.
        path = self.write_history(tmp_path, [2000.0, 2100.0, 1950.0, 12.0])
        result = run_script("--history", str(path))
        assert result.returncode == 1
        assert (
            "FAIL    BENCH_kernels.json:filter.targets_per_s" in result.stdout
        )
        assert "below absolute floor" in result.stdout
        assert "regressed" in result.stdout

    def test_missing_history_exits_two(self, tmp_path):
        result = run_script("--history", str(tmp_path / "nope.jsonl"))
        assert result.returncode == 2
        assert "MISSING" in result.stdout

    def test_malformed_history_exits_one(self, tmp_path):
        path = tmp_path / HISTORY_NAME
        path.write_text("{broken\n")
        result = run_script("--history", str(path))
        assert result.returncode == 1
        assert "INVALID" in result.stdout

    @pytest.mark.skipif(
        not (REPO_ROOT / HISTORY_NAME).is_file(),
        reason="no committed bench history at the repo root",
    )
    def test_committed_repo_history_passes_default_rules(self):
        """The same gate CI runs: the committed baseline must satisfy
        every default rule, or the commit that regressed it is the one
        that has to explain itself."""
        result = run_script()
        assert result.returncode == 0, result.stdout
        entries = load_history(REPO_ROOT / HISTORY_NAME)
        artifacts = {e["artifact"] for e in entries}
        assert {rule.artifact for rule in DEFAULT_RULES} <= artifacts
