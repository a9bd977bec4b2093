"""The perf-regression sentinel: BENCH history + direction/tolerance rules.

The ``BENCH_*.json`` artifacts are snapshots — each bench run
overwrites the last, so a commit that halves a kernel's throughput leaves
no evidence once CI goes green.  This module turns the snapshots into
an enforced **trajectory**:

* every :func:`repro.bench.reporting.write_bench_artifact` call appends
  a schema-validated entry to ``BENCH_HISTORY.jsonl`` beside the
  artifact — ``{artifact, ts, git_sha, backend_label, payload}``;
* :class:`RegressionRule`\\ s pin individual metrics (dotted paths into
  the payload) with a **direction** (``"higher"`` / ``"lower"`` is
  better), optional absolute bounds (floor / ceiling), and an optional
  relative tolerance against the committed baseline (the median of the
  earlier entries for that artifact — the median, not the last entry,
  so one noisy CI run cannot move the baseline);
* :func:`check_history` evaluates the rules over a loaded history and
  returns human-readable failure strings —
  ``scripts/check_bench_regression.py`` turns them into a CI failure.

Obs-layer pure: stdlib only, no imports from the rest of ``repro``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

#: Canonical history file name (lives at the repo root, committed).
HISTORY_NAME = "BENCH_HISTORY.jsonl"

#: Required keys of one history entry (the JSONL schema).
_ENTRY_KEYS = ("artifact", "ts", "git_sha", "backend_label", "payload")


def resolve_git_sha(cwd: Optional[Union[str, Path]] = None) -> str:
    """The current commit sha: ``GITHUB_SHA`` in CI, else ``git
    rev-parse HEAD``, else ``"unknown"`` — history append must never
    fail because the environment lacks git."""
    sha = os.environ.get("GITHUB_SHA", "").strip()
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10.0,
            check=False,
        )
        sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return sha or "unknown"


def _backend_label(payload: Mapping[str, Any]) -> str:
    """The first ``backend_label`` annotation found in the payload."""
    for key, value in payload.items():
        if key == "backend_label" and isinstance(value, str):
            return value
        if isinstance(value, Mapping):
            found = _backend_label(value)
            if found:
                return found
    return ""


def validate_history_entry(entry: Any) -> Dict[str, Any]:
    """Schema-check one history entry; returns it, raises ValueError."""
    if not isinstance(entry, Mapping):
        raise ValueError(f"history entry must be an object, got {type(entry).__name__}")
    missing = [key for key in _ENTRY_KEYS if key not in entry]
    if missing:
        raise ValueError(f"history entry missing keys {missing}")
    if not isinstance(entry["artifact"], str) or not entry["artifact"]:
        raise ValueError("history entry 'artifact' must be a non-empty string")
    ts = entry["ts"]
    if not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts <= 0:
        raise ValueError(f"history entry 'ts' must be a positive number, got {ts!r}")
    if not isinstance(entry["git_sha"], str) or not entry["git_sha"]:
        raise ValueError("history entry 'git_sha' must be a non-empty string")
    if not isinstance(entry["backend_label"], str):
        raise ValueError("history entry 'backend_label' must be a string")
    if not isinstance(entry["payload"], Mapping) or not entry["payload"]:
        raise ValueError("history entry 'payload' must be a non-empty object")
    return dict(entry)


def history_entry(
    artifact: str,
    payload: Mapping[str, Any],
    *,
    git_sha: Optional[str] = None,
    ts: Optional[float] = None,
) -> Dict[str, Any]:
    """Build (and validate) one history entry for ``artifact``."""
    entry = {
        "artifact": artifact,
        "ts": float(ts) if ts is not None else time.time(),
        "git_sha": git_sha if git_sha is not None else resolve_git_sha(),
        "backend_label": _backend_label(payload),
        "payload": dict(payload),
    }
    return validate_history_entry(entry)


def append_bench_history(
    history_path: Union[str, Path],
    artifact: str,
    payload: Mapping[str, Any],
    *,
    git_sha: Optional[str] = None,
    ts: Optional[float] = None,
) -> Dict[str, Any]:
    """Append one validated entry to the JSONL history; returns it."""
    entry = history_entry(artifact, payload, git_sha=git_sha, ts=ts)
    path = Path(history_path)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(history_path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse + validate a ``BENCH_HISTORY.jsonl``; raises ValueError
    naming the offending line on any malformed entry."""
    entries: List[Dict[str, Any]] = []
    path = Path(history_path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = validate_history_entry(json.loads(line))
            except (json.JSONDecodeError, ValueError) as exc:
                raise ValueError(
                    f"{path.name}:{lineno}: invalid history entry ({exc})"
                ) from exc
            entries.append(entry)
    return entries


@dataclass(frozen=True)
class RegressionRule:
    """One pinned metric: where it lives, which way is better, and how
    far it may move.

    Attributes:
        artifact: ``BENCH_*.json`` name the metric lives in.
        metric: dotted path into the payload
            (``"filter.targets_per_s"``).
        direction: ``"higher"`` (throughput-like) or ``"lower"``
            (overhead-like) is better.
        floor: absolute minimum (``direction="higher"`` rules).
        ceiling: absolute maximum (``direction="lower"`` rules).
        rel_tolerance: allowed fractional regression against the
            baseline (median of earlier entries); ``None`` disables the
            relative check (used for near-zero percentages whose ratio
            is pure noise).
    """

    artifact: str
    metric: str
    direction: str
    floor: Optional[float] = None
    ceiling: Optional[float] = None
    rel_tolerance: Optional[float] = 0.5

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(
                f"direction must be 'higher' or 'lower', got {self.direction!r}"
            )
        if self.rel_tolerance is not None and not 0 < self.rel_tolerance:
            raise ValueError(
                f"rel_tolerance must be positive, got {self.rel_tolerance}"
            )

    def __str__(self) -> str:
        return f"{self.artifact}:{self.metric}"


#: The committed trajectory pins.  Absolute bounds are deliberately
#: loose — they catch catastrophic breakage on any machine, including
#: slow shared CI runners — while the relative tolerances catch the
#: gradual slide against this repo's own committed baseline.
DEFAULT_RULES: Sequence[RegressionRule] = (
    RegressionRule(
        "BENCH_kernels.json", "filter.targets_per_s", "higher",
        floor=50.0, rel_tolerance=0.9,
    ),
    RegressionRule(
        "BENCH_obs.json", "overhead.overhead_pct", "lower",
        ceiling=10.0, rel_tolerance=None,
    ),
    RegressionRule(
        "BENCH_obs.json", "profiler.overhead_pct", "lower",
        ceiling=5.0, rel_tolerance=None,
    ),
    RegressionRule(
        "BENCH_cluster.json", "process_scaling.speedup", "higher",
        floor=1.5, rel_tolerance=0.75,
    ),
    RegressionRule(
        "BENCH_stream.json", "throughput.events_per_sec", "higher",
        floor=2000.0, rel_tolerance=0.9,
    ),
    RegressionRule(
        "BENCH_topology.json", "dense.comparisons_ratio", "higher",
        floor=3.0, rel_tolerance=0.9,
    ),
    RegressionRule(
        "BENCH_topology.json", "dense.topology_accuracy_pct", "higher",
        floor=90.0, rel_tolerance=0.5,
    ),
)


def metric_value(payload: Mapping[str, Any], dotted: str) -> Optional[float]:
    """Resolve a dotted path to a finite number, else ``None``."""
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    value = float(node)
    return value if math.isfinite(value) else None


def check_history(
    entries: Iterable[Mapping[str, Any]],
    rules: Sequence[RegressionRule] = DEFAULT_RULES,
) -> List[str]:
    """Evaluate ``rules`` over a loaded history; returns failures.

    Per rule: the newest entry for the rule's artifact is *current*;
    the median of the earlier entries' values is the *baseline*.  The
    absolute bound always applies to current; the relative tolerance
    applies only when a baseline exists (>= 1 earlier entry carrying
    the metric).
    """
    by_artifact: Dict[str, List[Mapping[str, Any]]] = {}
    for entry in entries:
        by_artifact.setdefault(str(entry["artifact"]), []).append(entry)
    for history in by_artifact.values():
        history.sort(key=lambda e: float(e["ts"]))

    failures: List[str] = []
    for rule in rules:
        history = by_artifact.get(rule.artifact, [])
        if not history:
            failures.append(f"{rule}: no history entries for {rule.artifact}")
            continue
        current_entry = history[-1]
        current = metric_value(current_entry["payload"], rule.metric)
        if current is None:
            failures.append(
                f"{rule}: metric missing from the newest entry "
                f"(sha {current_entry['git_sha'][:12]})"
            )
            continue
        if rule.floor is not None and current < rule.floor:
            failures.append(
                f"{rule}: {current:g} below absolute floor {rule.floor:g}"
            )
        if rule.ceiling is not None and current > rule.ceiling:
            failures.append(
                f"{rule}: {current:g} above absolute ceiling {rule.ceiling:g}"
            )
        if rule.rel_tolerance is None:
            continue
        earlier = [
            value
            for entry in history[:-1]
            if (value := metric_value(entry["payload"], rule.metric))
            is not None
        ]
        if not earlier:
            continue
        baseline = statistics.median(earlier)
        if baseline <= 0:
            continue
        if rule.direction == "higher":
            bound = baseline * (1.0 - rule.rel_tolerance)
            if current < bound:
                failures.append(
                    f"{rule}: {current:g} regressed more than "
                    f"{rule.rel_tolerance:.0%} below baseline {baseline:g} "
                    f"(bound {bound:g})"
                )
        else:
            bound = baseline * (1.0 + rule.rel_tolerance)
            if current > bound:
                failures.append(
                    f"{rule}: {current:g} regressed more than "
                    f"{rule.rel_tolerance:.0%} above baseline {baseline:g} "
                    f"(bound {bound:g})"
                )
    return failures
