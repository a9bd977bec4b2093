#!/usr/bin/env python
"""Fail CI when the newest bench entries regress against their history.

The perf-regression sentinel's CI surface.  Every benchmark run appends
its artifact payload to ``BENCH_HISTORY.jsonl`` (one JSON object per
line: ``{artifact, ts, git_sha, backend_label, payload}`` — see
:mod:`repro.obs.regress`); this script loads that history and judges
each artifact's **newest** entry against

* absolute floors/ceilings (e.g. ``filter.targets_per_s`` must stay
  above its floor no matter what the history says), and
* a relative tolerance against the **median** of the earlier entries —
  the baseline a single noisy CI run cannot move.

The rules live in :data:`repro.obs.regress.DEFAULT_RULES` so the
library, its tests, and CI all judge the same thresholds.

Usage (after running the benchmarks)::

    python scripts/check_bench_regression.py
    python scripts/check_bench_regression.py --history path/to/BENCH_HISTORY.jsonl

Exit status: 0 when every rule passes, 1 on any regression or a
malformed history, 2 when the history file is missing entirely.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.regress import (  # noqa: E402
    DEFAULT_RULES,
    HISTORY_NAME,
    check_history,
    load_history,
)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--history",
        type=Path,
        default=REPO_ROOT / HISTORY_NAME,
        help=f"the history file to judge (default: {HISTORY_NAME} "
        "at the repo root)",
    )
    args = parser.parse_args(argv)
    if not args.history.is_file():
        print(f"MISSING {args.history}: no bench history to judge")
        return 2
    try:
        entries = load_history(args.history)
    except ValueError as exc:
        print(f"INVALID {args.history.name}: {exc}")
        return 1
    if not entries:
        print(f"MISSING {args.history.name}: history is empty")
        return 2
    artifacts = sorted({entry["artifact"] for entry in entries})
    print(
        f"judging {len(entries)} history entries across "
        f"{len(artifacts)} artifacts ({', '.join(artifacts)}) "
        f"against {len(DEFAULT_RULES)} rules"
    )
    failures = check_history(entries, DEFAULT_RULES)
    covered = {
        (rule.artifact, rule.metric)
        for rule in DEFAULT_RULES
        if any(entry["artifact"] == rule.artifact for entry in entries)
    }
    for artifact, metric in sorted(covered):
        verdicts = [f for f in failures if f.startswith(f"{artifact}:{metric}:")]
        if not verdicts:
            print(f"ok      {artifact}:{metric}")
    for failure in failures:
        print(f"FAIL    {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
