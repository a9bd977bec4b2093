#!/usr/bin/env python
"""Fail CI when a benchmark's BENCH_*.json artifact is missing or malformed.

Every perf-tier benchmark that advertises a trajectory file (any
``BENCH_<name>.json`` mentioned in its source) must actually have
written it — a bench that silently stops emitting would otherwise
break the perf trajectory without failing anything.

Each declared file must exist at the repo root, parse as JSON, and
satisfy the trajectory schema enforced at write time by
:func:`repro.bench.reporting.validate_bench_payload`: a non-empty
object whose leaves are all finite numbers (nested string-keyed
objects allowed for grouping).

Usage (after running the benchmarks)::

    python scripts/check_bench_artifacts.py [bench_file.py ...]
    python scripts/check_bench_artifacts.py --report sample_report.md
    python scripts/check_bench_artifacts.py --chrome-trace trace.json

With no positional arguments, every ``benchmarks/test_*.py`` that
mentions a ``BENCH_*.json`` name is checked.  ``--report`` additionally
validates a flight-recorder run report (``repro match --report`` /
``repro report --from-events``): the file must carry every pinned
section heading.  ``--chrome-trace`` validates a merged cluster trace
(the gateway's ``trace`` verb): Chrome trace-event JSON with complete
spans from at least two processes, all under one trace id.
``--collapsed`` / ``--speedscope`` validate profiler artifacts
(``repro cluster profile`` / ``repro match --profile``): non-empty
stacks with positive counts, speedscope weights monotone
non-increasing per profile with all frame indices in range, and —
with ``--profile-workers N`` — stacks from at least N distinct
``worker=<id>`` roots (collapsed) / N profiles (speedscope).  Exit
status 0 when everything passes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.reporting import validate_bench_payload  # noqa: E402
from repro.obs import RUN_REPORT_SECTIONS  # noqa: E402

BENCH_NAME = re.compile(r"\bBENCH_[A-Za-z0-9_]+\.json\b")

#: Per-artifact required top-level entries.  A bench edit that silently
#: drops one of these measurements must fail CI even though the
#: remaining payload still satisfies the generic schema.
REQUIRED_ENTRIES = {
    "BENCH_kernels.json": ("filter",),
    "BENCH_obs.json": ("overhead", "event_shipping", "profiler"),
    "BENCH_topology.json": ("dense", "sparse"),
}


def declared_artifacts(sources) -> dict:
    """``{artifact name: [declaring bench files]}`` from the sources."""
    declared: dict = {}
    for source in sources:
        for name in sorted(set(BENCH_NAME.findall(source.read_text()))):
            declared.setdefault(name, []).append(source.name)
    return declared


def check(sources) -> int:
    declared = declared_artifacts(sources)
    if not declared:
        print("no BENCH_*.json artifacts declared by", len(sources), "files")
        return 0
    failures = 0
    for name, owners in sorted(declared.items()):
        path = REPO_ROOT / name
        owner = ", ".join(owners)
        if not path.is_file():
            print(f"MISSING {name} (declared by {owner})")
            failures += 1
            continue
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            print(f"INVALID {name}: not JSON ({exc})")
            failures += 1
            continue
        try:
            validate_bench_payload(payload, name=name)
        except ValueError as exc:
            print(f"INVALID {name}: {exc}")
            failures += 1
            continue
        missing = [
            key
            for key in REQUIRED_ENTRIES.get(name, ())
            if key not in payload
        ]
        if missing:
            print(f"INVALID {name}: missing required entries {missing}")
            failures += 1
            continue
        print(f"ok      {name}: {len(payload)} measurements (from {owner})")
    return 1 if failures else 0


def check_report(path: Path) -> int:
    """Validate a flight-recorder run report's pinned sections."""
    if not path.is_file():
        print(f"MISSING report {path}")
        return 1
    text = path.read_text()
    failures = 0
    for section in RUN_REPORT_SECTIONS:
        if section not in text:
            print(f"INVALID report {path.name}: missing section {section!r}")
            failures += 1
    if not text.lstrip().startswith("# Run report:"):
        print(f"INVALID report {path.name}: missing run-report title")
        failures += 1
    if not failures:
        print(f"ok      {path.name}: all {len(RUN_REPORT_SECTIONS)} sections present")
    return 1 if failures else 0


def check_chrome_trace(path: Path) -> int:
    """Validate a merged cluster Chrome trace artifact's schema.

    The shape the ISSUE pins: ``traceEvents`` holding complete
    (``ph == "X"``) spans from >= 2 distinct pids (gateway + at least
    one worker), every span's args carrying the one shared trace id,
    and every non-root parent id resolving inside the trace.
    """
    if not path.is_file():
        print(f"MISSING chrome trace {path}")
        return 1
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        print(f"INVALID chrome trace {path.name}: not JSON ({exc})")
        return 1
    failures = 0
    spans = [
        e for e in payload.get("traceEvents", ()) if e.get("ph") == "X"
    ]
    if not spans:
        print(f"INVALID chrome trace {path.name}: no complete (ph=X) spans")
        return 1
    pids = {e.get("pid") for e in spans}
    if len(pids) < 2:
        print(
            f"INVALID chrome trace {path.name}: spans from only "
            f"{len(pids)} process(es); a merged cluster trace needs the "
            "gateway plus at least one worker"
        )
        failures += 1
    trace_ids = {e.get("args", {}).get("trace_id") for e in spans}
    if len(trace_ids) != 1 or None in trace_ids:
        print(
            f"INVALID chrome trace {path.name}: expected one shared "
            f"trace id, saw {sorted(map(str, trace_ids))}"
        )
        failures += 1
    span_ids = {e.get("args", {}).get("span_id") for e in spans}
    dangling = [
        parent
        for e in spans
        if (parent := e.get("args", {}).get("parent_span_id")) is not None
        and parent not in span_ids
    ]
    if dangling:
        print(
            f"INVALID chrome trace {path.name}: dangling parent span "
            f"ids {sorted(set(dangling))}"
        )
        failures += 1
    if not failures:
        print(
            f"ok      {path.name}: {len(spans)} spans across "
            f"{len(pids)} processes, one trace id"
        )
    return 1 if failures else 0


def check_collapsed(path: Path, profile_workers: int) -> int:
    """Validate a collapsed-stack profile (``frame;frame count`` lines).

    Every line must carry a non-empty stack and a positive integer
    count; with ``profile_workers`` > 0 the stacks must be rooted under
    at least that many distinct ``worker=<id>`` frames — the shape the
    cluster ``profile`` verb merges.
    """
    if not path.is_file():
        print(f"MISSING collapsed profile {path}")
        return 1
    failures = 0
    workers = set()
    stacks = 0
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        stack, _, count = line.rpartition(" ")
        if not stack or not count.isdigit() or int(count) <= 0:
            print(
                f"INVALID collapsed {path.name}:{lineno}: expected "
                f"'frame;frame <count>', got {line!r}"
            )
            failures += 1
            continue
        frames = stack.split(";")
        if not all(frames):
            print(f"INVALID collapsed {path.name}:{lineno}: empty frame")
            failures += 1
            continue
        stacks += 1
        if frames[0].startswith("worker="):
            workers.add(frames[0])
    if stacks == 0:
        print(f"INVALID collapsed {path.name}: no stacks")
        return 1
    if len(workers) < profile_workers:
        print(
            f"INVALID collapsed {path.name}: stacks from only "
            f"{len(workers)} worker(s) {sorted(workers)}; "
            f"expected >= {profile_workers}"
        )
        failures += 1
    if not failures:
        suffix = f" from {len(workers)} workers" if workers else ""
        print(f"ok      {path.name}: {stacks} stacks{suffix}")
    return 1 if failures else 0


def check_speedscope(path: Path, profile_workers: int) -> int:
    """Validate a speedscope ``"sampled"`` document.

    Each profile must have parallel ``samples``/``weights`` arrays,
    frame indices inside the shared frame table, and weights monotone
    non-increasing (the exporter sorts stacks heaviest-first, so an
    out-of-order weight means a broken export).
    """
    if not path.is_file():
        print(f"MISSING speedscope profile {path}")
        return 1
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        print(f"INVALID speedscope {path.name}: not JSON ({exc})")
        return 1
    frames = payload.get("shared", {}).get("frames", [])
    profiles = payload.get("profiles", [])
    failures = 0
    if not profiles:
        print(f"INVALID speedscope {path.name}: no profiles")
        return 1
    if len(profiles) < profile_workers:
        print(
            f"INVALID speedscope {path.name}: only {len(profiles)} "
            f"profile(s); expected >= {profile_workers}"
        )
        failures += 1
    for profile in profiles:
        name = profile.get("name", "?")
        samples = profile.get("samples", [])
        weights = profile.get("weights", [])
        if not samples or len(samples) != len(weights):
            print(
                f"INVALID speedscope {path.name} [{name}]: "
                f"{len(samples)} samples vs {len(weights)} weights"
            )
            failures += 1
            continue
        flat = [idx for stack in samples for idx in stack]
        if any(not 0 <= idx < len(frames) for idx in flat):
            print(
                f"INVALID speedscope {path.name} [{name}]: frame index "
                f"out of range (table has {len(frames)} frames)"
            )
            failures += 1
        if any(w <= 0 for w in weights):
            print(f"INVALID speedscope {path.name} [{name}]: weight <= 0")
            failures += 1
        if any(a < b for a, b in zip(weights, weights[1:])):
            print(
                f"INVALID speedscope {path.name} [{name}]: weights not "
                "monotone non-increasing (stacks must sort heaviest first)"
            )
            failures += 1
    if not failures:
        print(
            f"ok      {path.name}: {len(profiles)} profiles, "
            f"{len(frames)} shared frames"
        )
    return 1 if failures else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("sources", nargs="*", help="bench files to scan")
    parser.add_argument(
        "--report",
        type=Path,
        help="also validate a run-report markdown file's sections",
    )
    parser.add_argument(
        "--chrome-trace",
        type=Path,
        help="also validate a merged cluster Chrome trace artifact",
    )
    parser.add_argument(
        "--collapsed",
        type=Path,
        help="also validate a collapsed-stack profile artifact",
    )
    parser.add_argument(
        "--speedscope",
        type=Path,
        help="also validate a speedscope profile artifact",
    )
    parser.add_argument(
        "--profile-workers",
        type=int,
        default=0,
        help="distinct worker= roots (--collapsed) / profiles "
        "(--speedscope) the profile artifacts must span",
    )
    args = parser.parse_args(argv)
    if args.sources:
        sources = [Path(arg) for arg in args.sources]
        missing = [p for p in sources if not p.is_file()]
        if missing:
            print("no such bench file:", ", ".join(str(p) for p in missing))
            return 2
    else:
        sources = sorted((REPO_ROOT / "benchmarks").glob("test_*.py"))
    status = check(sources)
    if args.report is not None:
        status = max(status, check_report(args.report))
    if args.chrome_trace is not None:
        status = max(status, check_chrome_trace(args.chrome_trace))
    if args.collapsed is not None:
        status = max(
            status, check_collapsed(args.collapsed, args.profile_workers)
        )
    if args.speedscope is not None:
        status = max(
            status, check_speedscope(args.speedscope, args.profile_workers)
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
