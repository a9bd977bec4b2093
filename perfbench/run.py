"""End-to-end benchmark of the EV-Matching reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload batch-paper --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` wraps each layer's public entry points in spans and
reports the per-layer metrics instead.  Every metric is printed by name
with its unit, then the host facts, and the last line of standard
output is the result object.  The exit code is 1 when a correctness
check fails and 2 when the benchmark cannot run (for example outside a
checkout that holds ``src/repro``).  See ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("batch-paper", "serve-gateway", "ingest-live")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    # The benchmark always measures the paper shape.
    os.environ.pop("REPRO_BENCH_SCALE", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from common import END_TO_END, work_dir
    from host import cpu_ticks, host_facts, steal_share

    if args.workload == "batch-paper":
        import batch as workload
    elif args.workload == "serve-gateway":
        import serve as workload
    else:
        import ingest as workload
    ticks = cpu_ticks()
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    outcome.facts["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
    result = outcome.result(bool(args.trace))

    # Every metric by name and unit.  A traced run's end-to-end values
    # include the tracing overhead, so only its per-layer ones are the
    # result there.
    for name, unit in END_TO_END.items():
        label = f"traced {name}" if args.trace else name
        print(f"{label:32s} {outcome.end_to_end[name]:14.6g} {unit}")
    if args.trace:
        for name, metric in result["metrics"].items():
            print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    if args.trace:
        trace_dir = work_dir(ROOT)
        for phase, recorder in outcome.recorders.items():
            recorder.dump(
                trace_dir / f"spans-{args.workload}-{args.seed}-{phase}.json"
            )
    facts = {"workload": args.workload, "seed": args.seed, **host_facts(ROOT)}
    facts.update(outcome.facts)
    print("facts " + json.dumps(facts, sort_keys=True, default=str))
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
