"""Regenerate ``pinned_accuracy.json``: correct matches per target sample.

``batch-paper`` fails a run whose accuracy differs from the value
pinned here for its target sample.  Re-pin only when a change is meant
to move accuracy, and say so in that change::

    python3 perfbench/pin_accuracy.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    os.environ.pop("REPRO_BENCH_SCALE", None)
    from batch import PINNED_PATH
    from common import SAMPLES, TARGETS, build_world, paper_config
    from repro.core.matcher import EVMatcher

    dataset, _ = build_world(paper_config())
    matcher = EVMatcher(dataset.store)
    pinned = {}
    for sample in range(SAMPLES):
        targets = dataset.sample_targets(TARGETS, seed=sample)
        score = matcher.match(targets).score(dataset.truth)
        pinned[str(sample)] = score.correct
        print(f"sample {sample}: {score.correct}/{score.total}", flush=True)
    with open(PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
