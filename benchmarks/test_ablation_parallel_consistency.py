"""Ablation — serial vs MapReduce pipelines produce the same results.

The parallel pipeline (Algorithm 3 + the two V-stage jobs) runs the
serial stages' own bookkeeping and scoring, and Algorithm 3 examines
scenarios in random-tick order, so the serial matcher with the
``RANDOM_TICK`` strategy must agree with it exactly: same accuracy,
same selected scenarios, same evidence length per EID.
"""

from conftest import emit
from repro.bench.datasets import dataset, default_config
from repro.bench.reporting import render_rows
from repro.core.matcher import EVMatcher, MatcherConfig
from repro.core.set_splitting import SelectionStrategy, SplitConfig
from repro.parallel.driver import ParallelEVMatcher


def _consistency_rows():
    ds = dataset(default_config(num_people=400, cells_per_side=4, duration=1000.0))
    targets = list(ds.sample_targets(min(120, len(ds.eids)), seed=11))
    split = SplitConfig(seed=7, strategy=SelectionStrategy.RANDOM_TICK)
    serial = EVMatcher(ds.store, MatcherConfig(split=split)).match(targets)
    par = ParallelEVMatcher(ds.store, split_config=split).match(targets)
    rows = [
        {
            "pipeline": "serial",
            "acc_pct": round(serial.score(ds.truth).percentage, 2),
            "selected": serial.num_selected,
            "per_eid": round(serial.avg_scenarios_per_eid, 2),
        },
        {
            "pipeline": "mapreduce",
            "acc_pct": round(par.score(ds.truth).percentage, 2),
            "selected": par.num_selected,
            "per_eid": round(par.avg_scenarios_per_eid, 2),
        },
    ]
    return ("pipeline", "acc_pct", "selected", "per_eid"), rows


def test_parallel_consistency(run_once):
    columns, rows = run_once(_consistency_rows)
    emit(render_rows("Ablation — serial vs MapReduce pipeline", columns, rows))
    serial = next(r for r in rows if r["pipeline"] == "serial")
    par = next(r for r in rows if r["pipeline"] == "mapreduce")
    for column in ("acc_pct", "selected", "per_eid"):
        assert par[column] == serial[column], column
