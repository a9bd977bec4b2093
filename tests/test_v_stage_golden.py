"""Golden outputs of the V stage on a fixed practical-setting world.

Every :class:`VIDFilter` entry point a caller drives — a batch
``match`` under the default config, with exclusion, with an evidence
cap and with topology pruning plus the prior; ``match_one`` on a filter
that already matched a batch; and a long-lived filter matching again
after the store grew through :meth:`ScenarioStore.add` — is reduced to
a short SHA-256 of what is exact about it: every result's scenario
keys, chosen detection ids and agreement, plus the simulated clock's
stage times and comparison count.  Scores are floating-point products
whose last bits may follow the BLAS library's blocking, so they are
pinned separately, in ``golden/v_stage_scores.json``, to ``rtol=1e-12``.

To re-derive a case after an intentional semantic change, run
``python tests/test_v_stage_golden.py`` from the repository root with
``PYTHONPATH=src`` and paste the printed digests (the scores file is
rewritten) — and say in the change why the V stage's answer moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.set_splitting import SetSplitter
from repro.core.vid_filtering import FilterConfig, VIDFilter
from repro.metrics.timing import SimulatedClock
from repro.sensing.scenarios import ScenarioStore

SCORES_PATH = Path(__file__).resolve().parent / "golden" / "v_stage_scores.json"

#: Targets sampled from the world; enough that batches share pairs.
TARGETS = 24


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _exact(results, clock):
    """What must not move by a single bit."""
    rows = [
        (
            eid.index,
            [(k.cell_id, k.tick) for k in r.scenario_keys],
            [d.detection_id for d in r.chosen],
            r.agreement,
        )
        for eid, r in sorted(results.items())
    ]
    times = clock.times()
    return rows, (times.e_time, times.v_time), clock.comparisons


def _scores(results):
    return [list(r.scores) for _, r in sorted(results.items())]


def _evidence(store, targets):
    return SetSplitter(store).run(targets).evidence


def _batch(dataset, targets, config, use_exclusion=False):
    clock = SimulatedClock()
    evidence = _evidence(dataset.store, targets)
    results = VIDFilter(dataset.store, config, clock).match(
        evidence, use_exclusion=use_exclusion
    )
    return _exact(results, clock), _scores(results)


def case_default(dataset, targets):
    return _batch(dataset, targets, FilterConfig())


def case_exclusion(dataset, targets):
    return _batch(dataset, targets, FilterConfig(), use_exclusion=True)


def case_max_evidence(dataset, targets):
    return _batch(dataset, targets, FilterConfig(max_evidence=3))


def case_topology(dataset, targets):
    """Each target's list gains one foreign sighting, which pruning
    drops or the prior downweights."""
    from repro.topology.matching import TopologyConfig

    store = dataset.store
    keys = store.keys
    evidence = {
        eid: [*ks[:1], keys[(37 * eid.index) % len(keys)], *ks[1:]]
        for eid, ks in _evidence(store, targets).items()
    }
    clock = SimulatedClock()
    vid_filter = VIDFilter(
        store, FilterConfig(topology=TopologyConfig(model=dataset.topology)), clock
    )
    results = vid_filter.match(evidence)
    exact = _exact(results, clock), sorted(vid_filter.topology_report().items())
    return exact, _scores(results)


def case_match_one_after_batch(dataset, targets):
    """A batch warms the filter; single-target matches then read it,
    once on a target's own list and once on a list it never saw."""
    clock = SimulatedClock()
    evidence = _evidence(dataset.store, targets)
    vid_filter = VIDFilter(dataset.store, FilterConfig(), clock)
    vid_filter.match(evidence)
    ordered = sorted(evidence)
    singles = {}
    for i, eid in enumerate(ordered[::3]):
        keys = list(evidence[eid])
        if i % 2:
            keys = keys + list(evidence[ordered[-1 - i]])[:2]
        singles[eid] = vid_filter.match_one(eid, keys)
    return _exact(singles, clock), _scores(singles)


def case_long_lived_after_add(dataset, targets):
    """One filter matches on the first part of the world; the store
    then grows window by window and the same filter matches again."""
    store = dataset.store
    ticks = list(store.ticks)
    cut = ticks[len(ticks) // 2]
    early = [store.get(k) for k in store.keys if k.tick < cut]
    late = sorted(
        (store.get(k) for k in store.keys if k.tick >= cut),
        key=lambda s: (s.key.tick, s.key.cell_id),
    )
    grown = ScenarioStore(early)
    observed = sorted(t for t in targets if t in grown.eid_universe)
    clock = SimulatedClock()
    vid_filter = VIDFilter(grown, FilterConfig(), clock)
    first = vid_filter.match(_evidence(grown, observed))
    for scenario in late:
        grown.add(scenario)
    second = vid_filter.match(_evidence(grown, list(targets)))
    both = {**{(0, e): r for e, r in first.items()},
            **{(1, e): r for e, r in second.items()}}
    rows = [
        (
            round_,
            eid.index,
            [(k.cell_id, k.tick) for k in r.scenario_keys],
            [d.detection_id for d in r.chosen],
            r.agreement,
        )
        for (round_, eid), r in sorted(both.items())
    ]
    times = clock.times()
    exact = rows, (times.e_time, times.v_time), clock.comparisons
    return exact, [list(r.scores) for _, r in sorted(both.items())]


CASES = {
    "default": case_default,
    "exclusion": case_exclusion,
    "max_evidence": case_max_evidence,
    "topology": case_topology,
    "match_one_after_batch": case_match_one_after_batch,
    "long_lived_after_add": case_long_lived_after_add,
}

#: case -> digest of its exact output.
GOLDEN = {
    "default": "8acacdc8f008746b",
    "exclusion": "9e894dc78d4d718f",
    "max_evidence": "12f0ec9f23b69d4b",
    "topology": "9bd1054ea5a58774",
    "match_one_after_batch": "d9c78944ac84206b",
    "long_lived_after_add": "d3f77375bea74017",
}


def _targets(dataset):
    return list(dataset.sample_targets(TARGETS, seed=7))


@pytest.fixture(scope="module")
def golden_scores():
    with open(SCORES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(CASES))
def test_v_stage_golden(practical_dataset, golden_scores, name):
    exact, scores = CASES[name](practical_dataset, _targets(practical_dataset))
    assert _digest(exact) == GOLDEN[name]
    expected = golden_scores[name]
    assert [len(s) for s in scores] == [len(s) for s in expected]
    np.testing.assert_allclose(
        np.concatenate([np.asarray(s, dtype=float) for s in scores] or [[]]),
        np.concatenate([np.asarray(s, dtype=float) for s in expected] or [[]]),
        rtol=1e-12,
        atol=0.0,
    )


if __name__ == "__main__":  # pragma: no cover - re-derivation helper
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from tests.conftest import practical_dataset as fixture

    dataset = fixture.__wrapped__()
    targets = _targets(dataset)
    all_scores = {}
    for case_name, case in CASES.items():
        exact, scores = case(dataset, targets)
        all_scores[case_name] = scores
        print(f'    "{case_name}": "{_digest(exact)}",')
    SCORES_PATH.parent.mkdir(exist_ok=True)
    with open(SCORES_PATH, "w", encoding="utf-8") as fh:
        json.dump(all_scores, fh, indent=0)
        fh.write("\n")
