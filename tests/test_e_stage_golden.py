"""Golden digests of the E stage on a fixed practical-setting world.

Every E-stage entry point — :class:`SetSplitter` under each selection
strategy and rule combination, the :class:`EDPMatcher` baseline and the
:class:`IncrementalMatcher` stream — is reduced to a short SHA-256 of
its observable output (recorded scenarios, per-target evidence and
candidates, examined count; for the stream, pending targets, evidence
and emission timing) and the ``repr`` of the simulated E time its
clock accumulated.  The digests pin the E stage's exact behaviour,
so a refactor or speed-up of the candidate-set code must reproduce
them bit for bit, down to the order its E-Scenario charges add up in.

To re-derive a digest after an intentional semantic change, run the
case's ``digest_*`` helper on the ``practical_dataset`` fixture's world
and paste the new value — and say in the change why the E stage's
answer moved.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.core.edp import EDPConfig, EDPMatcher
from repro.core.incremental import IncrementalMatcher
from repro.core.set_splitting import SelectionStrategy, SetSplitter, SplitConfig
from repro.world.entities import EID

#: An EID no scenario ever observed: a universe containing it exercises
#: the "unobserved candidates survive until the first evidence" rule.
UNOBSERVED = EID(10**6)


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _key(key):
    return (key.cell_id, key.tick)


def _e_time(clock) -> str:
    """The simulated E time, every bit of it."""
    return repr(clock.times().e_time)


def _targets(store, count=8):
    """Every ``len/count``-th observed EID: spread over the population."""
    universe = sorted(store.eid_universe)
    return universe[:: max(1, len(universe) // count)][:count]


def _evidence(targets, evidence_of):
    return [(t.index, [_key(k) for k in evidence_of(t)]) for t in targets]


def _e_output(result):
    candidates = [
        (t.index, sorted(e.index for e in result.candidates[t]))
        for t in result.targets
    ]
    return (
        _evidence(result.targets, result.evidence.__getitem__),
        candidates,
        result.scenarios_examined,
    )


def digest_split(store, strategy, merge_vague, gap, budget, extra=False):
    universe = sorted(store.eid_universe) + ([UNOBSERVED] if extra else [])
    config = SplitConfig(
        strategy=strategy,
        seed=3,
        max_scenarios=budget,
        treat_vague_as_inclusive=merge_vague,
        min_gap_ticks=gap,
    )
    splitter = SetSplitter(store, config)
    result = splitter.run(_targets(store), universe=universe)
    return _digest(
        (
            [_key(k) for k in result.recorded],
            _e_output(result),
            _e_time(splitter.clock),
        )
    )


def digest_edp(store, greedy_sample, gap, budget, extra=False):
    universe = sorted(store.eid_universe) + ([UNOBSERVED] if extra else [])
    config = EDPConfig(
        seed=5,
        max_scenarios_per_eid=budget,
        greedy_sample=greedy_sample,
        min_gap_ticks=gap,
    )
    matcher = EDPMatcher(store, config)
    result = matcher.run(_targets(store), universe=universe)
    return _digest((_e_output(result), _e_time(matcher.clock)))


def digest_incremental(store, merge_vague, gap):
    """Replay the store in tick order; half the targets join mid-stream."""
    universe = sorted(store.eid_universe)
    targets = _targets(store)
    stream = IncrementalMatcher(
        store,
        universe,
        split_config=SplitConfig(
            treat_vague_as_inclusive=merge_vague, min_gap_ticks=gap
        ),
    )
    stream.add_targets(targets[::2])
    ticks = store.ticks
    fired = []
    for i, tick in enumerate(ticks):
        if i == len(ticks) // 3:
            stream.add_targets(targets[1::2])
        fired.extend(
            (em.eid.index, em.emitted_at_tick, em.scenarios_consumed)
            for em in stream.observe_tick(store, tick)
        )
    return _digest(
        (
            fired,
            sorted(t.index for t in stream.pending),
            _evidence(targets, stream.evidence_of),
            _e_time(stream.clock),
        )
    )


SPLIT_CASES = [
    (strategy, merge, gap, budget)
    for strategy, merge, gap, budget in itertools.product(
        SelectionStrategy, (False, True), (0, 5), (None, 40, 350)
    )
]

#: (greedy_sample, min_gap_ticks, max_scenarios_per_eid, extra).
EDP_CASES = [
    *itertools.product((1, 12), (0, 5), (None, 2), (False,)),
    (12, 5, None, True),
]

#: (treat_vague_as_inclusive, min_gap_ticks).
INCREMENTAL_CASES = list(itertools.product((False, True), (0, 5)))

#: (strategy, treat_vague_as_inclusive, min_gap_ticks, max_scenarios)
#: -> digest.
SPLIT_GOLDEN = {
    (SelectionStrategy.RANDOM, False, 0, None): 'bc0978a3fbae0923',
    (SelectionStrategy.RANDOM, False, 0, 40): 'b074e07206a936af',
    (SelectionStrategy.RANDOM, False, 0, 350): 'bc0978a3fbae0923',
    (SelectionStrategy.RANDOM, False, 5, None): '7d48832b1d0886ca',
    (SelectionStrategy.RANDOM, False, 5, 40): '20da5487d3b47696',
    (SelectionStrategy.RANDOM, False, 5, 350): '7d48832b1d0886ca',
    (SelectionStrategy.RANDOM, True, 0, None): '39c41a5949a1bdf3',
    (SelectionStrategy.RANDOM, True, 0, 40): '1ba2c9d6bd7a6421',
    (SelectionStrategy.RANDOM, True, 0, 350): '39c41a5949a1bdf3',
    (SelectionStrategy.RANDOM, True, 5, None): '7ea8620cf46bbf7e',
    (SelectionStrategy.RANDOM, True, 5, 40): 'bf2081378f894b4a',
    (SelectionStrategy.RANDOM, True, 5, 350): '7ea8620cf46bbf7e',
    (SelectionStrategy.SEQUENTIAL, False, 0, None): '3f6bf0008552b28a',
    (SelectionStrategy.SEQUENTIAL, False, 0, 40): 'ed9cf06b9dbe38bc',
    (SelectionStrategy.SEQUENTIAL, False, 0, 350): '3f6bf0008552b28a',
    (SelectionStrategy.SEQUENTIAL, False, 5, None): 'e080527b5288de6d',
    (SelectionStrategy.SEQUENTIAL, False, 5, 40): 'db8e7c1281aea95d',
    (SelectionStrategy.SEQUENTIAL, False, 5, 350): 'e080527b5288de6d',
    (SelectionStrategy.SEQUENTIAL, True, 0, None): '0e73b970a0b5d034',
    (SelectionStrategy.SEQUENTIAL, True, 0, 40): 'fde6e932a214d8a8',
    (SelectionStrategy.SEQUENTIAL, True, 0, 350): '0e73b970a0b5d034',
    (SelectionStrategy.SEQUENTIAL, True, 5, None): '6a51d052c08a9bfa',
    (SelectionStrategy.SEQUENTIAL, True, 5, 40): 'ab59dc5a3066eb5f',
    (SelectionStrategy.SEQUENTIAL, True, 5, 350): '6a51d052c08a9bfa',
    (SelectionStrategy.RANDOM_TICK, False, 0, None): '9fd92e7fdf4f3f5d',
    (SelectionStrategy.RANDOM_TICK, False, 0, 40): '72063365da388326',
    (SelectionStrategy.RANDOM_TICK, False, 0, 350): '9fd92e7fdf4f3f5d',
    (SelectionStrategy.RANDOM_TICK, False, 5, None): '9266570e00ea9359',
    (SelectionStrategy.RANDOM_TICK, False, 5, 40): 'b5fd9b2f024be3f8',
    (SelectionStrategy.RANDOM_TICK, False, 5, 350): '9266570e00ea9359',
    (SelectionStrategy.RANDOM_TICK, True, 0, None): '1a49ade9180a2f88',
    (SelectionStrategy.RANDOM_TICK, True, 0, 40): 'c71c51ae97cff3bc',
    (SelectionStrategy.RANDOM_TICK, True, 0, 350): '1a49ade9180a2f88',
    (SelectionStrategy.RANDOM_TICK, True, 5, None): 'b42484fbe6045ad3',
    (SelectionStrategy.RANDOM_TICK, True, 5, 40): '67ddd5585b6affde',
    (SelectionStrategy.RANDOM_TICK, True, 5, 350): 'b42484fbe6045ad3',
    (SelectionStrategy.GREEDY, False, 0, None): '2eaed68d3d3d9f0d',
    (SelectionStrategy.GREEDY, False, 0, 40): '6efbfcabd1fed84f',
    (SelectionStrategy.GREEDY, False, 0, 350): '09043f36cd2392d6',
    (SelectionStrategy.GREEDY, False, 5, None): 'b60e8f0e46d61301',
    (SelectionStrategy.GREEDY, False, 5, 40): '6efbfcabd1fed84f',
    (SelectionStrategy.GREEDY, False, 5, 350): '09043f36cd2392d6',
    (SelectionStrategy.GREEDY, True, 0, None): '6c4226b88a92bcd5',
    (SelectionStrategy.GREEDY, True, 0, 40): '37751c0160fc16ff',
    (SelectionStrategy.GREEDY, True, 0, 350): '0388b3811c12c23b',
    (SelectionStrategy.GREEDY, True, 5, None): '94a4c2486791f265',
    (SelectionStrategy.GREEDY, True, 5, 40): '37751c0160fc16ff',
    (SelectionStrategy.GREEDY, True, 5, 350): '0388b3811c12c23b',
}

#: Universe with one unobserved EID, per strategy, under a 40-scenario
#: budget (so some targets end without evidence).
SPLIT_EXTRA_GOLDEN = {
    SelectionStrategy.RANDOM: 'ed156ec33a28bfbe',
    SelectionStrategy.SEQUENTIAL: '01f48457cf91e391',
    SelectionStrategy.RANDOM_TICK: 'b5fd9b2f024be3f8',
    SelectionStrategy.GREEDY: 'c304e68e21a40507',
}

#: EDP_CASES entry -> digest.
EDP_GOLDEN = {
    (1, 0, None, False): '2fca8349ce52684a',
    (1, 0, 2, False): 'be84c7670c4bb3c4',
    (1, 5, None, False): '2a8044c7c602d601',
    (1, 5, 2, False): '6760bc6c2aacc7f4',
    (12, 0, None, False): '0778e59aa0d222b5',
    (12, 0, 2, False): 'f2f0e57e7b6bf5da',
    (12, 5, None, False): '3f4aef9a784cef04',
    (12, 5, 2, False): 'f2f0e57e7b6bf5da',
    (12, 5, None, True): '3f4aef9a784cef04',
}

#: INCREMENTAL_CASES entry -> digest.
INCREMENTAL_GOLDEN = {
    (False, 0): '3d93e6a70610d9cb',
    (False, 5): '788e0673c866919b',
    (True, 0): '86662d7dae8e0947',
    (True, 5): '5560f5b03962f66d',
}


def _case_id(case):
    return "-".join(
        c.value if isinstance(c, SelectionStrategy) else str(c) for c in case
    )


@pytest.fixture(scope="module")
def store(practical_dataset):
    return practical_dataset.store


@pytest.mark.parametrize("case", SPLIT_CASES, ids=_case_id)
def test_set_splitter_golden(store, case):
    assert digest_split(store, *case) == SPLIT_GOLDEN[case]


@pytest.mark.parametrize(
    "strategy", list(SelectionStrategy), ids=lambda s: s.value
)
def test_set_splitter_unobserved_universe_golden(store, strategy):
    assert (
        digest_split(store, strategy, False, 5, 40, extra=True)
        == SPLIT_EXTRA_GOLDEN[strategy]
    )


@pytest.mark.parametrize("case", EDP_CASES, ids=_case_id)
def test_edp_golden(store, case):
    assert digest_edp(store, *case) == EDP_GOLDEN[case]


@pytest.mark.parametrize("case", INCREMENTAL_CASES, ids=_case_id)
def test_incremental_golden(store, case):
    assert digest_incremental(store, *case) == INCREMENTAL_GOLDEN[case]
