"""Golden digests of the E stage on a fixed practical-setting world.

Every E-stage entry point — :class:`SetSplitter` under each selection
strategy and rule combination, the :class:`EDPMatcher` baseline and the
:class:`IncrementalMatcher` stream — is reduced to a short SHA-256 of
its observable output (recorded scenarios, per-target evidence and
candidates, examined count; for the stream, pending targets, evidence
and emission timing).  The digests pin the E stage's exact behaviour,
so a refactor or speed-up of the candidate-set code must reproduce
them bit for bit.

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
    result = SetSplitter(store, config).run(_targets(store), universe=universe)
    return _digest(([_key(k) for k in result.recorded], _e_output(result)))


def digest_edp(store, greedy_sample, gap, budget, extra=False):
    universe = sorted(store.eid_universe) + ([UNOBSERVED] if extra else [])
    config = EDPConfig(
        seed=5,
        max_scenarios_per_eid=budget,
        greedy_sample=greedy_sample,
        min_gap_ticks=gap,
    )
    result = EDPMatcher(store, config).run(_targets(store), universe=universe)
    return _digest(_e_output(result))


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
    (SelectionStrategy.RANDOM, False, 0, None): 'd26bfc139da90608',
    (SelectionStrategy.RANDOM, False, 0, 40): '2567582b4afd743a',
    (SelectionStrategy.RANDOM, False, 0, 350): 'd26bfc139da90608',
    (SelectionStrategy.RANDOM, False, 5, None): '9be78496dcf05e13',
    (SelectionStrategy.RANDOM, False, 5, 40): 'f63596e4122a4b22',
    (SelectionStrategy.RANDOM, False, 5, 350): '9be78496dcf05e13',
    (SelectionStrategy.RANDOM, True, 0, None): 'f131c95e19ef78d7',
    (SelectionStrategy.RANDOM, True, 0, 40): '286ee6a1069413c3',
    (SelectionStrategy.RANDOM, True, 0, 350): 'f131c95e19ef78d7',
    (SelectionStrategy.RANDOM, True, 5, None): '959da9a754539a2a',
    (SelectionStrategy.RANDOM, True, 5, 40): '6c1a6e16c89e7b12',
    (SelectionStrategy.RANDOM, True, 5, 350): '959da9a754539a2a',
    (SelectionStrategy.SEQUENTIAL, False, 0, None): '56071c9a81d43597',
    (SelectionStrategy.SEQUENTIAL, False, 0, 40): '2e6de6496bfe8ccd',
    (SelectionStrategy.SEQUENTIAL, False, 0, 350): '56071c9a81d43597',
    (SelectionStrategy.SEQUENTIAL, False, 5, None): '31c195ce6038a727',
    (SelectionStrategy.SEQUENTIAL, False, 5, 40): '7a35d0aefd9f39a7',
    (SelectionStrategy.SEQUENTIAL, False, 5, 350): '31c195ce6038a727',
    (SelectionStrategy.SEQUENTIAL, True, 0, None): '692727e36fc9c869',
    (SelectionStrategy.SEQUENTIAL, True, 0, 40): '540ba8ef0415bf07',
    (SelectionStrategy.SEQUENTIAL, True, 0, 350): '692727e36fc9c869',
    (SelectionStrategy.SEQUENTIAL, True, 5, None): 'e983601f91c59348',
    (SelectionStrategy.SEQUENTIAL, True, 5, 40): '6fe50ed01516e7df',
    (SelectionStrategy.SEQUENTIAL, True, 5, 350): 'e983601f91c59348',
    (SelectionStrategy.RANDOM_TICK, False, 0, None): '47a02a9977f1388e',
    (SelectionStrategy.RANDOM_TICK, False, 0, 40): 'c5571699bfe138eb',
    (SelectionStrategy.RANDOM_TICK, False, 0, 350): '47a02a9977f1388e',
    (SelectionStrategy.RANDOM_TICK, False, 5, None): 'd6a837faa5e83111',
    (SelectionStrategy.RANDOM_TICK, False, 5, 40): '32f33e21437ab995',
    (SelectionStrategy.RANDOM_TICK, False, 5, 350): 'd6a837faa5e83111',
    (SelectionStrategy.RANDOM_TICK, True, 0, None): '0ca3edd4369090b8',
    (SelectionStrategy.RANDOM_TICK, True, 0, 40): '2ed40b4a47ab1fe8',
    (SelectionStrategy.RANDOM_TICK, True, 0, 350): '0ca3edd4369090b8',
    (SelectionStrategy.RANDOM_TICK, True, 5, None): 'ec501a234031f2e8',
    (SelectionStrategy.RANDOM_TICK, True, 5, 40): 'bd81674a111b4b33',
    (SelectionStrategy.RANDOM_TICK, True, 5, 350): 'ec501a234031f2e8',
    (SelectionStrategy.GREEDY, False, 0, None): '85f71dd289a4d2f6',
    (SelectionStrategy.GREEDY, False, 0, 40): 'aa94d2cfb173b7f2',
    (SelectionStrategy.GREEDY, False, 0, 350): 'f480858c5001956c',
    (SelectionStrategy.GREEDY, False, 5, None): 'eedf4b0af4723ef5',
    (SelectionStrategy.GREEDY, False, 5, 40): 'aa94d2cfb173b7f2',
    (SelectionStrategy.GREEDY, False, 5, 350): 'f480858c5001956c',
    (SelectionStrategy.GREEDY, True, 0, None): '176c5629f38dbd8f',
    (SelectionStrategy.GREEDY, True, 0, 40): '063059cf78c100b3',
    (SelectionStrategy.GREEDY, True, 0, 350): 'ce64944f6204b4ed',
    (SelectionStrategy.GREEDY, True, 5, None): 'b62e110bd4bd1ab4',
    (SelectionStrategy.GREEDY, True, 5, 40): '063059cf78c100b3',
    (SelectionStrategy.GREEDY, True, 5, 350): 'ce64944f6204b4ed',
}

#: Universe with one unobserved EID, per strategy, under a 40-scenario
#: budget (so some targets end without evidence).
SPLIT_EXTRA_GOLDEN = {
    SelectionStrategy.RANDOM: '118cd369acb673f6',
    SelectionStrategy.SEQUENTIAL: '71f8dd18c13390e3',
    SelectionStrategy.RANDOM_TICK: '32f33e21437ab995',
    SelectionStrategy.GREEDY: 'e6dbe124e2c18402',
}

#: EDP_CASES entry -> digest.
EDP_GOLDEN = {
    (1, 0, None, False): '2e80d7bb7cb62128',
    (1, 0, 2, False): 'ff08b38a70430197',
    (1, 5, None, False): '7945c2f923fb5592',
    (1, 5, 2, False): '01552864cfefc2a1',
    (12, 0, None, False): '8c778c91a39c5f0c',
    (12, 0, 2, False): 'd26bd640761fbe74',
    (12, 5, None, False): 'd7be49b52838380b',
    (12, 5, 2, False): 'd26bd640761fbe74',
    (12, 5, None, True): 'd7be49b52838380b',
}

#: INCREMENTAL_CASES entry -> digest.
INCREMENTAL_GOLDEN = {
    (False, 0): '74eb593bc88249bf',
    (False, 5): '794c7ffcee86bafd',
    (True, 0): '006cadcd5bee1b7c',
    (True, 5): '01eeb160308746e7',
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
