"""The investigator request mix shared by ``serve-gateway`` and
``ingest-live``, and the answer checks both apply.

Requests are drawn like :func:`repro.service.loadgen.run_load` draws
them: 3-target match shapes from a pool of 64 over the watched targets,
picked with popularity skew 0.5 (few hot suspects), and 20% of the
requests are ``investigate`` instead of ``match``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

POOL_SIZE = 64
TARGETS_PER_REQUEST = 3
POPULARITY = 0.5
INVESTIGATE_FRACTION = 0.2


@dataclass
class Sample:
    """One answered (or failed) request, as the client saw it."""

    kind: str
    latency_s: float
    ok: bool
    cached: bool = False
    deduplicated: bool = False
    batched: bool = False
    service_s: float = 0.0
    #: match answers: target EID index -> predicted detection id.
    answer: Optional[Dict[int, Optional[int]]] = None
    error: Optional[str] = None
    #: sent inside a client span (traced runs time half their requests
    #: that way to measure the tracing overhead).
    traced: bool = False


class Traffic:
    """Seeded request streams over ``targets``."""

    def __init__(self, targets: Sequence, seed: int) -> None:
        from repro.service.loadgen import LoadConfig, build_request_pool

        self.seed = seed
        self.config = LoadConfig(
            pool_size=POOL_SIZE,
            targets_per_request=TARGETS_PER_REQUEST,
            investigate_fraction=INVESTIGATE_FRACTION,
            popularity=POPULARITY,
            seed=seed,
        )
        self.pool = build_request_pool(targets, self.config)
        self.eid_pool = sorted({eid for r in self.pool for eid in r.targets})

    def requests(self, client_id: int) -> Iterator:
        """Client ``client_id``'s endless request sequence."""
        from repro.service.api import InvestigateRequest

        rng = np.random.default_rng(self.seed + 1 + client_id)
        pool = self.pool
        while True:
            index = int(len(pool) * rng.random() ** (1.0 / POPULARITY))
            index = min(index, len(pool) - 1)
            if rng.random() < INVESTIGATE_FRACTION:
                yield InvestigateRequest(eid=self.eid_pool[index % len(self.eid_pool)])
            else:
                yield pool[index]


def first_error(samples: Sequence[Sample]) -> Optional[str]:
    """The first failed request's status and message, for the facts."""
    return next((s.error for s in samples if not s.ok), None)


def detection_vids(store) -> Dict[int, object]:
    """Detection id -> true VID, for scoring served predictions."""
    return {
        detection.detection_id: detection.true_vid
        for key in store.keys
        for detection in store.v_scenario(key)
    }


def check_answers(
    samples: Sequence[Sample], expected: Dict[int, Optional[int]]
) -> Tuple[int, int]:
    """``(answers checked, answers that differ from expected)``."""
    checked = wrong = 0
    for sample in samples:
        if sample.answer is None:
            continue
        checked += 1
        if any(expected.get(eid) != pred for eid, pred in sample.answer.items()):
            wrong += 1
    return checked, wrong


def answer_accuracy(
    samples: Sequence[Sample], truth: Dict[int, object], vids: Dict[int, object]
) -> float:
    """Share of distinct answered targets whose prediction is the
    target's true person."""
    answered: Dict[int, Optional[int]] = {}
    for sample in samples:
        if sample.answer is not None:
            answered.update(sample.answer)
    if not answered:
        return 0.0
    correct = sum(
        1
        for eid, pred in answered.items()
        if pred is not None and vids.get(pred) == truth[eid]
    )
    return correct / len(answered)


def in_process_predictions(store, targets: Sequence) -> Dict[int, Optional[int]]:
    """What the in-process :class:`EVMatcher` answers for ``targets``."""
    from repro.core.matcher import EVMatcher

    report = EVMatcher(store).match(list(targets))
    return {eid.index: pred for eid, pred in report.predictions().items()}


def answered_targets(samples: Sequence[Sample]) -> List[int]:
    """Every target index some match answer covers."""
    return sorted({eid for s in samples if s.answer is not None for eid in s.answer})
