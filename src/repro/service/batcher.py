"""Request batching and in-flight deduplication for match queries.

Two serving effects collapse redundant Matcher work:

* **In-flight deduplication** — while a match for key K is queued or
  executing, further requests for K attach to the same flight instead
  of enqueueing; one Matcher call resolves every waiter.
* **Union batching** — a worker draining the queue hands the batcher
  several distinct match requests at once; per algorithm they collapse
  into *one* Matcher call over the union of their targets.  With the
  default configuration each target's E- and V-stage work is
  independent of its batch-mates, so splitting the union report back
  per request is exact — and the V stage's shared pair table makes
  the union call strictly cheaper than the sum of the parts (shared
  scenarios are extracted, and shared pairs compared, once).

The batcher owns no threads: the server's workers call
:meth:`MatchBatcher.execute`, keeping admission control (the bounded
queue) the single place where load is dropped.

Batching is disabled (``max_batch=1``) by the server when the matcher
is configured with exclusion or refining, whose cross-target coupling
would make union results differ from per-request ones.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.matcher import MatchReport
from repro.service.api import (
    STATUS_ERROR,
    STATUS_OK,
    MatchRequest,
    MatchResponse,
    TargetMatch,
)
from repro.world.entities import EID


@dataclass
class Waiter:
    """One caller blocked on a response.

    Attributes:
        future: resolved by the server with the final response.
        started: ``perf_counter`` stamp at submission (per-caller
            latency, even for deduplicated waiters).
        deduplicated: attached to an earlier identical request.
        parent_span: the submitting thread's innermost open span (if
            tracing), so the worker-pool thread that executes the
            request can parent its ``service.execute`` span under the
            submitter's trace — contextvars do not cross the queue.
    """

    future: Future
    started: float
    deduplicated: bool = False
    parent_span: Optional[object] = None


@dataclass
class _Flight:
    request: MatchRequest
    waiters: List[Waiter] = field(default_factory=list)


class MatchBatcher:
    """In-flight table + union batching for match requests."""

    def __init__(self, max_batch: int = 8) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        self.max_batch = max_batch
        self._lock = threading.Lock()
        self._inflight: Dict[Hashable, _Flight] = {}

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def admit(self, request: MatchRequest, waiter: Waiter) -> bool:
        """Register a waiter; ``True`` means the caller owns the new
        flight and must enqueue it, ``False`` means it was attached to
        an identical in-flight request."""
        key = request.cache_key()
        with self._lock:
            flight = self._inflight.get(key)
            if flight is not None:
                waiter.deduplicated = True
                flight.waiters.append(waiter)
                return False
            self._inflight[key] = _Flight(request=request, waiters=[waiter])
            return True

    def abandon(self, request: MatchRequest) -> List[Waiter]:
        """Drop a flight that could not be enqueued (shed); returns its
        waiters (the primary plus any twins attached meanwhile)."""
        with self._lock:
            flight = self._inflight.pop(request.cache_key(), None)
            return flight.waiters if flight is not None else []

    def execute(
        self,
        batch: Sequence[MatchRequest],
        run_match: Callable[[str, Tuple[EID, ...]], MatchReport],
    ) -> List[Tuple[MatchRequest, Waiter, MatchResponse]]:
        """Run one Matcher call per algorithm over the batch's target
        union and split the reports back per request.

        Returns every ``(request, waiter, response)`` resolution; the
        server stamps latencies, fills the cache, and sets futures.
        ``response.latency_s`` is left 0 for the server to fill.
        """
        by_algorithm: Dict[str, List[MatchRequest]] = {}
        for request in batch:
            by_algorithm.setdefault(request.algorithm, []).append(request)

        resolutions: List[Tuple[MatchRequest, Waiter, MatchResponse]] = []
        for algorithm, requests in by_algorithm.items():
            union: set = set()
            for request in requests:
                union.update(request.targets)
            targets = tuple(sorted(union))
            try:
                report = run_match(algorithm, targets)
            except Exception as exc:  # keep serving: errors resolve waiters
                for request in requests:
                    resolutions.extend(
                        self._resolve(request, None, len(requests) - 1, str(exc))
                    )
                continue
            for request in requests:
                resolutions.extend(
                    self._resolve(request, report, len(requests) - 1, None)
                )
        return resolutions

    def _resolve(
        self,
        request: MatchRequest,
        report,
        batched_with: int,
        error,
    ) -> List[Tuple[MatchRequest, Waiter, MatchResponse]]:
        with self._lock:
            flight = self._inflight.pop(request.cache_key(), None)
        waiters = flight.waiters if flight is not None else []
        out: List[Tuple[MatchRequest, Waiter, MatchResponse]] = []
        for waiter in waiters:
            if error is not None:
                response = MatchResponse(status=STATUS_ERROR, error=error)
            else:
                response = MatchResponse(
                    status=STATUS_OK,
                    matches=split_report(report, request.targets),
                    deduplicated=waiter.deduplicated,
                    batched_with=batched_with,
                )
            out.append((request, waiter, response))
        return out


def split_report(
    report: MatchReport, targets: Sequence[EID]
) -> Dict[EID, TargetMatch]:
    """Extract one request's targets from a (possibly union) report."""
    matches: Dict[EID, TargetMatch] = {}
    for eid in targets:
        result = report.results.get(eid)
        if result is None:
            continue
        matches[eid] = TargetMatch(
            eid=eid,
            prediction=(
                result.best.detection_id if result.best is not None else None
            ),
            agreement=result.agreement,
            evidence=len(result.scenario_keys),
        )
    return matches
