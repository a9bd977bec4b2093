"""One record per finished request; every request metric derives from it.

Each request boundary makes one write per request: a
:class:`RequestRecord` into its owner's :class:`RequestLog`.  The
owners are :class:`~repro.service.server.MatchService` (every verb it
answers, ``stats`` and ``metrics`` included) and
:class:`~repro.cluster.gateway.ClusterGateway` (every verb).  The log
derives the owner's Prometheus families (:data:`SERVICE` /
:data:`GATEWAY`), the ``stats`` snapshot, and the rolling health
window of the :data:`DATA_ENDPOINTS` with its verdict and its p99 (the
slow-query log's adaptive threshold).

A write only appends to a buffer.  Every read **folds** it first, under
one lock: one ``inc(n)`` per record shape (every field but the
latency) and series it feeds, one ``observe_many`` per endpoint in
arrival order, and the data endpoints' outcomes into the window.  The
buffer also folds at the window's cap, so an unread log stays bounded.
Whoever reads the registry itself calls :meth:`RequestLog.fold` first.
Percentiles are nearest rank (:func:`repro.obs.registry.nearest_rank`).
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.registry import MetricsRegistry, nearest_rank
from repro.service.api import (
    STATUS_ERROR, STATUS_OK, STATUS_SHED, HealthResponse, SLOCheck,
)

#: The data plane (the verbs the gateway routes to workers): for every
#: owner, only these outcomes enter the health window; meta traffic
#: (``stats``, ``metrics``, ``ping``, ...) is only counted.
DATA_ENDPOINTS = ("match", "investigate", "ingest")


@dataclass(frozen=True)
class SLOConfig:
    """Declared service-level objectives.

    Attributes:
        latency_p99_s: p99 latency objective over the window, seconds.
        max_shed_rate: tolerated fraction of shed requests.
        max_error_rate: tolerated fraction of errored requests.
        window_s: rolling-window width, seconds.
        min_samples: outcomes required before the SLOs are judged at
            all; below this the service reports healthy with
            ``samples`` exposing how thin the evidence is.
        max_window_samples: hard cap on retained outcomes, so a
            traffic spike cannot grow the window unboundedly.
    """

    latency_p99_s: float = 0.5
    max_shed_rate: float = 0.05
    max_error_rate: float = 0.01
    window_s: float = 60.0
    min_samples: int = 20
    max_window_samples: int = 8192

    def __post_init__(self) -> None:
        if self.latency_p99_s <= 0:
            raise ValueError(
                f"latency_p99_s must be positive, got {self.latency_p99_s}"
            )
        for name in ("max_shed_rate", "max_error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if self.min_samples <= 0:
            raise ValueError(
                f"min_samples must be positive, got {self.min_samples}"
            )
        if self.max_window_samples < self.min_samples:
            raise ValueError(
                "max_window_samples must be >= min_samples, got "
                f"{self.max_window_samples} < {self.min_samples}"
            )


class RequestRecord(NamedTuple):
    """One finished request: its endpoint (the gateway's verb), status
    and latency, and how it was answered."""

    endpoint: str
    status: str
    latency_s: float
    cached: bool = False
    deduplicated: bool = False
    batched: bool = False


def _when(test: bool, **labels: str) -> Optional[Dict[str, str]]:
    return labels if test else None


class Families(NamedTuple):
    """What one owner's records feed: the label that carries the
    endpoint, the latency histogram, and ``(stats key, counter,
    labels)`` rows, where ``labels`` maps a record to the labels it adds
    beside its endpoint, or to ``None`` where it does not count."""

    label: str
    latency: str
    series: Tuple[Tuple[str, str, Callable[..., Optional[dict]]], ...]


_HELP = {
    "service_requests_total": "Requests seen, by endpoint",
    "service_responses_total": "Responses, by endpoint and outcome",
    "service_cache_total": "Result-cache hits/misses, by endpoint",
    "service_coalesced_total":
        "Requests answered by a shared or in-flight Matcher call",
    "service_latency_seconds": "Submit-to-resolution latency, by endpoint",
    "ev_cluster_gateway_requests_total":
        "Requests answered by the gateway, by verb and status",
    "ev_cluster_gateway_latency_seconds":
        "Gateway-observed request latency, by verb",
}

#: The query service's families: every record counts a request and an
#: outcome; ``cached`` feeds the cache hits, an uncached ok query the
#: misses, and ``batched`` / ``deduplicated`` the coalesced series.
SERVICE = Families("endpoint", "service_latency_seconds", (
    ("requests", "service_requests_total", lambda r: {}),
    ("ok", "service_responses_total",
     lambda r: _when(r.status == STATUS_OK, outcome=STATUS_OK)),
    ("shed", "service_responses_total",
     lambda r: _when(r.status == STATUS_SHED, outcome=STATUS_SHED)),
    ("errors", "service_responses_total", lambda r: _when(
        r.status not in (STATUS_OK, STATUS_SHED), outcome=STATUS_ERROR)),
    ("cache_hits", "service_cache_total",
     lambda r: _when(r.cached, event="hit")),
    ("cache_misses", "service_cache_total", lambda r: _when(
        not r.cached and r.status == STATUS_OK
        and r.endpoint in ("match", "investigate"),
        event="miss",
    )),
    ("batched", "service_coalesced_total",
     lambda r: _when(r.batched, how="batched")),
    ("deduplicated", "service_coalesced_total",
     lambda r: _when(r.deduplicated, how="deduplicated")),
))

#: The gateway's families: each verb's requests by raw status.
GATEWAY = Families("verb", "ev_cluster_gateway_latency_seconds", (
    ("requests", "ev_cluster_gateway_requests_total",
     lambda r: {"status": r.status}),
))

_SHAPE = itemgetter(0, 1, 3, 4, 5)  # a record without its latency


class RequestLog:
    """One owner's request records and everything derived from them.

    Args:
        families: what the records feed (:data:`SERVICE` /
            :data:`GATEWAY`).
        registry: where the families live; a fresh private one by
            default, so two services in one process don't mix counts.
        slo: the health window's objectives; its ``max_window_samples``
            also caps the write buffer.
        clock: the health window's clock.
    """

    def __init__(
        self,
        families: Families = SERVICE,
        registry: Optional[MetricsRegistry] = None,
        slo: SLOConfig = SLOConfig(),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.families = families
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slo = slo
        self._clock = clock
        self._counters = {
            family: self.registry.counter(family, _HELP[family])
            for _, family, _ in families.series
        }
        self.latency = self.registry.histogram(
            families.latency, _HELP[families.latency]
        )
        self._lock = threading.Lock()
        self._buffer: Deque[Tuple[float, RequestRecord]] = deque()
        self._totals: Dict[RequestRecord, int] = {}  # by shape
        self._window: Deque[Tuple[float, str, float]] = deque(
            maxlen=slo.max_window_samples
        )

    def write(self, record: RequestRecord) -> None:
        """Log one finished request."""
        buffer = self._buffer
        buffer.append((self._clock(), record))
        if len(buffer) >= self.slo.max_window_samples:
            self.fold()

    def fold(self) -> None:
        """Move the buffered records into the families, totals and
        window (see the module docstring)."""
        with self._lock:
            self._fold()

    def _fold(self) -> None:
        buffer = self._buffer
        # Only this side pops, so records appended meanwhile stay put.
        taken = [buffer.popleft() for _ in range(len(buffer))]
        if not taken:
            return
        label = self.families.label
        records = [record for _, record in taken]
        for (endpoint, status, *flags), n in Counter(map(_SHAPE, records)).items():
            shape = RequestRecord(endpoint, status, 0.0, *flags)
            self._totals[shape] = self._totals.get(shape, 0) + n
            for _, family, labels in self.families.series:
                extra = labels(shape)
                if extra is not None:
                    self._counters[family].inc(n, **{label: endpoint}, **extra)
        latencies: Dict[str, List[float]] = {}
        for record in records:
            latencies.setdefault(record.endpoint, []).append(record.latency_s)
        for endpoint, values in latencies.items():
            self.latency.observe_many(values, **{label: endpoint})
        self._window.extend(
            (at, record.status, record.latency_s)
            for at, record in taken
            if record.endpoint in DATA_ENDPOINTS
        )

    def _outcomes(self) -> List[Tuple[float, str, float]]:
        """The window after a fold, less what has scrolled out of it."""
        with self._lock:
            self._fold()
            horizon = self._clock() - self.slo.window_s
            window = self._window
            while window and window[0][0] < horizon:
                window.popleft()
            return list(window)

    def latency_p99(self) -> Optional[float]:
        """The window's latency p99 in seconds, or ``None`` while it
        holds fewer than ``min_samples`` outcomes."""
        outcomes = self._outcomes()
        if len(outcomes) < self.slo.min_samples:
            return None
        return nearest_rank([latency for _, _, latency in outcomes], 99.0)

    def health(self) -> HealthResponse:
        """The window judged against the declared objectives; below
        ``min_samples`` outcomes, healthy with an "insufficient data"
        note."""
        outcomes, slo = self._outcomes(), self.slo
        samples = len(outcomes)
        if samples < slo.min_samples:
            return HealthResponse(
                healthy=True, window_s=slo.window_s, samples=samples,
                note=f"insufficient data: {samples} < {slo.min_samples} samples",
            )
        statuses = Counter(status for _, status, _ in outcomes)
        p99 = nearest_rank([latency for _, _, latency in outcomes], 99.0)
        checks = tuple(
            SLOCheck(name=name, objective=objective, observed=value,
                     ok=value <= objective)
            for name, objective, value in (
                ("latency_p99_s", slo.latency_p99_s, p99),
                ("shed_rate", slo.max_shed_rate, statuses[STATUS_SHED] / samples),
                ("error_rate", slo.max_error_rate,
                 statuses[STATUS_ERROR] / samples),
            )
        )
        return HealthResponse(
            healthy=all(check.ok for check in checks),
            window_s=slo.window_s, samples=samples, checks=checks,
        )

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per endpoint: each series' count under its stats key, then
        the latency mean and p50 / p95 / p99 — the ``stats`` shape."""
        with self._lock:
            self._fold()
            totals = list(self._totals.items())
        series = self.families.series
        out: Dict[str, Dict[str, float]] = {}
        for shape, n in totals:
            row = out.setdefault(
                shape.endpoint, dict.fromkeys((key for key, _, _ in series), 0)
            )
            for key, _, labels in series:
                if labels(shape) is not None:
                    row[key] += n
        for endpoint, row in out.items():
            labels = {self.families.label: endpoint}
            row["latency_mean_s"] = self.latency.mean(**labels)
            for name, value in self.latency.percentiles(**labels).items():
                row[f"latency_{name}_s"] = value
        return dict(sorted(out.items()))

    def render_prometheus(self) -> str:
        """The registry as text exposition, after a fold."""
        self.fold()
        return self.registry.render_prometheus()
