"""Per-endpoint serving metrics, re-based on :mod:`repro.obs`.

The ``stats`` endpoint exposes, for each of ``match`` / ``investigate``
/ ``ingest`` / ``stats``:

* request counters split by outcome (``ok`` / ``shed`` / ``error``),
* cache counters (hits / misses) and batching counters (how many
  requests were answered by a shared Matcher call, how many were
  deduplicated against an in-flight twin),
* latency percentiles (p50 / p95 / p99) over a bounded reservoir.

All of it is stored in a :class:`~repro.obs.registry.MetricsRegistry`
— by default a **private** one per :class:`ServiceMetrics`, so two
services in one process don't mix counts — under stable Prometheus
names (``service_requests_total{endpoint=...}``,
``service_responses_total{endpoint=...,outcome=...}``,
``service_cache_total``, ``service_coalesced_total``,
``service_latency_seconds``).  The ``metrics`` verb renders this
registry (plus the process-global one holding the ``ev_*`` / ``mr_*``
pipeline counters) as text exposition; :meth:`ServiceMetrics.snapshot`
keeps the historical per-endpoint dict shape the ``stats`` endpoint
and its tests rely on.

Percentile convention (pinned): **nearest rank** — the q-th percentile
of ``n`` retained samples is the ``max(1, ceil(q/100 * n))``-th
smallest, so p50 of ``[1, 2, 3, 4]`` is deterministically 2.  See
:func:`repro.obs.registry.nearest_rank`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.registry import DEFAULT_MAX_SAMPLES, MetricsRegistry


# The counters of one endpoint's ``stats`` snapshot, in dict order.
SNAPSHOT_COUNTERS: Tuple[str, ...] = (
    "requests",
    "ok",
    "shed",
    "errors",
    "cache_hits",
    "cache_misses",
    "batched",
    "deduplicated",
)


class ServiceMetrics:
    """All endpoints' metrics, stored as labelled registry instruments.

    Args:
        max_samples: latency reservoir size per endpoint.
        registry: the registry to create instruments in.  Defaults to a
            fresh private one so per-service counts stay isolated; pass
            :func:`repro.obs.get_registry` to share the process-global
            family instead.
    """

    def __init__(
        self,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.requests = self.registry.counter(
            "service_requests_total", "Requests seen, by endpoint"
        )
        self.responses = self.registry.counter(
            "service_responses_total", "Responses, by endpoint and outcome"
        )
        self.cache = self.registry.counter(
            "service_cache_total", "Result-cache hits/misses, by endpoint"
        )
        self.coalesced = self.registry.counter(
            "service_coalesced_total",
            "Requests answered by a shared or in-flight Matcher call",
        )
        self.latency = self.registry.histogram(
            "service_latency_seconds",
            "Submit-to-resolution latency, by endpoint",
            max_samples=max_samples,
        )

    # Snapshot counter names map onto (instrument, extra labels).
    def _count(self, endpoint: str, counter: str) -> int:
        if counter == "requests":
            return int(self.requests.value(endpoint=endpoint))
        if counter in ("ok", "shed", "errors"):
            outcome = "error" if counter == "errors" else counter
            return int(self.responses.value(endpoint=endpoint, outcome=outcome))
        if counter in ("cache_hits", "cache_misses"):
            event = "hit" if counter == "cache_hits" else "miss"
            return int(self.cache.value(endpoint=endpoint, event=event))
        if counter in ("batched", "deduplicated"):
            return int(self.coalesced.value(endpoint=endpoint, how=counter))
        raise KeyError(f"unknown counter {counter!r}")

    def observe(
        self,
        endpoint: str,
        status: str,
        latency_s: float,
        cached: bool = False,
        deduplicated: bool = False,
        batched: bool = False,
    ) -> None:
        """Record one finished request."""
        self.requests.inc(endpoint=endpoint)
        outcome = status if status in ("ok", "shed") else "error"
        self.responses.inc(endpoint=endpoint, outcome=outcome)
        if cached:
            self.cache.inc(endpoint=endpoint, event="hit")
        elif status == "ok" and endpoint in ("match", "investigate"):
            self.cache.inc(endpoint=endpoint, event="miss")
        if deduplicated:
            self.coalesced.inc(endpoint=endpoint, how="deduplicated")
        if batched:
            self.coalesced.inc(endpoint=endpoint, how="batched")
        self.latency.observe(latency_s, endpoint=endpoint)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Every endpoint's counters/percentiles, in the historical
        ``stats`` dict shape."""
        endpoints = sorted(
            {dict(key)["endpoint"] for key, _ in self.requests.series()}
        )
        return {name: self._snapshot_of(name) for name in endpoints}

    def _snapshot_of(self, endpoint: str) -> Dict[str, float]:
        out: Dict[str, float] = {
            name: self._count(endpoint, name) for name in SNAPSHOT_COUNTERS
        }
        out["latency_mean_s"] = self.latency.mean(endpoint=endpoint)
        for name, value in self.latency.percentiles(endpoint=endpoint).items():
            out[f"latency_{name}_s"] = value
        return out

    def render_prometheus(self) -> str:
        """This service's instrument family as text exposition."""
        return self.registry.render_prometheus()
