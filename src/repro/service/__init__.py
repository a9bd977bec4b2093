"""The serving layer: a cached, batched query service.

Where :mod:`repro.core` answers *one* matching task end-to-end, this
package keeps a built world resident and answers *repeated* queries
against it — the long-lived process shape a production deployment
needs (ROADMAP: "serves heavy traffic from millions of users").

Composition (see ``docs/architecture.md``, "Serving layer")::

    MatchService (server.py)      the threaded front end
      ├── ResultCache             LRU+TTL, EID-tagged invalidation
      ├── MatchBatcher            in-flight dedup + union batching
      ├── RequestLog              one RequestRecord per request:
      │                           counters + latency percentiles
      │                           (the ``stats`` / ``metrics`` verbs)
      │                           and the rolling-window SLO verdict
      │                           (the ``health`` verb)
      └── IncrementalMatcher      the ingest-fed watch-list

:mod:`repro.service.loadgen` drives it for benchmarks;
``repro serve`` / ``repro loadtest`` expose it on the CLI.
"""

from repro.service.api import (
    ALGORITHMS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    HealthResponse,
    IngestTickRequest,
    IngestTickResponse,
    InvestigateRequest,
    InvestigateResponse,
    MatchRequest,
    MatchResponse,
    MetricsResponse,
    ServiceOverloaded,
    SLOCheck,
    StatsResponse,
    TargetMatch,
)
from repro.service.batcher import MatchBatcher
from repro.service.cache import CacheStats, ResultCache
from repro.service.loadgen import (
    LoadConfig,
    LoadReport,
    run_load,
    run_load_socket,
)
from repro.service.metrics import RequestLog, RequestRecord, SLOConfig
from repro.service.server import MatchService, ServiceConfig

__all__ = [
    "ALGORITHMS",
    "CacheStats",
    "HealthResponse",
    "IngestTickRequest",
    "IngestTickResponse",
    "InvestigateRequest",
    "InvestigateResponse",
    "LoadConfig",
    "LoadReport",
    "MatchBatcher",
    "MatchRequest",
    "MatchResponse",
    "MatchService",
    "MetricsResponse",
    "RequestLog",
    "RequestRecord",
    "ResultCache",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SHED",
    "SLOCheck",
    "SLOConfig",
    "ServiceConfig",
    "ServiceOverloaded",
    "StatsResponse",
    "TargetMatch",
    "run_load",
    "run_load_socket",
]
