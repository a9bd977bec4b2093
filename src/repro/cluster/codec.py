"""JSON codecs between the wire and :mod:`repro.service.api` types.

The cluster speaks plain JSON objects (see :mod:`.protocol`); the
service speaks typed dataclasses.  This module owns the translation in
both directions, so the worker, gateway and client all agree on one
schema and the dataclasses never learn about JSON.

Request schema (the ``verb`` field selects the codec)::

    {"verb": "match", "targets": [0, 3], "algorithm": "ss"}
    {"verb": "investigate", "eid": 7, "min_shared": 3}
    {"verb": "ingest", "scenarios": [<scenario document>, ...]}

Scenario documents reuse the checkpoint layer's exact-roundtrip
encoding (:func:`repro.stream.checkpoint.scenario_to_json`), so a
scenario ingested over the wire is byte-identical to one journaled by
the durable sink.

Responses always carry ``status`` (``ok`` / ``shed`` / ``error``) and
the verb's payload.  ``ingest`` responses carry the *count* of
watch-list emissions rather than the emission objects (their V-stage
results do not round-trip, and no wire client consumes them).

Answers leave the worker as bytes, and :func:`answer_bytes` is the one
encoding of a typed response.  A result-cache hit skips it:
:func:`hit_bytes` keeps the JSON of the answer's cacheable fields (its
*body*) with the cache entry and splices only the per-request fields
in fresh, giving the same bytes.

Telemetry keys are deliberately *not* part of the typed schema: the
``"trace"`` request envelope and the ``"trace_id"`` response field
(see :mod:`repro.obs.tracing`) are read and written by the routing
layer, worker span records travel beside the answer
(:mod:`repro.cluster.protocol`), and :func:`request_from_wire` /
:func:`response_from_wire` simply ignore them — the dataclasses stay
observability-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.cluster.protocol import dumps
from repro.service.api import (
    STATUS_ERROR,
    HealthResponse,
    IngestTickRequest,
    IngestTickResponse,
    InvestigateRequest,
    InvestigateResponse,
    MatchRequest,
    MatchResponse,
    SLOCheck,
    TargetMatch,
)
from repro.stream.checkpoint import scenario_from_json, scenario_to_json
from repro.world.entities import EID

if TYPE_CHECKING:
    from repro.service.server import CacheHit

#: Verbs a worker answers (the gateway adds control-plane verbs on top).
WORKER_VERBS = ("match", "investigate", "ingest", "stats", "metrics", "health")


class CodecError(ValueError):
    """A wire message does not decode into a valid request/response."""


# -- requests -------------------------------------------------------------
def request_to_wire(request: Any) -> Dict[str, Any]:
    """Encode one typed service request as a wire message."""
    if isinstance(request, MatchRequest):
        return {
            "verb": "match",
            "targets": [eid.index for eid in request.targets],
            "algorithm": request.algorithm,
        }
    if isinstance(request, InvestigateRequest):
        return {
            "verb": "investigate",
            "eid": request.eid.index,
            "min_shared": request.min_shared,
        }
    if isinstance(request, IngestTickRequest):
        return {
            "verb": "ingest",
            "scenarios": [scenario_to_json(s) for s in request.scenarios],
        }
    raise CodecError(f"cannot encode request {type(request).__name__}")


def request_from_wire(message: Dict[str, Any]) -> Any:
    """Decode a wire message into the matching typed request."""
    verb = message.get("verb")
    try:
        if verb == "match":
            return MatchRequest(
                targets=tuple(EID(int(i)) for i in message["targets"]),
                algorithm=str(message.get("algorithm", "ss")),
            )
        if verb == "investigate":
            return InvestigateRequest(
                eid=EID(int(message["eid"])),
                min_shared=int(message.get("min_shared", 3)),
            )
        if verb == "ingest":
            return IngestTickRequest(
                scenarios=tuple(
                    scenario_from_json(doc) for doc in message["scenarios"]
                )
            )
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed {verb!r} request: {exc}") from exc
    raise CodecError(f"unknown verb {verb!r}")


# -- responses ------------------------------------------------------------
#: The fields that vary per request, by cacheable response type: the
#: last keys :func:`response_to_wire` writes, and the attribute names
#: they come from.  A cached answer's body is everything before them.
_PER_REQUEST_FIELDS: Dict[type, Tuple[str, ...]] = {
    MatchResponse: ("cached", "deduplicated", "batched_with", "latency_s", "error"),
    InvestigateResponse: ("cached", "latency_s", "error"),
}


def response_to_wire(response: Any) -> Dict[str, Any]:
    """Encode one typed service response as a wire message."""
    if isinstance(response, MatchResponse):
        return {
            "verb": "match",
            "status": response.status,
            "matches": {
                str(eid.index): {
                    "prediction": match.prediction,
                    "agreement": match.agreement,
                    "evidence": match.evidence,
                }
                for eid, match in response.matches.items()
            },
            "cached": response.cached,
            "deduplicated": response.deduplicated,
            "batched_with": response.batched_with,
            "latency_s": response.latency_s,
            "error": response.error,
        }
    if isinstance(response, InvestigateResponse):
        return {
            "verb": "investigate",
            "status": response.status,
            "eid": None if response.eid is None else response.eid.index,
            "num_scenarios": response.num_scenarios,
            "presence": [list(window) for window in response.presence],
            "co_travelers": [
                [other.index, shared] for other, shared in response.co_travelers
            ],
            "cached": response.cached,
            "latency_s": response.latency_s,
            "error": response.error,
        }
    if isinstance(response, IngestTickResponse):
        return {
            "verb": "ingest",
            "status": response.status,
            "ingested": response.ingested,
            "invalidated": response.invalidated,
            "emissions": len(response.emissions),
            "latency_s": response.latency_s,
            "error": response.error,
        }
    if isinstance(response, HealthResponse):
        return {
            "verb": "health",
            "status": "ok",
            "healthy": response.healthy,
            "window_s": response.window_s,
            "samples": response.samples,
            "checks": [
                {
                    "name": check.name,
                    "objective": check.objective,
                    "observed": check.observed,
                    "ok": check.ok,
                }
                for check in response.checks
            ],
            "note": response.note,
        }
    raise CodecError(f"cannot encode response {type(response).__name__}")


def response_from_wire(message: Dict[str, Any]) -> Any:
    """Decode a wire message into the matching typed response."""
    verb = message.get("verb")
    try:
        if verb == "match":
            return MatchResponse(
                status=str(message["status"]),
                matches={
                    EID(int(index)): TargetMatch(
                        eid=EID(int(index)),
                        prediction=fields["prediction"],
                        agreement=float(fields["agreement"]),
                        evidence=int(fields["evidence"]),
                    )
                    for index, fields in message.get("matches", {}).items()
                },
                cached=bool(message.get("cached", False)),
                deduplicated=bool(message.get("deduplicated", False)),
                batched_with=int(message.get("batched_with", 0)),
                latency_s=float(message.get("latency_s", 0.0)),
                error=message.get("error"),
            )
        if verb == "investigate":
            eid = message.get("eid")
            return InvestigateResponse(
                status=str(message["status"]),
                eid=None if eid is None else EID(int(eid)),
                num_scenarios=int(message.get("num_scenarios", 0)),
                presence=[
                    tuple(int(v) for v in window)
                    for window in message.get("presence", [])
                ],
                co_travelers=[
                    (EID(int(other)), int(shared))
                    for other, shared in message.get("co_travelers", [])
                ],
                cached=bool(message.get("cached", False)),
                latency_s=float(message.get("latency_s", 0.0)),
                error=message.get("error"),
            )
        if verb == "ingest":
            # Emission objects do not round-trip; the wire carries their
            # count in "emissions" and the decoded list stays empty.
            return IngestTickResponse(
                status=str(message["status"]),
                ingested=int(message.get("ingested", 0)),
                invalidated=int(message.get("invalidated", 0)),
                latency_s=float(message.get("latency_s", 0.0)),
                error=message.get("error"),
            )
        if verb == "health":
            return HealthResponse(
                healthy=bool(message["healthy"]),
                window_s=float(message.get("window_s", 0.0)),
                samples=int(message.get("samples", 0)),
                checks=tuple(
                    SLOCheck(
                        name=str(check["name"]),
                        objective=float(check["objective"]),
                        observed=float(check["observed"]),
                        ok=bool(check["ok"]),
                    )
                    for check in message.get("checks", [])
                ),
                note=str(message.get("note", "")),
            )
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed {verb!r} response: {exc}") from exc
    raise CodecError(f"unknown verb {verb!r}")


def answer_bytes(response: Any) -> bytes:
    """One typed response as the answer bytes a worker sends."""
    return dumps(response_to_wire(response))


def hit_bytes(hit: CacheHit) -> bytes:
    """A result-cache hit's answer bytes, equal to
    ``answer_bytes(hit.response())`` without building that response.

    The first hit on an entry encodes the template's cacheable fields
    and stores them, without the closing brace, as the entry's body;
    every hit then appends the per-request fields — the template's,
    marked cached, with the hit's latency — as a second JSON object
    without its opening brace.
    """
    entry = hit.entry
    template = entry.value
    names = _PER_REQUEST_FIELDS[type(template)]
    body = entry.body
    if body is None:
        wire = response_to_wire(template)
        for name in names:
            del wire[name]
        body = entry.body = dumps(wire)[:-1]
    tail = {name: getattr(template, name) for name in names}
    tail["cached"] = True
    tail["latency_s"] = hit.latency_s
    return body + b"," + dumps(tail)[1:]


def error_response(verb: str, error: str, status: str = STATUS_ERROR) -> Dict[str, Any]:
    """A minimal wire response for failures outside the service."""
    return {"verb": verb, "status": status, "error": error}


def routing_key(message: Dict[str, Any]) -> str:
    """The consistent-hash key of one wire request.

    Match requests key on (algorithm, sorted targets) — the same
    identity as the service cache key — so repeats of a query land on
    the same worker and hit its warm cache.  Investigations key on the
    suspect EID.  Other verbs have no affinity (the router spreads or
    broadcasts them).
    """
    verb = message.get("verb")
    if verb == "match":
        targets = ",".join(str(int(i)) for i in sorted(message.get("targets", ())))
        return f"match:{message.get('algorithm', 'ss')}:{targets}"
    if verb == "investigate":
        return f"eid:{int(message.get('eid', 0))}"
    return f"verb:{verb}"
