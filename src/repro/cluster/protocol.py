"""The cluster's wire protocols: framed JSON (workers) and NDJSON (gateway).

Two byte-level protocols, both JSON payloads:

* **Length-prefixed frames** — the supervisor↔worker data channel.
  Each request is a 4-byte big-endian unsigned length followed by that
  many bytes of UTF-8 JSON.  Explicit framing (rather than newline
  delimiting) lets messages carry arbitrary text — Prometheus
  expositions, error messages with newlines — without escaping games,
  and makes truncation detectable: a short read raises
  :class:`ConnectionClosed` instead of yielding half a document.
  :func:`recv_frame` reads frames from blocking sockets.

  Each worker reply is one such frame holding the answer object,
  followed by a trailer: a 1-byte status length, a 4-byte span-records
  length, the status text and the span records (a raw JSON list; empty
  when the request was untraced).  The worker hands
  :func:`encode_reply` its answer already encoded — a result-cache hit
  is answered from bytes kept with the cache entry
  (:func:`repro.cluster.codec.hit_bytes`).  :func:`recv_reply` and
  :func:`read_reply` return it as a :class:`Reply` without parsing the
  answer: the gateway relays those bytes to the client, splicing in
  its routing fields, and keeps the span records raw until a merged
  trace is asked for.  The answer still gets the frame checks (64 MiB
  cap, truncation) and a cheap shape check — UTF-8, one line, braces
  at both ends — so a malformed reply fails over instead of reaching a
  client.

* **Newline-delimited JSON** — the public gateway surface
  (``repro cluster serve``).  One JSON object per line is trivially
  scriptable (``nc`` + ``jq``) and is what
  :class:`repro.cluster.client.GatewayClient` speaks.

Both sides treat any malformed input as :class:`ProtocolError` and
close the connection — a confused peer must never be answered with a
guess.

Telemetry rides beside the answers:

* Traced requests carry a ``"trace"`` envelope
  (:data:`repro.obs.tracing.TRACE_KEY`) — ``{"trace_id", "parent_span_id"}``
  — which every hop forwards unchanged; traced worker replies return
  their completed span records in the reply trailer for the gateway to
  merge, and the gateway adds the ``trace_id`` to the client's line.
* Worker heartbeat frames on the control pipe may carry a
  ``"telemetry"`` object (metrics snapshot + shipped flight-recorder
  events); see :mod:`repro.cluster.worker`.

Decoders ignore keys they do not know, so mixed-version fleets where
only some processes emit telemetry still interoperate.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from collections.abc import Mapping
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Frame header: 4-byte big-endian unsigned payload length.
_HEADER = struct.Struct(">I")

#: Reply trailer header: status length, span-records length.
_TRAILER = struct.Struct(">BI")

#: Upper bound on one frame's payload; anything larger is a protocol
#: error (a corrupt header would otherwise ask for gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The compact encoder, made once: ``json.dumps`` with non-default
#: ``separators`` builds a new encoder on every call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class ProtocolError(RuntimeError):
    """The peer sent bytes that do not decode as a protocol message."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (mid-frame or between frames)."""


def dumps(message: Any) -> bytes:
    """Compact UTF-8 JSON: the one encoding of every frame, reply and
    line on the cluster's wire."""
    return _ENCODER.encode(message).encode("utf-8")


def _checked(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    return payload


def _payload(message: Any) -> bytes:
    return _checked(dumps(message))


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One message as header + UTF-8 JSON payload bytes."""
    payload = _payload(message)
    return _HEADER.pack(len(payload)) + payload


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame to a connected socket."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed(
                f"peer closed with {remaining}/{count} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


async def _read_exact(reader: asyncio.StreamReader, count: int) -> bytes:
    try:
        return await reader.readexactly(count)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionClosed(
            f"peer closed with {exc.expected - len(exc.partial)}/"
            f"{exc.expected} bytes outstanding"
        ) from exc


def _frame_length(header: bytes) -> int:
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame header asks for {length} bytes")
    return length


def decode_payload(
    payload: bytes, what: str = "frame payload"
) -> Dict[str, Any]:
    """Parse one UTF-8 JSON object (a frame payload or a request line).

    Raises :class:`ProtocolError` on bytes that are not UTF-8 JSON or
    on JSON that is not an object; ``what`` names the payload in the
    error message.
    """
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable {what}: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"{what} must be a JSON object, got {type(message).__name__}"
        )
    return message


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Read one length-prefixed JSON frame from a connected socket.

    Raises :class:`ConnectionClosed` on EOF at a frame boundary or
    mid-frame, :class:`ProtocolError` on an oversized length or a
    payload that is not a JSON object.
    """
    length = _frame_length(_recv_exact(sock, _HEADER.size))
    return decode_payload(_recv_exact(sock, length))


# -- worker replies ---------------------------------------------------------
class Reply(Mapping):
    """One worker answer on its way through the gateway.

    ``answer`` is the answer's JSON object, as bytes the gateway never
    parses on the relay path; ``status`` and ``spans`` (the worker's
    span records as raw JSON, ``b""`` when untraced) travel beside it.
    ``fields`` are routing fields — ``worker``, ``failovers`` or
    ``quorum``/``responders``, ``trace_id`` — that :meth:`line` splices
    into the object on the way out; a data verb's answer never carries
    them itself, so the spliced line has no duplicate keys.

    Read as a mapping, a reply is the message the client sees (answer
    plus fields), parsed on first access: for quorum digests, ingest
    acks and the fan-out verbs.
    """

    __slots__ = ("answer", "status", "spans", "fields", "_decoded")

    def __init__(self, answer: bytes, status: str, spans: bytes = b"") -> None:
        self.answer = answer
        self.status = status
        self.spans = spans
        self.fields: Dict[str, Any] = {}
        self._decoded: Optional[Dict[str, Any]] = None

    @classmethod
    def of(cls, message: Dict[str, Any]) -> "Reply":
        """A locally built message (an error, an ingest tally) as a reply."""
        return cls(dumps(message), str(message.get("status", "error")))

    def decode(self) -> Dict[str, Any]:
        """The answer object, without ``fields``; parsed once."""
        if self._decoded is None:
            self._decoded = decode_payload(self.answer, "worker answer")
        return self._decoded

    def __getitem__(self, key: str) -> Any:
        if key in self.fields:
            return self.fields[key]
        return self.decode()[key]

    def __iter__(self) -> Iterator[str]:
        return iter({**self.decode(), **self.fields})

    def __len__(self) -> int:
        return len({**self.decode(), **self.fields})

    def __repr__(self) -> str:
        return f"Reply({dict(self)!r})"

    def line(self) -> bytes:
        """The client's NDJSON line: ``fields`` spliced into the answer
        bytes before the closing brace."""
        if not self.fields:
            return self.answer + b"\n"
        head = self.answer[:-1]
        comma = b"" if head.rstrip() == b"{" else b","
        return head + comma + dumps(self.fields)[1:] + b"\n"


def encode_reply(
    answer: bytes,
    status: str,
    spans: Optional[List[Dict[str, Any]]] = None,
) -> bytes:
    """One worker reply: the answer frame (``answer`` is the answer
    object's JSON, already encoded), then the trailer with its status
    and span records."""
    _checked(answer)
    status_bytes = status.encode("utf-8")
    records = _payload(spans) if spans else b""
    return b"".join((
        _HEADER.pack(len(answer)), answer,
        _TRAILER.pack(len(status_bytes), len(records)), status_bytes, records,
    ))


def send_reply(
    sock: socket.socket,
    answer: bytes,
    status: str,
    spans: Optional[List[Dict[str, Any]]] = None,
) -> None:
    """Write one worker reply to a connected socket."""
    sock.sendall(encode_reply(answer, status, spans))


def _check_answer(answer: bytes) -> bytes:
    """The check a relayed answer gets in place of a parse: UTF-8, one
    line, an object's braces at both ends."""
    try:
        answer.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable worker answer: {exc}") from exc
    if answer[:1] != b"{" or answer[-1:] != b"}" or b"\n" in answer:
        raise ProtocolError("worker answer must be a one-line JSON object")
    return answer


def _trailer_lengths(header: bytes) -> Tuple[int, int]:
    status_length, spans_length = _TRAILER.unpack(header)
    if spans_length > MAX_FRAME_BYTES:
        raise ProtocolError(f"reply trailer asks for {spans_length} bytes")
    return status_length, spans_length


def _reply(answer: bytes, trailer: bytes, status_length: int) -> Reply:
    try:
        status = trailer[:status_length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable reply status: {exc}") from exc
    return Reply(answer, status, trailer[status_length:])


def recv_reply(sock: socket.socket) -> Reply:
    """Read one worker reply from a connected socket.

    Raises :class:`ConnectionClosed` on a short read and
    :class:`ProtocolError` on an oversized length or an answer that
    fails the shape check.
    """
    length = _frame_length(_recv_exact(sock, _HEADER.size))
    answer = _check_answer(_recv_exact(sock, length))
    status_length, spans_length = _trailer_lengths(
        _recv_exact(sock, _TRAILER.size)
    )
    trailer = _recv_exact(sock, status_length + spans_length)
    return _reply(answer, trailer, status_length)


async def read_reply(reader: asyncio.StreamReader) -> Reply:
    """Read one worker reply from an asyncio stream: the event-loop
    twin of :func:`recv_reply`, with the same checks and errors."""
    length = _frame_length(await _read_exact(reader, _HEADER.size))
    answer = _check_answer(await _read_exact(reader, length))
    status_length, spans_length = _trailer_lengths(
        await _read_exact(reader, _TRAILER.size)
    )
    trailer = await _read_exact(reader, status_length + spans_length)
    return _reply(answer, trailer, status_length)


# -- NDJSON (the gateway's public surface) --------------------------------
def encode_line(message: Dict[str, Any]) -> bytes:
    """One message as a single JSON line (newline terminated)."""
    return dumps(message) + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one NDJSON request line into a message object."""
    text = line.strip()
    if not text:
        raise ProtocolError("empty request line")
    return decode_payload(text, "request line")
