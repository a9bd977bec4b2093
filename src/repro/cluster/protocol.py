"""The cluster's wire protocols: framed JSON (workers) and NDJSON (gateway).

Two byte-level protocols, both JSON payloads:

* **Length-prefixed frames** — the supervisor↔worker data channel.
  Each message is a 4-byte big-endian unsigned length followed by that
  many bytes of UTF-8 JSON.  Explicit framing (rather than newline
  delimiting) lets worker responses carry arbitrary text — Prometheus
  expositions, error messages with newlines — without escaping games,
  and makes truncation detectable: a short read raises
  :class:`ConnectionClosed` instead of yielding half a document.
  :func:`recv_frame` reads frames from blocking sockets and
  :func:`read_frame` from asyncio streams, with the same checks.

* **Newline-delimited JSON** — the public gateway surface
  (``repro cluster serve``).  One JSON object per line is trivially
  scriptable (``nc`` + ``jq``) and is what
  :class:`repro.cluster.client.GatewayClient` speaks.

Both sides treat any malformed input as :class:`ProtocolError` and
close the connection — a confused peer must never be answered with a
guess.

Telemetry rides *inside* the JSON payloads rather than in the framing:

* Traced requests carry a ``"trace"`` envelope
  (:data:`repro.obs.tracing.TRACE_KEY`) — ``{"trace_id", "parent_span_id"}``
  — which every hop forwards unchanged, and traced worker responses
  return ``"trace_id"`` plus a ``"spans"`` list of completed span
  records for the gateway to merge.
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
from typing import Any, Dict

#: Frame header: 4-byte big-endian unsigned payload length.
_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload; anything larger is a protocol
#: error (a corrupt header would otherwise ask for gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The peer sent bytes that do not decode as a protocol message."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (mid-frame or between frames)."""


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One message as header + UTF-8 JSON payload bytes."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
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


async def read_frame(reader: asyncio.StreamReader) -> Dict[str, Any]:
    """Read one length-prefixed JSON frame from an asyncio stream.

    The event-loop twin of :func:`recv_frame`, with the same checks
    and the same errors.
    """
    try:
        length = _frame_length(await reader.readexactly(_HEADER.size))
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionClosed(
            f"peer closed with {exc.expected - len(exc.partial)}/"
            f"{exc.expected} bytes outstanding"
        ) from exc
    return decode_payload(payload)


# -- NDJSON (the gateway's public surface) --------------------------------
def encode_line(message: Dict[str, Any]) -> bytes:
    """One message as a single JSON line (newline terminated)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one NDJSON request line into a message object."""
    text = line.strip()
    if not text:
        raise ProtocolError("empty request line")
    return decode_payload(text, "request line")
