"""Wire protocol for the reservoir serving layer.

One frame = one request or one response.  Framing is a 4-byte
big-endian length prefix followed by that many bytes of UTF-8 JSON --
trivially parseable from any language, debuggable with ``xxd``, and
self-delimiting on a stream socket.  The JSON body is versioned
(``"v"``) and correlated (``"id"``), so a transport may pipeline
requests and still match responses.

Why JSON for a sampling system whose tests demand bit-exactness:
Python's ``json`` emits the shortest ``repr`` that round-trips every
float exactly, and record payload bytes travel base64-encoded, so a
record decoded from a frame compares equal -- field for field -- to
the record that was encoded.  That is what makes the
:class:`~repro.serve.transport.InlineTransport` twin test meaningful:
a served session returns byte-identical samples to direct engine
calls, through a *real* encode/decode round trip.

The op set mirrors the unified :class:`~repro.core.protocols.Reservoir`
protocol one-to-one (plus ``hello`` for session setup and ``ingest``
for count-only load generation); see docs/SERVING.md for the normative
op table, error codes, and backpressure semantics.
"""

from __future__ import annotations

import base64
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..storage.recordbatch import RecordBatch
from ..storage.records import MIN_RECORD_SIZE, Record, RecordSchema

#: Protocol version spoken by this module; bumped on wire changes.
PROTOCOL_VERSION = 1

#: Frames larger than this are rejected before allocation (a corrupt
#: or hostile length prefix must not trigger a multi-GiB read).
MAX_FRAME = 16 * 1024 * 1024

#: The 4-byte big-endian length prefix.
_PREFIX = struct.Struct(">I")

#: Ops a server understands; anything else earns ``unknown_op``.
OPS = (
    "hello",
    "offer",
    "offer_batch",
    "ingest",
    "sample",
    "sample_batch",
    "snapshot",
    "stats",
    "checkpoint",
    "close",
)

# -- error codes -------------------------------------------------------------

#: Admission control rejected an ingest op (queue too deep); the
#: response carries ``retry_after`` seconds derived from the overshoot.
ERR_BUSY = "busy"
#: The session's token bucket is empty; ``retry_after`` says when a
#: token will exist.
ERR_RATE_LIMITED = "rate_limited"
#: Malformed frame, JSON, or arguments.
ERR_BAD_REQUEST = "bad_request"
#: The request's ``"v"`` is not a version this server speaks.
ERR_UNSUPPORTED_VERSION = "unsupported_version"
#: The request's ``"op"`` is not in :data:`OPS`.
ERR_UNKNOWN_OP = "unknown_op"
#: The server is draining; no new work is accepted.
ERR_SHUTTING_DOWN = "shutting_down"
#: The engine raised; the message carries the repr.
ERR_INTERNAL = "internal"

ERROR_CODES = (
    ERR_BUSY,
    ERR_RATE_LIMITED,
    ERR_BAD_REQUEST,
    ERR_UNSUPPORTED_VERSION,
    ERR_UNKNOWN_OP,
    ERR_SHUTTING_DOWN,
    ERR_INTERNAL,
)

#: Error codes a client may transparently retry after ``retry_after``.
RETRYABLE_CODES = (ERR_BUSY, ERR_RATE_LIMITED)


class FrameError(ValueError):
    """A frame violated the length-prefix contract (too large, short)."""


@dataclass(frozen=True)
class Request:
    """One decoded request frame.

    Attributes:
        op: operation name (one of :data:`OPS` for valid requests).
        id: client-chosen correlation id, echoed in the response.
        args: op-specific arguments mapping.
        v: protocol version the client speaks.
    """

    op: str
    id: int = 0
    args: dict = field(default_factory=dict)
    v: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        """JSON-ready representation."""
        return {"v": self.v, "id": self.id, "op": self.op,
                "args": self.args}

    @classmethod
    def from_wire(cls, body: dict) -> "Request":
        """Rebuild from a decoded JSON body (types coerced, not trusted)."""
        args = body.get("args") or {}
        if not isinstance(args, dict):
            raise ValueError("request args must be an object")
        return cls(op=str(body.get("op", "")), id=int(body.get("id", 0)),
                   args=args, v=int(body.get("v", 0)))


@dataclass(frozen=True)
class ErrorInfo:
    """The error half of a failed response.

    Attributes:
        code: one of :data:`ERROR_CODES`.
        message: human-readable detail.
        retry_after: seconds the client should wait before retrying,
            for the retryable codes; ``None`` otherwise.
    """

    code: str
    message: str = ""
    retry_after: float | None = None

    def to_wire(self) -> dict:
        """JSON-ready representation."""
        wire: dict = {"code": self.code, "message": self.message}
        if self.retry_after is not None:
            wire["retry_after"] = self.retry_after
        return wire

    @classmethod
    def from_wire(cls, body: dict) -> "ErrorInfo":
        """Rebuild from a decoded JSON error object."""
        retry = body.get("retry_after")
        return cls(code=str(body.get("code", ERR_INTERNAL)),
                   message=str(body.get("message", "")),
                   retry_after=None if retry is None else float(retry))


@dataclass(frozen=True)
class Response:
    """One decoded response frame (``ok`` result xor ``error``).

    Attributes:
        id: correlation id echoed from the request.
        ok: True for a successful call.
        result: op-specific result mapping when ``ok``.
        error: :class:`ErrorInfo` when not ``ok``.
        v: protocol version the server speaks.
    """

    id: int
    ok: bool
    result: dict | None = None
    error: ErrorInfo | None = None
    v: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        """JSON-ready representation."""
        wire: dict = {"v": self.v, "id": self.id, "ok": self.ok}
        if self.ok:
            wire["result"] = self.result if self.result is not None else {}
        else:
            assert self.error is not None
            wire["error"] = self.error.to_wire()
        return wire

    @classmethod
    def from_wire(cls, body: dict) -> "Response":
        """Rebuild from a decoded JSON body."""
        ok = bool(body.get("ok"))
        error = None if ok else ErrorInfo.from_wire(body.get("error") or {})
        return cls(id=int(body.get("id", 0)), ok=ok,
                   result=body.get("result") if ok else None,
                   error=error, v=int(body.get("v", 0)))


def success(request_id: int, result: dict | None = None) -> Response:
    """A successful :class:`Response` for ``request_id``."""
    return Response(id=request_id, ok=True,
                    result=result if result is not None else {})


def failure(request_id: int, code: str, message: str = "",
            retry_after: float | None = None) -> Response:
    """A failed :class:`Response` carrying ``code``."""
    return Response(id=request_id, ok=False,
                    error=ErrorInfo(code=code, message=message,
                                    retry_after=retry_after))


# -- framing -----------------------------------------------------------------

def encode_frame(body: dict, *, max_frame: int = MAX_FRAME) -> bytes:
    """Serialise one JSON body into a length-prefixed frame."""
    payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
    if len(payload) > max_frame:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the {max_frame}-byte "
            "limit")
    return _PREFIX.pack(len(payload)) + payload


def decode_frame(frame: bytes, *, max_frame: int = MAX_FRAME) -> dict:
    """Decode one complete frame (prefix included) back into its body."""
    if len(frame) < _PREFIX.size:
        raise FrameError("frame shorter than its length prefix")
    (length,) = _PREFIX.unpack_from(frame)
    if length > max_frame:
        raise FrameError(
            f"declared frame length {length} exceeds the {max_frame}-byte "
            "limit")
    if len(frame) != _PREFIX.size + length:
        raise FrameError(
            f"frame length {len(frame) - _PREFIX.size} != declared {length}")
    return json.loads(frame[_PREFIX.size:].decode("utf-8"))


class FrameDecoder:
    """Incremental frame splitter for stream transports.

    Feed it arbitrary byte chunks as they arrive; it yields complete
    decoded JSON bodies and buffers the remainder.  Both the blocking
    socket transport and tests use it; asyncio reads use
    ``readexactly`` directly.
    """

    def __init__(self, *, max_frame: int = MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[dict]:
        """Absorb ``data``; yield every frame body completed by it."""
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _PREFIX.size:
                return
            (length,) = _PREFIX.unpack_from(bytes(self._buffer[:_PREFIX.size]))
            if length > self.max_frame:
                raise FrameError(
                    f"declared frame length {length} exceeds the "
                    f"{self.max_frame}-byte limit")
            end = _PREFIX.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[_PREFIX.size:end])
            del self._buffer[:end]
            yield json.loads(payload.decode("utf-8"))

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting a complete frame."""
        return len(self._buffer)


# -- record codec ------------------------------------------------------------

def encode_record(record: Record) -> list:
    """One record as the 4-element wire list (payload base64)."""
    return [record.key, record.value, record.timestamp,
            base64.b64encode(record.payload).decode("ascii")]


def decode_record(fields: Any) -> Record:
    """Rebuild a :class:`Record` from its wire list."""
    if not isinstance(fields, (list, tuple)) or len(fields) != 4:
        raise ValueError(f"malformed wire record: {fields!r}")
    key, value, timestamp, payload = fields
    return Record(key=int(key), value=float(value),
                  timestamp=float(timestamp),
                  payload=base64.b64decode(payload))


def encode_records(records) -> list[list]:
    """A sequence of records as wire lists."""
    return [encode_record(record) for record in records]


def decode_records(items: Any, schema: RecordSchema | None = None):
    """Rebuild records from wire lists: a list of :class:`Record`, or
    with ``schema`` one :class:`RecordBatch` built column by column
    (no record objects).  The columns take :func:`decode_record`'s
    ``int`` / ``float`` conversions; a number out of its column's range
    (a key beyond 64 bits, say), or a payload wider than the schema's
    slot (as :meth:`RecordSchema.check_payloads` has it), is a
    ``ValueError``."""
    if not isinstance(items, list):
        raise ValueError("wire records must be a list")
    if schema is None:
        return [decode_record(item) for item in items]
    for fields in items:
        if not isinstance(fields, (list, tuple)) or len(fields) != 4:
            raise ValueError(f"malformed wire record: {fields!r}")
    n = len(items)
    array = np.zeros(n, dtype=schema.dtype)
    if items:
        keys, values, stamps, payloads = zip(*items)
        try:
            array["key"] = np.fromiter(map(int, keys), np.int64, count=n)
            array["value"] = np.fromiter(map(float, values), np.float64,
                                         count=n)
            array["timestamp"] = np.fromiter(map(float, stamps),
                                             np.float64, count=n)
        except OverflowError as exc:
            raise ValueError(f"a wire record's number is out of range: "
                             f"{exc}") from exc
        payloads = [base64.b64decode(payload) for payload in payloads]
        width = schema.record_size - MIN_RECORD_SIZE
        for key, payload in zip(keys, payloads):
            if len(payload) > width:
                raise ValueError(
                    f"record {key}: its {len(payload)}-byte payload does "
                    f"not fit the {width}-byte payload slot of "
                    f"{schema.record_size}-byte records")
        if width:
            array["payload"] = payloads
    return RecordBatch(schema, array)
