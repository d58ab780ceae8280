"""Wire protocol for the reservoir serving layer.

One frame = one request or one response, behind a 4-byte big-endian
length prefix, so frames are self-delimiting on a stream socket.  A
frame body is one of two kinds:

* a *control frame* is one UTF-8 JSON object -- trivially parseable
  from any language and debuggable with ``xxd``;
* a *data frame* carries records as packed slab rows.  It is exactly a
  :class:`~repro.service.shm.SlabRing` frame without its 64-byte
  padding -- the ring's 32-byte CRC'd header (its ``seq`` is the
  request id), the rows in ``RecordSchema(record_size).dtype``, the
  8-byte trailer -- followed by the JSON envelope, which names the
  ``record_size``.  Socket and shared-memory ring share one codec and
  its torn-frame checks.

A body that starts with the slab magic is a data frame.  Either kind
is versioned (``"v"``) and correlated (``"id"``), so a transport may
pipeline requests and still match responses.

Why rows are exact: a row is the record's own bytes -- the 64-bit key,
the value and timestamp as IEEE-754 doubles bit for bit (NaN payloads,
``-0.0`` and infinities included) and the payload slot -- so a record
decoded from a frame compares equal, field for field, to the record
that was encoded, under the slot contract every record-keeping
structure already keeps: the payload is padded to ``record_size - 24``
bytes and trailing NULs are dropped.  That is what makes the
:class:`~repro.serve.transport.InlineTransport` twin test meaningful:
a served session returns byte-identical samples to direct engine
calls, through a *real* encode/decode round trip.

The op set mirrors the unified :class:`~repro.core.protocols.Reservoir`
protocol one-to-one (plus ``hello`` for session setup and ``ingest``
for count-only load generation); see docs/SERVING.md for the normative
op table, error codes, and backpressure semantics.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Iterator

from ..service.shm import (
    HEADER_BYTES,
    KIND_DATA,
    SLAB_MAGIC,
    TRAILER_BYTES,
    TornSlabError,
    check_trailer,
    decode_header,
    encode_header,
    encode_trailer,
)
from ..storage.recordbatch import RecordBatch
from ..storage.records import MIN_RECORD_SIZE, RecordSchema

#: Protocol version spoken by this module; bumped on wire changes.
PROTOCOL_VERSION = 2

#: Frames larger than this are rejected before allocation (a corrupt
#: or hostile length prefix must not trigger a multi-GiB read).
MAX_FRAME = 16 * 1024 * 1024

#: The 4-byte big-endian length prefix.
_PREFIX = struct.Struct(">I")

#: First bytes of every data frame body (a JSON body starts with ``{``).
_DATA_MAGIC = struct.pack("<I", SLAB_MAGIC)

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
    """A frame violated the wire contract: too large, short, torn, or
    neither a JSON object nor a well-formed data frame."""


@dataclass(frozen=True)
class Request:
    """One decoded request frame.

    Attributes:
        op: operation name (one of :data:`OPS` for valid requests).
        id: client-chosen correlation id, echoed in the response.
        args: op-specific arguments mapping.
        v: protocol version the client speaks.
        rows: the records an ``offer`` / ``offer_batch`` carries, as
            one :class:`RecordBatch` (sent as a data frame).
    """

    op: str
    id: int = 0
    args: dict = field(default_factory=dict)
    v: int = PROTOCOL_VERSION
    rows: RecordBatch | None = None

    def to_wire(self) -> dict:
        """The wire body; :func:`encode_frame` sends ``rows`` as slab
        rows and everything else as JSON."""
        wire = {"v": self.v, "id": self.id, "op": self.op,
                "args": self.args}
        if self.rows is not None:
            wire["rows"] = self.rows
        return wire

    @classmethod
    def from_wire(cls, body: dict) -> "Request":
        """Rebuild from a decoded body (types coerced, not trusted)."""
        args = body.get("args") or {}
        if not isinstance(args, dict):
            raise ValueError("request args must be an object")
        request_id = int(body.get("id", 0))
        if not 0 <= request_id < 2 ** 64:
            # The id is a data frame's 64-bit header seq.
            raise ValueError(f"request id {request_id} does not fit 64 "
                             "unsigned bits")
        return cls(op=str(body.get("op", "")), id=request_id, args=args,
                   v=int(body.get("v", 0)), rows=_wire_rows(body))


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
        rows: the records a ``sample`` / ``sample_batch`` /
            ``snapshot`` reply carries, as one :class:`RecordBatch`.
    """

    id: int
    ok: bool
    result: dict | None = None
    error: ErrorInfo | None = None
    v: int = PROTOCOL_VERSION
    rows: RecordBatch | None = None

    def to_wire(self) -> dict:
        """The wire body; :func:`encode_frame` sends ``rows`` as slab
        rows and everything else as JSON."""
        wire: dict = {"v": self.v, "id": self.id, "ok": self.ok}
        if self.ok:
            wire["result"] = self.result if self.result is not None else {}
            if self.rows is not None:
                wire["rows"] = self.rows
        else:
            assert self.error is not None
            wire["error"] = self.error.to_wire()
        return wire

    @classmethod
    def from_wire(cls, body: dict) -> "Response":
        """Rebuild from a decoded body."""
        ok = bool(body.get("ok"))
        error = None if ok else ErrorInfo.from_wire(body.get("error") or {})
        return cls(id=int(body.get("id", 0)), ok=ok,
                   result=body.get("result") if ok else None,
                   error=error, v=int(body.get("v", 0)),
                   rows=_wire_rows(body) if ok else None)


def _wire_rows(body: dict) -> RecordBatch | None:
    """A decoded body's rows; only a data frame's decode puts any
    there, so a JSON ``rows`` value is refused."""
    rows = body.get("rows")
    if rows is not None and not isinstance(rows, RecordBatch):
        raise ValueError("records travel only as data-frame rows")
    return rows


def success(request_id: int, result: dict | None = None,
            rows: RecordBatch | None = None) -> Response:
    """A successful :class:`Response` for ``request_id``."""
    return Response(id=request_id, ok=True,
                    result=result if result is not None else {}, rows=rows)


def failure(request_id: int, code: str, message: str = "",
            retry_after: float | None = None) -> Response:
    """A failed :class:`Response` carrying ``code``."""
    return Response(id=request_id, ok=False,
                    error=ErrorInfo(code=code, message=message,
                                    retry_after=retry_after))


# -- framing -----------------------------------------------------------------

def encode_frame(body: dict, *, max_frame: int = MAX_FRAME) -> bytes:
    """Serialise one wire body into a length-prefixed frame.

    A body whose ``rows`` is a :class:`RecordBatch` becomes a data
    frame: the slab header (``seq`` = the body's ``id``), the packed
    rows and the trailer, then the rest of the body as JSON with the
    rows' ``record_size``.  Any other body is one JSON object.
    """
    rows = body.get("rows")
    if rows is None:
        payload = _json_bytes(body)
    else:
        envelope = {name: value for name, value in body.items()
                    if name != "rows"}
        envelope["record_size"] = rows.schema.record_size
        data = rows.to_bytes()
        seq = body["id"]
        payload = b"".join((
            encode_header(KIND_DATA, 0, seq, len(rows), len(data)), data,
            encode_trailer(seq), _json_bytes(envelope)))
    if len(payload) > max_frame:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the {max_frame}-byte "
            "limit")
    return _PREFIX.pack(len(payload)) + payload


def _json_bytes(body: dict) -> bytes:
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


def decode_frame(frame: bytes, *, max_frame: int = MAX_FRAME) -> dict:
    """Decode one complete frame (prefix included) back into its body;
    a data frame's rows come back as a read-only :class:`RecordBatch`
    under ``rows``."""
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
    return _decode_body(memoryview(frame)[_PREFIX.size:])


def _decode_body(body: memoryview) -> dict:
    """One frame body, validated whole before anything is returned."""
    if body[:len(_DATA_MAGIC)] == _DATA_MAGIC:
        return _decode_data(body)
    return _json_object(body)


def _json_object(data: memoryview) -> dict:
    try:
        wire = json.loads(bytes(data).decode("utf-8"))
    except ValueError as exc:  # JSON and UTF-8 errors alike
        raise FrameError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(wire, dict):
        raise FrameError("frame body is not a JSON object")
    return wire


def _decode_data(body: memoryview) -> dict:
    """A data frame: header CRC, trailer stamp, ``seq`` against the
    envelope ``id`` and the byte count against the rows all checked."""
    try:
        kind, _, seq, n_records, n_bytes = decode_header(body)
        end = HEADER_BYTES + n_bytes
        if kind != KIND_DATA:
            raise FrameError(f"frame kind {kind} is not a data frame")
        if len(body) < end + TRAILER_BYTES:
            raise FrameError(
                f"data frame of {len(body)} bytes is shorter than its "
                f"{n_bytes} row bytes")
        check_trailer(body[end:end + TRAILER_BYTES], seq)
    except TornSlabError as exc:
        raise FrameError(f"torn data frame: {exc}") from exc
    wire = _json_object(body[end + TRAILER_BYTES:])
    if wire.get("id") != seq:
        raise FrameError(f"data frame seq {seq} is not its envelope id "
                         f"{wire.get('id')!r}")
    record_size = wire.pop("record_size", None)
    if (not isinstance(record_size, int)
            or not MIN_RECORD_SIZE <= record_size <= MAX_FRAME):
        raise FrameError(f"data frame record_size {record_size!r} is not "
                         f"an integer from {MIN_RECORD_SIZE} to {MAX_FRAME}")
    if n_bytes != n_records * record_size:
        raise FrameError(
            f"data frame holds {n_bytes} row bytes, not {n_records} rows "
            f"of {record_size} B")
    wire["rows"] = RecordBatch.from_bytes(
        RecordSchema(record_size), body[HEADER_BYTES:end], n_records)
    return wire


class FrameDecoder:
    """Incremental frame splitter for stream transports.

    Feed it arbitrary byte chunks as they arrive; it yields complete
    decoded bodies and buffers the remainder.  The blocking socket
    transport and tests use it; asyncio reads use ``readexactly`` and
    :func:`decode_frame` directly.
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
            (length,) = _PREFIX.unpack_from(self._buffer)
            if length > self.max_frame:
                raise FrameError(
                    f"declared frame length {length} exceeds the "
                    f"{self.max_frame}-byte limit")
            end = _PREFIX.size + length
            if len(self._buffer) < end:
                return
            payload = memoryview(bytes(self._buffer[_PREFIX.size:end]))
            del self._buffer[:end]
            yield _decode_body(payload)

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting a complete frame."""
        return len(self._buffer)


# -- rows --------------------------------------------------------------------

def pack_rows(records, schema: RecordSchema | None = None) -> RecordBatch:
    """Records as one batch of rows for a data frame, encoded once.

    Every record is checked against ``schema`` first
    (:meth:`RecordSchema.check_payloads`: a payload wider than the
    slot, or a key outside the 64-bit field, is a ``ValueError``).
    With no schema -- an engine without a record layout -- the rows
    take the smallest one that holds every payload.
    """
    records = list(records)
    if schema is None:
        width = max((len(record.payload) for record in records), default=0)
        schema = RecordSchema(MIN_RECORD_SIZE + width)
    schema.check_payloads(records)
    return RecordBatch.from_records(schema, records)
