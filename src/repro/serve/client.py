"""Client SDK for the reservoir server, sync and async.

:class:`ServeClient` mirrors the unified
:class:`~repro.core.protocols.Reservoir` protocol method for method --
code written against the protocol runs unchanged whether pointed at a
local structure or a served one -- and adds the count-only ``ingest``
fast path plus the ``estimate_*`` AQP conveniences (which draw their
snapshot over the wire and run the estimator locally, since predicates
are Python callables that cannot cross the wire).

Records cross the wire only as packed slab rows
(:mod:`repro.serve.protocol`): a ``RecordBatch`` is sent as it is, and
a record list is checked and encoded once, here, in the record layout
``hello`` reports -- a record that layout cannot hold is a
``ValueError`` before anything is sent.

Backpressure is cooperative: on ``busy`` or ``rate_limited`` the
client sleeps exactly the server-supplied ``retry_after`` and retries,
up to ``max_retries`` attempts, so a producer naturally slows to the
service's admission rate.  Any other error raises
:class:`ServeError` carrying the wire code.  A reply the client
refuses -- too large, torn, or carrying another request's id -- closes
the session, and every later call raises
:class:`~repro.serve.transport.TransportClosed` at once.

:class:`AsyncServeClient` is the same surface with ``async`` methods
over an ``asyncio`` stream connection, for callers already living in
an event loop (the load-generator bench drives many of these
concurrently).
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from ..estimate import Estimate, SnapshotEstimator
from ..obs import ReservoirStats, stats_from_dict
from ..storage.recordbatch import RecordBatch
from ..storage.records import Record, RecordSchema
from .protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    ErrorInfo,
    FrameError,
    Request,
    Response,
    decode_frame,
    encode_frame,
    pack_rows,
)
from .transport import InlineTransport, SocketTransport, TransportClosed

#: Fallback backoff when a retryable error carries no ``retry_after``.
DEFAULT_BACKOFF = 0.05


class ServeError(RuntimeError):
    """A request failed with a wire error the client does not retry.

    Attributes:
        code: the wire error code (see :mod:`repro.serve.protocol`).
        retry_after: the server's suggested backoff, when given.
    """

    def __init__(self, error: ErrorInfo) -> None:
        super().__init__(f"{error.code}: {error.message}")
        self.code = error.code
        self.retry_after = error.retry_after


def _hello_schema(hello: dict) -> RecordSchema | None:
    """The record layout ``hello`` reports; ``None`` for an engine
    without one (rows then take the smallest that holds the payloads)."""
    record_size = int(hello.get("record_size") or 0)
    return RecordSchema(record_size) if record_size else None


class ServeClient:
    """Synchronous served reservoir conforming to the protocol.

    Args:
        transport: an :class:`~repro.serve.transport.InlineTransport`
            or :class:`~repro.serve.transport.SocketTransport`.
        max_retries: attempts per call on retryable errors (``busy``,
            ``rate_limited``) before giving up with :class:`ServeError`.
        sleep: injectable sleep for deterministic tests.
    """

    name = "served reservoir"

    def __init__(self, transport, *, max_retries: int = 8,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self._transport = transport
        self.max_retries = max_retries
        self._sleep = sleep
        self._next_id = 0
        self._hello: dict | None = None
        self.retries = 0
        self._closed = False
        self._hot = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def connect(cls, host: str, port: int, *, timeout: float = 30.0,
                max_frame: int = MAX_FRAME, **kwargs) -> "ServeClient":
        """Open a TCP session to a running server."""
        return cls(SocketTransport(host, port, timeout=timeout,
                                   max_frame=max_frame), **kwargs)

    @classmethod
    def in_process(cls, server, **kwargs) -> "ServeClient":
        """A served session against an in-process server (the twin)."""
        return cls(InlineTransport(server), **kwargs)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------------

    def _call(self, op: str, args: dict | None = None, *,
              rows: RecordBatch | None = None) -> Response:
        self._next_id += 1
        request = Request(op=op, id=self._next_id, args=args or {},
                          v=PROTOCOL_VERSION, rows=rows)
        attempts = 0
        while True:
            response = self._transport.request(request)
            if response.id != request.id:
                self._transport.close()
                raise TransportClosed(
                    f"reply carries id {response.id}, the request was "
                    f"{request.id}")
            if response.ok:
                return response
            error = response.error
            assert error is not None
            if error.code in RETRYABLE_CODES and attempts < self.max_retries:
                attempts += 1
                self.retries += 1
                self._sleep(error.retry_after
                            if error.retry_after else DEFAULT_BACKOFF)
                continue
            raise ServeError(error)

    def hello(self) -> dict:
        """Session/engine metadata (cached after the first call)."""
        if self._hello is None:
            self._hello = self._call("hello").result
        return self._hello

    def _rows(self, records) -> RecordBatch:
        """An offer's records as rows: a ``RecordBatch`` as it is, a
        record list packed in the engine's layout."""
        if isinstance(records, RecordBatch):
            return records
        return pack_rows(records, _hello_schema(self.hello()))

    # -- Reservoir protocol --------------------------------------------------

    def offer(self, record: Record) -> None:
        """Present one stream record to the served reservoir."""
        self._call("offer", rows=self._rows([record]))
        if self._hot is not None:
            self._hot.observe(record)

    def offer_batch(self, records) -> int:
        """Present a batch (``RecordBatch`` or sequence); returns the
        number admitted."""
        if not isinstance(records, RecordBatch):
            records = list(records)
        response = self._call("offer_batch", rows=self._rows(records))
        if self._hot is not None:
            if isinstance(records, RecordBatch):
                self._hot.observe_batch(records)
            else:
                self._hot.observe_many(records)
        return int(response.result["admitted"])

    def ingest(self, n: int) -> None:
        """Count-only ingestion (cheap load generation)."""
        self._call("ingest", {"n": int(n)})
        if self._hot is not None:
            self._hot.observe_count(int(n))

    def sample(self, k: int | None = None) -> list[Record]:
        """A uniform random sample of the served union stream."""
        return self._call("sample", {"k": k}).rows.to_records()

    def sample_batch(self, k: int | None = None) -> RecordBatch:
        """:meth:`sample` as one columnar :class:`RecordBatch`."""
        return self._call("sample_batch", {"k": k}).rows

    def snapshot(self, k: int | None = None) -> tuple[list[Record], int]:
        """(:meth:`sample` result, union stream position) in one call."""
        response = self._call("snapshot", {"k": k})
        return response.rows.to_records(), int(response.result["seen"])

    def stats(self) -> ReservoirStats:
        """The engine's aggregated :class:`ReservoirStats`."""
        return stats_from_dict(self._call("stats").result["stats"])

    def checkpoint(self) -> None:
        """Force the engine to checkpoint durably before returning."""
        self._call("checkpoint")

    def close(self) -> None:
        """End the session and release the transport (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._call("close")
        except (TransportClosed, ServeError):
            pass  # the goodbye is a courtesy, not a contract
        self._transport.close()

    # -- AQP conveniences ----------------------------------------------------
    # Thin shims over the shared :class:`repro.estimate.SnapshotEstimator`
    # (one wire snapshot, estimator math run locally — predicates are
    # callables and stay client-side); signatures are preserved exactly.

    def estimate_sum(self, k: int | None = None, *,
                     value: Callable[[Record], float] | None = None,
                     predicate: Callable[[Record], bool] | None = None,
                     ) -> Estimate:
        """Estimate SUM(value) over the entire served stream."""
        return SnapshotEstimator(*self.snapshot(k)).sum(
            value=value, predicate=predicate)

    def estimate_count(self, k: int | None = None,
                       predicate: Callable[[Record], bool] = lambda r: True,
                       ) -> Estimate:
        """Estimate COUNT of stream records satisfying ``predicate``."""
        return SnapshotEstimator(*self.snapshot(k)).count(predicate)

    def estimate_avg(self, k: int | None = None, *,
                     value: Callable[[Record], float] | None = None,
                     predicate: Callable[[Record], bool] | None = None,
                     ) -> Estimate:
        """Estimate AVG(value) over stream records matching ``predicate``."""
        records, _ = self.snapshot(k)
        return SnapshotEstimator(records).avg(value=value, predicate=predicate)

    # -- Tiered AQP cache ----------------------------------------------------

    def enable_aqp_cache(self, budget: int = 4096, *, seed: int = 0):
        """Attach a client-side :class:`repro.estimate.HotSubsample`.

        A :class:`repro.estimate.QueryPlanner` over this client answers
        bounded queries from the local cache without any wire round-trip
        (and hence without the server-side ``flush_barrier``); only
        escalations touch the transport.  Records already offered before
        enabling (per :meth:`stats`) leave the cache incoherent until the
        first escalation refreshes it from a uniform server draw.

        ``AsyncServeClient`` deliberately has no cache: its concurrency
        model would interleave ``observe`` calls across in-flight offers,
        breaking the sequential admission law the cache relies on.
        """
        if self._hot is None:
            from ..estimate.planner import HotSubsample
            record_size = int(self.hello().get("record_size") or 0)
            schema = RecordSchema(record_size if record_size > 0 else 100)
            self._hot = HotSubsample(schema, budget, seed=seed,
                                     stream_seen=self.stats().seen)
        return self._hot

    @property
    def aqp_cache(self):
        """The attached :class:`HotSubsample`, or ``None``."""
        return self._hot


class AsyncServeClient:
    """Asynchronous served reservoir (same surface, ``async`` methods).

    Built over one ``asyncio`` stream connection; a session serialises
    its own requests (one in flight at a time), and concurrency comes
    from running many sessions, which is how the load bench and the
    concurrency tests use it.

    Args:
        reader/writer: an open ``asyncio`` stream pair.
        max_retries: as for :class:`ServeClient`.
    """

    name = "served reservoir (async)"

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *,
                 max_retries: int = 8,
                 max_frame: int = MAX_FRAME) -> None:
        self._reader = reader
        self._writer = writer
        self.max_retries = max_retries
        self._max_frame = max_frame
        self._next_id = 0
        self._hello: dict | None = None
        self.retries = 0
        self._closed = False

    @classmethod
    async def connect(cls, host: str, port: int,
                      **kwargs) -> "AsyncServeClient":
        """Open a TCP session to a running server."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, **kwargs)

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -- plumbing ------------------------------------------------------------

    async def _roundtrip(self, frame: bytes) -> Response:
        self._writer.write(frame)
        await self._writer.drain()
        prefix = await self._reader.readexactly(4)
        length = int.from_bytes(prefix, "big")
        if length > self._max_frame:
            raise FrameError(f"oversized response frame ({length} B)")
        body = await self._reader.readexactly(length)
        return Response.from_wire(decode_frame(prefix + body,
                                               max_frame=self._max_frame))

    def _drop(self) -> None:
        """Close the connection after a failed exchange: the byte
        stream can no longer be trusted to start at a frame."""
        self._closed = True
        self._writer.close()

    async def _call(self, op: str, args: dict | None = None, *,
                    rows: RecordBatch | None = None) -> Response:
        if self._closed:
            raise TransportClosed("client is closed")
        self._next_id += 1
        request = Request(op=op, id=self._next_id, args=args or {},
                          v=PROTOCOL_VERSION, rows=rows)
        frame = encode_frame(request.to_wire(), max_frame=self._max_frame)
        attempts = 0
        while True:
            try:
                response = await self._roundtrip(frame)
            except (asyncio.IncompleteReadError, OSError, ValueError) as exc:
                self._drop()
                raise TransportClosed(f"no usable reply: {exc!r}") from exc
            if response.id != request.id:
                self._drop()
                raise TransportClosed(
                    f"reply carries id {response.id}, the request was "
                    f"{request.id}")
            if response.ok:
                return response
            error = response.error
            assert error is not None
            if error.code in RETRYABLE_CODES and attempts < self.max_retries:
                attempts += 1
                self.retries += 1
                await asyncio.sleep(error.retry_after
                                    if error.retry_after else DEFAULT_BACKOFF)
                continue
            raise ServeError(error)

    async def hello(self) -> dict:
        """Session/engine metadata (cached after the first call)."""
        if self._hello is None:
            self._hello = (await self._call("hello")).result
        return self._hello

    async def _rows(self, records) -> RecordBatch:
        """An offer's records as rows: a ``RecordBatch`` as it is, a
        record list packed in the engine's layout."""
        if isinstance(records, RecordBatch):
            return records
        return pack_rows(records, _hello_schema(await self.hello()))

    # -- Reservoir protocol (async) ------------------------------------------

    async def offer(self, record: Record) -> None:
        """Present one stream record to the served reservoir."""
        await self._call("offer", rows=await self._rows([record]))

    async def offer_batch(self, records) -> int:
        """Present a batch; returns the number admitted."""
        response = await self._call("offer_batch",
                                    rows=await self._rows(records))
        return int(response.result["admitted"])

    async def ingest(self, n: int) -> None:
        """Count-only ingestion (cheap load generation)."""
        await self._call("ingest", {"n": int(n)})

    async def sample(self, k: int | None = None) -> list[Record]:
        """A uniform random sample of the served union stream."""
        return (await self._call("sample", {"k": k})).rows.to_records()

    async def sample_batch(self, k: int | None = None) -> RecordBatch:
        """:meth:`sample` as one columnar :class:`RecordBatch`."""
        return (await self._call("sample_batch", {"k": k})).rows

    async def snapshot(self, k: int | None = None
                       ) -> tuple[list[Record], int]:
        """(:meth:`sample` result, union stream position) in one call."""
        response = await self._call("snapshot", {"k": k})
        return response.rows.to_records(), int(response.result["seen"])

    async def stats(self) -> ReservoirStats:
        """The engine's aggregated :class:`ReservoirStats`."""
        return stats_from_dict((await self._call("stats")).result["stats"])

    async def checkpoint(self) -> None:
        """Force the engine to checkpoint durably before returning."""
        await self._call("checkpoint")

    async def close(self) -> None:
        """End the session and close the connection (idempotent)."""
        if self._closed:
            return
        try:
            await self._call("close")
        except (TransportClosed, ServeError):
            pass
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
