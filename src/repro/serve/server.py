"""The reservoir server: one engine, many sessions, one dispatch path.

:class:`ReservoirServer` owns a single engine (anything implementing
the unified :class:`~repro.core.protocols.Reservoir` protocol --
production deployments use a
:class:`~repro.service.ShardedReservoir`) and answers wire requests
against it.  All request handling funnels through :meth:`dispatch`,
one synchronous, transport-agnostic function: the asyncio TCP
front-end, the blocking :class:`~repro.serve.transport.InlineTransport`
twin, and the tests all exercise literally the same code path, which
is what makes the twin-run bit-exactness guarantee a statement about
the server rather than about a test double.

Concurrency model: the engine is not thread-safe, so the asyncio
front-end runs each request's whole :meth:`ReservoirServer.handle_frame`
on one executor thread, one request at a time: the frame decode,
:meth:`~ReservoirServer.dispatch` with its rate limit and admission
check, the engine call, and the response encode.  The event loop only
moves frames -- it reads each length-prefixed request off its
connection and writes the reply back -- so it never blocks on the
engine.  Queries are consistent snapshot cuts at the engine's flush
frontier (the service's query RNG is segregated, so reads never
perturb ingest state, and ``flush_barrier`` means they never wait for
queued background I/O beyond the barrier), but they share that one
thread with ingest: a slow read delays the requests queued behind it.

Pushback is never implicit queueing.  Ingest ops are admitted only
while the engine's journal depth (unacknowledged batches across
shards) is at or below ``admission_depth``; beyond it the server
answers ``busy`` with a ``retry_after`` proportional to the overshoot
-- the 429 idiom -- so backpressure reaches the producer as data, not
as an unbounded socket buffer.  Per-session token buckets bound any
single client's request rate the same way (``rate_limited`` +
``retry_after``).

Shutdown is a drain: stop accepting connections, answer in-flight
requests, reject new work with ``shutting_down``, then checkpoint the
engine so no acknowledged record is lost.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from ..storage.recordbatch import RecordBatch
from ..storage.records import RecordSchema
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_BUSY,
    ERR_INTERNAL,
    ERR_RATE_LIMITED,
    ERR_SHUTTING_DOWN,
    ERR_UNKNOWN_OP,
    ERR_UNSUPPORTED_VERSION,
    MAX_FRAME,
    OPS,
    PROTOCOL_VERSION,
    FrameError,
    Request,
    Response,
    decode_frame,
    encode_frame,
    failure,
    pack_rows,
    success,
)
from .ratelimit import TokenBucket

#: Ops that add records (and therefore face admission control).
INGEST_OPS = ("offer", "offer_batch", "ingest")

#: Ops still answered while the server is draining.
DRAIN_OPS = ("hello", "close")


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs; every default is safe for tests.

    Attributes:
        host: bind address for the TCP front-end.
        port: bind port; ``0`` picks a free one (see
            :attr:`ReservoirServer.address` after start).
        rate_rps: per-session token-bucket refill rate in requests per
            second; ``0`` disables rate limiting.
        rate_burst: per-session bucket capacity; ``None`` means one
            second of credit (``rate_rps``).
        admission_depth: largest engine journal depth (unacknowledged
            journaled messages across shards) at which ingest ops are
            still admitted; deeper queues earn ``busy``.
        busy_retry_per_message: seconds of ``retry_after`` charged per
            journal message beyond ``admission_depth`` -- the knob
            translating queue overshoot into client backoff.
        max_frame: largest frame accepted or produced, in bytes.
    """

    host: str = "127.0.0.1"
    port: int = 0
    rate_rps: float = 0.0
    rate_burst: float | None = None
    admission_depth: int = 1024
    busy_retry_per_message: float = 0.002
    max_frame: int = MAX_FRAME


class Session:
    """Per-client connection state: identity, bucket, counters."""

    def __init__(self, session_id: int, bucket: TokenBucket) -> None:
        self.id = session_id
        self.bucket = bucket
        self.requests = 0
        self.rejected = 0
        self.closed = False


class ReservoirServer:
    """Serve one reservoir engine to many sessions.

    Args:
        engine: the owned reservoir (typically a
            :class:`~repro.service.ShardedReservoir`); the server calls
            only unified-protocol methods plus the optional
            ``journal_depth`` gauge.
        config: serving knobs; defaults are test-safe.
        clock: wall-clock source for request latency accounting,
            injectable for tests.
    """

    name = "reservoir server"

    def __init__(self, engine, config: ServerConfig | None = None,
                 *, clock: Callable[[], float] = time.monotonic) -> None:
        self.engine = engine
        self.config = config or ServerConfig()
        self._clock = clock
        # A record-keeping engine takes offered rows as they arrive and
        # answers in its own layout; a count-only one gets record lists.
        engine_config = getattr(engine, "config", None)
        self._schema = (RecordSchema(engine_config.record_size)
                        if getattr(engine_config, "retain_records", False)
                        else None)
        self.draining = False
        self._next_session = 0
        self.sessions_opened = 0
        self.sessions_active = 0
        self.requests_served = 0
        self.busy_rejections = 0
        self.rate_limit_rejections = 0
        # Observability hooks (server-level), instrument() attaches.
        self._registry = None
        self._trace = None
        self._obs_name = self.name
        self._event_counters: dict = {}
        # asyncio front-end state, populated by start().
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._conn_tasks: set = set()

    # -- sessions ------------------------------------------------------------

    def open_session(self) -> Session:
        """Create one session with its own token bucket."""
        self._next_session += 1
        self.sessions_opened += 1
        self.sessions_active += 1
        bucket = TokenBucket(self.config.rate_rps, self.config.rate_burst,
                             clock=self._clock)
        return Session(self._next_session, bucket)

    def close_session(self, session: Session) -> None:
        """Retire a session (idempotent)."""
        if not session.closed:
            session.closed = True
            self.sessions_active -= 1

    # -- dispatch (the one true request path) --------------------------------

    def dispatch(self, request: Request, session: Session) -> Response:
        """Answer one request synchronously.

        Every transport funnels here.  Order of checks: version, op
        existence, drain state, rate limit, admission control, then
        the engine call.  Engine ``ValueError``/``TypeError`` map to
        ``bad_request`` (the caller sent arguments the engine
        rejects); anything else is ``internal``.
        """
        started = self._clock()
        session.requests += 1
        response = self._dispatch_inner(request, session)
        latency = self._clock() - started
        self.requests_served += 1
        status = "ok" if response.ok else response.error.code
        self._emit("serve_request", op=request.op, status=status,
                   session=session.id, latency=latency)
        self._set_gauges()
        return response

    def _dispatch_inner(self, request: Request, session: Session) -> Response:
        if request.v != PROTOCOL_VERSION:
            return failure(request.id, ERR_UNSUPPORTED_VERSION,
                           f"server speaks protocol {PROTOCOL_VERSION}, "
                           f"request carried {request.v}")
        if request.op not in OPS:
            return failure(request.id, ERR_UNKNOWN_OP,
                           f"unknown op {request.op!r}")
        if self.draining and request.op not in DRAIN_OPS:
            return failure(request.id, ERR_SHUTTING_DOWN,
                           "server is draining")
        wait = session.bucket.try_acquire()
        if wait > 0:
            session.rejected += 1
            self.rate_limit_rejections += 1
            self._emit("rate_limited", op=request.op, session=session.id,
                       retry_after=wait)
            return failure(request.id, ERR_RATE_LIMITED,
                           "session token bucket empty", retry_after=wait)
        if request.op in INGEST_OPS:
            depth = int(getattr(self.engine, "journal_depth", 0))
            overshoot = depth - self.config.admission_depth
            if overshoot > 0:
                session.rejected += 1
                self.busy_rejections += 1
                retry = overshoot * self.config.busy_retry_per_message
                self._emit("rate_limited", op=request.op,
                           session=session.id, retry_after=retry,
                           journal_depth=depth)
                return failure(request.id, ERR_BUSY,
                               f"journal depth {depth} exceeds admission "
                               f"threshold {self.config.admission_depth}",
                               retry_after=retry)
        try:
            return self._execute(request, session)
        except (ValueError, TypeError, KeyError) as exc:
            return failure(request.id, ERR_BAD_REQUEST, repr(exc))
        except Exception as exc:  # noqa: BLE001 - the wire must answer
            return failure(request.id, ERR_INTERNAL, repr(exc))

    def _execute(self, request: Request, session: Session) -> Response:
        """Run one validated op against the engine."""
        op, args, rid = request.op, request.args, request.id
        engine = self.engine
        if op == "hello":
            config = getattr(engine, "config", None)
            return success(rid, {
                "protocol": PROTOCOL_VERSION,
                "server": self._obs_name,
                "engine": getattr(engine, "name", type(engine).__name__),
                "capacity": int(getattr(engine, "capacity", 0)),
                "shards": int(getattr(engine, "shards", 1)),
                "record_size": int(getattr(config, "record_size", 0)),
                "session": session.id,
            })
        if op == "offer":
            rows = self._rows(request)
            if len(rows) != 1:
                raise ValueError(f"offer carries one row, not {len(rows)}")
            engine.offer(rows[0])
            return success(rid)
        if op == "offer_batch":
            rows = self._rows(request)
            admitted = engine.offer_batch(
                rows if self._schema is not None else rows.to_records())
            return success(rid, {"admitted": int(admitted)})
        if op == "ingest":
            n = int(args["n"])
            engine.ingest(n)
            return success(rid, {"ingested": n})
        if op == "sample":
            records = engine.sample(self._arg_k(args))
            return success(rid, rows=pack_rows(records, self._schema))
        if op == "sample_batch":
            return success(rid, rows=engine.sample_batch(self._arg_k(args)))
        if op == "snapshot":
            records, seen = engine.snapshot(self._arg_k(args))
            return success(rid, {"seen": int(seen)},
                           pack_rows(records, self._schema))
        if op == "stats":
            return success(rid, {"stats": engine.stats().as_dict()})
        if op == "checkpoint":
            engine.checkpoint()
            return success(rid)
        if op == "close":
            self.close_session(session)
            return success(rid, {"goodbye": True})
        raise AssertionError(f"unhandled op {op!r}")  # pragma: no cover

    @staticmethod
    def _arg_k(args: dict) -> int | None:
        k = args.get("k")
        return None if k is None else int(k)

    def _rows(self, request: Request) -> RecordBatch:
        """An ingest request's rows, refused unless they are in the
        engine's record layout."""
        rows = request.rows
        if rows is None:
            raise ValueError(f"{request.op} carries its records as rows "
                             "in a data frame")
        if self._schema is not None and rows.schema != self._schema:
            raise ValueError(
                f"rows of {rows.schema.record_size} B do not match the "
                f"engine's {self._schema.record_size}-byte records")
        return rows

    # -- frame-level entry (inline transport + tests) ------------------------

    def handle_frame(self, frame: bytes, session: Session) -> bytes:
        """Decode one request frame, dispatch it, encode the response.

        A data frame is validated whole before any state changes: its
        header CRC and trailer, its header ``seq`` against the envelope
        ``id``, its byte count against its rows, and (in
        :meth:`dispatch`) its ``record_size`` against the engine's.
        Malformed frames and bodies earn ``bad_request`` responses
        rather than exceptions -- a wire server answers, it does not
        crash -- and so does a reply too large for ``max_frame``.
        """
        max_frame = self.config.max_frame
        try:
            request = Request.from_wire(decode_frame(frame,
                                                     max_frame=max_frame))
        except (FrameError, ValueError, TypeError) as exc:
            response = failure(0, ERR_BAD_REQUEST, repr(exc))
        else:
            response = self.dispatch(request, session)
        try:
            return encode_frame(response.to_wire(), max_frame=max_frame)
        except FrameError as exc:
            return encode_frame(failure(response.id, ERR_BAD_REQUEST,
                                        repr(exc)).to_wire(),
                                max_frame=max_frame)

    # -- graceful drain ------------------------------------------------------

    def drain(self) -> None:
        """Stop admitting work and checkpoint the engine (idempotent).

        After this returns, every record the server acknowledged has
        reached the engine's durable store; subsequent non-``hello``/
        ``close`` requests earn ``shutting_down``.  The engine itself
        stays open -- its owner decides when to ``close()`` it.
        """
        if not self.draining:
            self.draining = True
        self.engine.checkpoint()

    # -- asyncio front-end ---------------------------------------------------

    async def start(self) -> None:
        """Bind the TCP listener and start accepting sessions."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="reservoir-serve")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` once started."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        session = self.open_session()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    frame = await self._read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break  # client went away mid-stream: just clean up
                if frame is None:
                    break
                response_frame = await loop.run_in_executor(
                    self._executor, self.handle_frame, frame, session)
                writer.write(response_frame)
                try:
                    await writer.drain()
                except ConnectionResetError:
                    break
                if session.closed:
                    break
        finally:
            self.close_session(session)
            self._set_gauges()
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_frame(self, reader: asyncio.StreamReader
                          ) -> bytes | None:
        """One complete frame from the stream, or ``None`` on EOF."""
        try:
            prefix = await reader.readexactly(4)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between frames
            raise
        length = int.from_bytes(prefix, "big")
        if length > self.config.max_frame:
            raise asyncio.IncompleteReadError(prefix, length)
        body = await reader.readexactly(length)
        return prefix + body

    async def shutdown(self) -> None:
        """Graceful drain of the TCP front-end, then the engine.

        Stops the listener, flips :attr:`draining` (new requests on
        live connections get ``shutting_down``), lets in-flight
        dispatches finish, checkpoints the engine, and releases the
        executor.
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        loop = asyncio.get_running_loop()
        if self._executor is not None:
            # Checkpoint on the engine thread so it never races an
            # in-flight dispatch.
            await loop.run_in_executor(self._executor, self.drain)
            self._executor.shutdown(wait=True)
            self._executor = None
        else:
            self.drain()

    # -- observability -------------------------------------------------------

    def instrument(self, registry, trace=None, *, name: str | None = None
                   ) -> None:
        """Attach server-level observers.

        Every dispatched request bumps ``events.serve_request`` and
        lands in the trace with its op, status, and latency; throttles
        (token bucket or admission control) additionally emit
        ``events.rate_limited``.  Gauges mirror live queue state:
        ``serve.sessions``, ``serve.journal_depth``.
        """
        self._obs_name = name if name is not None else self.name
        self._registry = registry
        self._trace = trace
        self._event_counters = {}

    def _emit(self, kind: str, **fields) -> None:
        if self._registry is not None:
            counter = self._event_counters.get(kind)
            if counter is None:
                counter = self._registry.counter(
                    f"events.{kind}", structure=self._obs_name)
                self._event_counters[kind] = counter
            counter.inc()
        if self._trace is not None:
            self._trace.emit(kind, self._obs_name, 0.0, **fields)

    def _set_gauges(self) -> None:
        if self._registry is None:
            return
        labels = {"structure": self._obs_name}
        self._registry.gauge("serve.sessions", **labels).set(
            self.sessions_active)
        self._registry.gauge("serve.journal_depth", **labels).set(
            int(getattr(self.engine, "journal_depth", 0)))
