"""Worker pools: real processes and an in-process stand-in.

:class:`ProcessPool` is the production harness -- one daemon process
per shard, a *bounded* inbox queue (the bound IS the backpressure: a
producer outrunning a shard blocks in ``send`` until the shard drains),
and an outbox for replies.  :class:`InlinePool` runs the identical
:class:`~repro.service.worker.ShardWorker` state machine synchronously
in the calling process: deterministic, dependency-free, and fast --
the variant tier-1 tests exercise, with crashes simulated by dropping
the worker object (its checkpoint file on disk is all that survives,
exactly as for a killed process).

Both pools expose the same surface: ``send`` / ``recv`` / ``try_recv``
/ ``drain`` / ``alive`` / ``kill`` / ``respawn`` / ``close``.  Death is
reported as :class:`ShardDead`, which the supervisor treats as the
recovery trigger; the pools themselves never touch checkpoints or
journals.

Transports.  :class:`ProcessPool` moves messages over pickling
``multiprocessing.Queue``\\ s; with ``ipc="shm"`` it adds a data plane:
one inbound and one outbound :class:`~repro.service.shm.SlabRing` per
shard, over which :class:`~repro.storage.recordbatch.RecordBatch`
payloads travel as zero-copy slabs.  Every slab is paired with a tiny
*stub* message on the queue -- the queue keeps its total FIFO order
(control commands can never overtake in-flight batches) and both sides
are FIFO, so the k-th stub always describes the k-th ring frame.  The
control plane (checkpoint, crash, stop, acks) never touches the rings;
a slab too large for its ring falls back to the pickled queue path
(``RecordBatch`` is picklable precisely for this), so correctness is
transport-independent.  Waits are adaptive (sub-millisecond floor,
doubling to a bounded ceiling) instead of the old fixed 50 ms poll,
and all measured waiting is surfaced (``send_wait_seconds`` /
``recv_wait_seconds``) for the supervisor's stall accounting.
"""

from __future__ import annotations

import logging
import multiprocessing
import queue as queue_module
import time
from collections import deque

from ..storage.recordbatch import RecordBatch
from ..storage.records import RecordSchema
from .shm import (
    DEFAULT_RING_BYTES,
    HAVE_SHM,
    KIND_DATA,
    SlabRing,
    TornSlabError,
)
from .spec import ShardSpec
from .worker import ShardWorker, SimulatedCrash, worker_main

#: Adaptive wait bounds: first retry after half a millisecond, backing
#: off by doubling to the old poll granularity.  Small-batch latency
#: stops quantizing at 50 ms while idle waits stay as cheap as before.
_WAIT_FLOOR = 0.0005
_WAIT_CEIL = 0.05

_log = logging.getLogger(__name__)


class _AdaptiveWait:
    """Escalating timeout generator with measured total wait."""

    __slots__ = ("current", "waited")

    def __init__(self) -> None:
        self.current = _WAIT_FLOOR
        self.waited = 0.0

    def step(self) -> float:
        """The timeout to use for the next blocking attempt."""
        t = self.current
        self.current = min(t * 2.0, _WAIT_CEIL)
        return t

    def sleep(self) -> None:
        """Sleep one step (for ring waits, which have no timeout arg)."""
        t = self.step()
        time.sleep(t)
        self.waited += t


class ShardDead(RuntimeError):
    """A shard's worker is gone; carries the shard id for recovery."""

    def __init__(self, shard_id: int, why: str = "worker died") -> None:
        super().__init__(f"shard {shard_id}: {why}")
        self.shard_id = shard_id


class InlinePool:
    """Synchronous single-process pool (the fake used by tier-1 tests).

    ``send`` runs the worker's handler immediately; replies queue in a
    per-shard deque that ``recv``/``drain`` pop.  A ``crash`` command
    (or :meth:`kill`) discards the in-memory worker -- the only state
    that survives to :meth:`respawn` is the checkpoint file, so the
    recovery path under test is the real one.
    """

    is_process_backed = False
    #: Inline workers share the caller's heap: a ``RecordBatch`` batch
    #: payload needs no serialisation, so the columnar scatter is safe.
    supports_batches = True
    ipc = "inline"
    zero_copy_bytes = 0
    fallback_slabs = 0
    ring_stalls = 0
    dropped_replies = 0
    send_wait_seconds = 0.0
    recv_wait_seconds = 0.0

    def __init__(self, specs: list[ShardSpec]) -> None:
        self.specs = list(specs)
        self._workers: dict[int, ShardWorker | None] = {}
        self._outboxes: dict[int, deque] = {
            spec.shard_id: deque() for spec in self.specs
        }
        for spec in self.specs:
            self._start(spec)

    def _start(self, spec: ShardSpec) -> None:
        worker = ShardWorker(spec)
        self._workers[spec.shard_id] = worker
        self._outboxes[spec.shard_id].append(
            ("ready", spec.shard_id, worker.seq))

    def alive(self, shard_id: int) -> bool:
        return self._workers.get(shard_id) is not None

    def queue_depth(self, shard_id: int) -> int:
        """Pending commands (always 0: inline execution is immediate)."""
        return 0

    def ring_depth(self, shard_id: int) -> int:
        """Bytes in flight on the shard's rings (always 0 inline)."""
        return 0

    def send(self, shard_id: int, message: tuple) -> int:
        """Deliver one command; returns backpressure stalls (always 0)."""
        worker = self._workers.get(shard_id)
        if worker is None:
            raise ShardDead(shard_id)
        try:
            replies = worker.handle(message)
        except SimulatedCrash:
            self._workers[shard_id] = None
            raise ShardDead(shard_id, "crashed on command") from None
        self._outboxes[shard_id].extend(replies)
        if message[0] == "stop":
            self._workers[shard_id] = None
        return 0

    def recv(self, shard_id: int, timeout: float | None = None) -> tuple:
        outbox = self._outboxes[shard_id]
        if outbox:
            return outbox.popleft()
        if not self.alive(shard_id):
            raise ShardDead(shard_id, "no reply and worker gone")
        raise queue_module.Empty(
            f"shard {shard_id} has no pending replies")

    def try_recv(self, shard_id: int) -> tuple | None:
        """Non-blocking :meth:`recv`; ``None`` when nothing is ready."""
        outbox = self._outboxes[shard_id]
        if outbox:
            return outbox.popleft()
        if not self.alive(shard_id):
            raise ShardDead(shard_id, "no reply and worker gone")
        return None

    def drain(self, shard_id: int) -> list[tuple]:
        """Pop every buffered reply (late acks before a respawn)."""
        outbox = self._outboxes[shard_id]
        drained = list(outbox)
        outbox.clear()
        return drained

    def kill(self, shard_id: int) -> None:
        """Hard-kill: drop the worker, keep only its on-disk checkpoint."""
        self._workers[shard_id] = None

    def respawn(self, shard_id: int) -> None:
        spec = next(s for s in self.specs if s.shard_id == shard_id)
        self._outboxes[shard_id].clear()
        self._start(spec)

    def close(self) -> None:
        self._workers = {spec.shard_id: None for spec in self.specs}


class ProcessPool:
    """One daemon process per shard with bounded inboxes.

    Args:
        specs: one :class:`ShardSpec` per shard.
        queue_depth: inbox bound in *messages* (a batch is one
            message); a full inbox blocks ``send`` -- that blocking is
            the service's backpressure, propagated to the caller.
        start_method: multiprocessing start method; ``None`` uses the
            platform default (``fork`` on Linux, which inherits the
            parent's imports instead of re-importing them).
        ipc: ``"shm"`` adds the shared-memory slab data plane (one
            ring pair per shard); ``"queue"`` keeps every payload on
            the pickling queues.  ``"shm"`` degrades to ``"queue"``
            automatically where shared memory is unavailable.
        ring_bytes: per-direction ring capacity in bytes (shm only).
            A slab that can never fit rides the queue instead; ring
            occupancy is backpressure exactly like a full inbox.
    """

    is_process_backed = True

    def __init__(self, specs: list[ShardSpec], *, queue_depth: int = 8,
                 start_method: str | None = None, ipc: str = "queue",
                 ring_bytes: int = DEFAULT_RING_BYTES) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if ipc not in ("queue", "shm"):
            raise ValueError(f"unknown ipc transport {ipc!r}")
        self.specs = list(specs)
        self.queue_bound = queue_depth
        self.ipc = ipc if (ipc == "queue" or HAVE_SHM) else "queue"
        self.supports_batches = self.ipc == "shm"
        self.ring_bytes = ring_bytes
        self.zero_copy_bytes = 0
        self.fallback_slabs = 0
        self.ring_stalls = 0
        self.dropped_replies = 0
        self.send_wait_seconds = 0.0
        self.recv_wait_seconds = 0.0
        #: Optional observer called once per slab moved over a ring,
        #: with ``direction``/``bytes``/``records`` keywords; the
        #: supervisor wires it to its ``ipc_slab`` trace event.
        self.trace_hook = None
        self._ctx = (multiprocessing.get_context(start_method)
                     if start_method else multiprocessing.get_context())
        self._schemas: dict[int, RecordSchema] = {
            spec.shard_id: spec.schema for spec in self.specs
        }
        self._inboxes: dict[int, object] = {}
        self._outboxes: dict[int, object] = {}
        self._processes: dict[int, object] = {}
        self._in_rings: dict[int, SlabRing] = {}
        self._out_rings: dict[int, SlabRing] = {}
        #: Per-shard local reply buffer in front of the outbox queue:
        #: each wakeup slurps *every* ready reply out of the queue in
        #: one pass (batched harvesting) instead of paying one queue
        #: round-trip per reply.
        self._buffers: dict[int, deque] = {
            spec.shard_id: deque() for spec in self.specs
        }
        for spec in self.specs:
            self._start(spec)

    def _start(self, spec: ShardSpec) -> None:
        shard_id = spec.shard_id
        inbox = self._ctx.Queue(maxsize=self.queue_bound)
        outbox = self._ctx.Queue()
        ring_names = None
        if self.ipc == "shm":
            self._in_rings[shard_id] = SlabRing(capacity=self.ring_bytes)
            self._out_rings[shard_id] = SlabRing(capacity=self.ring_bytes)
            ring_names = (self._in_rings[shard_id].name,
                          self._out_rings[shard_id].name)
        process = self._ctx.Process(
            target=worker_main, args=(spec, inbox, outbox, ring_names),
            name=f"repro-shard-{spec.shard_id}", daemon=True,
        )
        process.start()
        self._inboxes[shard_id] = inbox
        self._outboxes[shard_id] = outbox
        self._processes[shard_id] = process

    def alive(self, shard_id: int) -> bool:
        process = self._processes.get(shard_id)
        return process is not None and process.is_alive()

    def queue_depth(self, shard_id: int) -> int:
        """Approximate pending commands in the shard's inbox."""
        try:
            return self._inboxes[shard_id].qsize()
        except NotImplementedError:  # pragma: no cover - macOS qsize
            return -1

    def ring_depth(self, shard_id: int) -> int:
        """Bytes currently in flight on the shard's rings (0 for queue
        transport); feeds the supervisor's ring-depth gauge."""
        depth = 0
        ring = self._in_rings.get(shard_id)
        if ring is not None:
            depth += ring.used_bytes
        ring = self._out_rings.get(shard_id)
        if ring is not None:
            depth += ring.used_bytes
        return depth

    # -- sending ------------------------------------------------------------

    def send(self, shard_id: int, message: tuple) -> int:
        """Deliver one command, blocking under backpressure.

        Returns the number of full-queue (or full-ring) stalls endured
        -- the supervisor surfaces the total as a backpressure metric.
        Raises :class:`ShardDead` if the worker dies while we wait.
        """
        if (self.ipc == "shm" and message[0] == "batch"
                and isinstance(message[2], RecordBatch)):
            if message[2].schema == self._schemas[shard_id]:
                return self._send_slab(shard_id, message)
            # A batch whose record size is not the shard's declared
            # layout would be misdecoded by the slab codec on the other
            # side: it rides the pickled queue instead, where the batch
            # carries its own schema.
            self.fallback_slabs += 1
        return self._send_queue(shard_id, message)

    def _send_queue(self, shard_id: int, message: tuple) -> int:
        inbox = self._inboxes[shard_id]
        stalls = 0
        wait = _AdaptiveWait()
        while True:
            started = time.monotonic()
            try:
                inbox.put(message, timeout=wait.step())
                return stalls
            except queue_module.Full:
                self.send_wait_seconds += time.monotonic() - started
                stalls += 1
                if not self.alive(shard_id):
                    raise ShardDead(
                        shard_id, "died with a full inbox") from None

    def _send_slab(self, shard_id: int, message: tuple) -> int:
        """Ship one ``("batch", seq, RecordBatch)`` over the ring.

        Frame first, stub second: a stub on the queue therefore always
        implies a published frame.  Ring-full waits count as
        backpressure stalls exactly like a full inbox; a batch the ring
        can never hold falls back to the pickled queue path.
        """
        _, seq, batch = message
        ring = self._in_rings[shard_id]
        n_bytes = len(batch) * batch.schema.record_size
        if not ring.fits(n_bytes):
            self.fallback_slabs += 1
            return self._send_queue(shard_id, message)
        stalls = 0
        wait = _AdaptiveWait()
        while True:
            view = ring.try_reserve(n_bytes)
            if view is not None:
                break
            stalls += 1
            self.ring_stalls += 1
            if not self.alive(shard_id):
                raise ShardDead(
                    shard_id, "died with a full slab ring") from None
            wait.sleep()
        self.send_wait_seconds += wait.waited
        batch.into_shared(view)
        ring.commit(KIND_DATA, seq, n_records=len(batch), n_bytes=n_bytes)
        self.zero_copy_bytes += n_bytes
        if self.trace_hook is not None:
            self.trace_hook(direction="ingest", shard=shard_id,
                            bytes=n_bytes, records=len(batch))
        return stalls + self._send_queue(
            shard_id, ("batch_slab", seq, len(batch)))

    # -- receiving ----------------------------------------------------------

    def _translate(self, shard_id: int, reply: tuple) -> tuple:
        """Resolve a slab stub into the full reply it stands for.

        Must run at queue-dequeue time, in dequeue order: stubs and
        frames advance in lockstep, so the frame for this stub is by
        construction the oldest unconsumed frame on the outbound ring.
        """
        if reply[0] != "sample_slab":
            return reply
        _, _, token, meta = reply
        ring = self._out_rings[shard_id]
        wait = _AdaptiveWait()
        while True:
            try:
                slab = ring.try_pop()
            except TornSlabError as exc:
                raise ShardDead(shard_id, f"torn reply slab: {exc}")
            if slab is not None:
                break
            # The worker publishes the frame before the stub, so this
            # spin only covers cross-process store visibility.
            if not self.alive(shard_id):
                raise ShardDead(shard_id, "reply slab never arrived")
            wait.sleep()
        self.recv_wait_seconds += wait.waited
        schema = self._schemas[shard_id]
        batch = RecordBatch.from_shared(schema, slab.view,
                                        slab.n_records).copy()
        n_bytes = slab.n_bytes
        ring.pop_done(slab)
        self.zero_copy_bytes += n_bytes
        if self.trace_hook is not None:
            self.trace_hook(direction="reply", shard=shard_id,
                            bytes=n_bytes, records=len(batch))
        payload = dict(meta)
        payload["records"] = batch
        return ("sample", shard_id, token, payload)

    def _slurp(self, shard_id: int) -> None:
        """Move every ready outbox reply into the local buffer."""
        outbox = self._outboxes[shard_id]
        buffer = self._buffers[shard_id]
        while True:
            try:
                reply = outbox.get_nowait()
            except queue_module.Empty:
                return
            buffer.append(self._translate(shard_id, reply))

    def recv(self, shard_id: int, timeout: float | None = None) -> tuple:
        """Next reply from the shard.

        Raises :class:`ShardDead` when the worker is gone and its
        outbox is exhausted, or ``TimeoutError`` when the worker is
        alive but silent past ``timeout`` seconds.
        """
        buffer = self._buffers[shard_id]
        if buffer:
            return buffer.popleft()
        outbox = self._outboxes[shard_id]
        deadline = None if timeout is None else time.monotonic() + timeout
        wait = _AdaptiveWait()
        while True:
            started = time.monotonic()
            try:
                reply = outbox.get(timeout=wait.step())
            except queue_module.Empty:
                self.recv_wait_seconds += time.monotonic() - started
                if not self.alive(shard_id):
                    # The pipe may still hold replies written before
                    # death; one final non-blocking sweep.
                    try:
                        reply = outbox.get_nowait()
                    except queue_module.Empty:
                        raise ShardDead(
                            shard_id, "no reply and worker gone"
                        ) from None
                elif deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"shard {shard_id} sent no reply within "
                        f"{timeout} seconds") from None
                else:
                    continue
            reply = self._translate(shard_id, reply)
            self._slurp(shard_id)  # batch-harvest whatever else is ready
            return reply

    def try_recv(self, shard_id: int) -> tuple | None:
        """Non-blocking :meth:`recv`; ``None`` when nothing is ready."""
        buffer = self._buffers[shard_id]
        if not buffer:
            self._slurp(shard_id)
        if buffer:
            return buffer.popleft()
        if not self.alive(shard_id):
            raise ShardDead(shard_id, "no reply and worker gone")
        return None

    def drain(self, shard_id: int) -> list[tuple]:
        """Harvest every buffered reply (e.g. late checkpoint acks
        written just before a crash).

        A slab stub whose frame never arrived, or arrived torn
        (worker died mid-write), cannot be translated: that one reply
        is dropped -- logged and counted in ``dropped_replies`` so the
        loss is observable -- while later queue-only replies (late
        checkpoint acks) still come through.  A dropped batch ack is
        recovered by journal replay; a dropped query answer is gone,
        which the caller sees as a shorter drain list.
        """
        buffer = self._buffers[shard_id]
        outbox = self._outboxes[shard_id]
        while True:
            try:
                reply = outbox.get_nowait()
            except queue_module.Empty:
                break
            try:
                buffer.append(self._translate(shard_id, reply))
            except ShardDead as exc:
                self.dropped_replies += 1
                _log.warning(
                    "shard %d: dropping %r reply during drain "
                    "(slab translation failed: %s)",
                    shard_id, reply[0], exc)
        drained = list(buffer)
        buffer.clear()
        return drained

    # -- lifecycle ----------------------------------------------------------

    def kill(self, shard_id: int) -> None:
        """SIGKILL the worker (chaos hook; no checkpoint, no goodbye)."""
        process = self._processes[shard_id]
        process.kill()
        process.join(timeout=10)

    def _discard_rings(self, shard_id: int) -> None:
        for registry in (self._in_rings, self._out_rings):
            ring = registry.pop(shard_id, None)
            if ring is not None:
                ring.unlink()

    def respawn(self, shard_id: int) -> None:
        """Replace a dead worker with a fresh process, fresh queues,
        and fresh rings.

        Commands stranded in the old inbox or rings are discarded
        deliberately: the supervisor's journal is the durable copy and
        will replay them with their original sequence numbers.
        """
        old = self._processes.get(shard_id)
        if old is not None:
            if old.is_alive():
                old.terminate()
            old.join(timeout=10)
        for registry in (self._inboxes, self._outboxes):
            stale = registry.pop(shard_id, None)
            if stale is not None:
                stale.close()
                stale.cancel_join_thread()
        self._discard_rings(shard_id)
        self._buffers[shard_id].clear()
        spec = next(s for s in self.specs if s.shard_id == shard_id)
        self._start(spec)

    def close(self) -> None:
        for shard_id, process in self._processes.items():
            if process.is_alive():
                process.terminate()
            process.join(timeout=10)
        for registry in (self._inboxes, self._outboxes):
            for q in registry.values():
                q.close()
                q.cancel_join_thread()
            registry.clear()
        for shard_id in list(self._in_rings) + list(self._out_rings):
            self._discard_rings(shard_id)
        self._processes.clear()
