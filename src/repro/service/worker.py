"""The per-shard worker: one :class:`~repro.core.managed.ManagedSample`
driven by a sequenced message protocol.

The same :class:`ShardWorker` runs in two harnesses: a child process
(:func:`worker_main`, the production path) and in-process inside
:class:`~repro.service.pool.InlinePool` (the deterministic tier-1 test
path).  All shard logic lives here so the two variants cannot drift.

Protocol (plain tuples -- picklable, versionless):

Commands, in order, on the shard's inbox:

* ``("batch", seq, records)`` -- apply one partitioned sub-batch via
  the ``offer_many`` hot path.
* ``("ingest", seq, count)`` -- count-only sub-batch (benchmarks).
* ``("sample", token, k)`` -- reply with ``min(k, size)`` reservoir
  records as one ``RecordBatch``, uniformly chosen *and uniformly
  ordered* (so any prefix is itself a uniform subset -- the merge layer
  relies on this).  A process worker sends the rows on its reply ring,
  or as a record list over the queue.
* ``("stats", token)`` -- reply with the structure's ``stats()`` as a
  dict plus the applied sequence number.
* ``("checkpoint",)`` -- checkpoint now, regardless of cadence.
* ``("crash",)`` -- test/chaos hook: die instantly, no checkpoint.
* ``("stop",)`` -- final checkpoint, acknowledge, exit.

Replies on the outbox: ``("ready", shard_id, seq)`` once at start
(``seq`` is the sequence the restored checkpoint covers, 0 for fresh),
``("checkpointed", shard_id, seq)`` after every checkpoint,
``("sample", shard_id, token, payload)``, ``("stats", shard_id, token,
payload)``, ``("stopped", shard_id, seq)``, and ``("error", shard_id,
text)`` before an abnormal exit.

Two kinds of RNG stream per worker, deliberately separated: the
reservoir's own RNGs are consumed by ingestion *only*, so replaying
journaled batches after a crash continues the checkpointed RNG state
bit-exactly; queries draw from a dedicated query RNG that recovery
never needs to reproduce.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..storage.recordbatch import RecordBatch
from .spec import ShardSpec

#: Sequence number meaning "nothing applied yet".
SEQ_NONE = 0

#: Key under which the covered batch sequence is stored in checkpoint
#: metadata (rides the checkpoint's atomic rename; see
#: :meth:`repro.core.managed.ManagedSample.checkpoint`).
SEQ_META_KEY = "seq"


class SimulatedCrash(Exception):
    """Raised by the ``crash`` command; harnesses turn it into death."""


class ShardWorker:
    """One shard's state machine; see the module docstring for protocol."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.managed = spec.build()
        self.seq = SEQ_NONE
        if self.managed.restored:
            meta = self.managed.checkpoint_meta or {}
            self.seq = int(meta.get(SEQ_META_KEY, SEQ_NONE))
        self._batches_since_checkpoint = 0
        # Query-only RNG; never touched by ingestion or recovery.
        seed_seq = np.random.SeedSequence(
            [spec.seed & 0xFFFFFFFF, spec.shard_id, 0x51])
        self._query_rng = np.random.default_rng(seed_seq)

    # -- message handling ---------------------------------------------------

    def handle(self, message: tuple) -> list[tuple]:
        """Apply one command; returns the replies to send."""
        kind = message[0]
        if kind == "batch":
            _, seq, records = message
            if isinstance(records, RecordBatch):
                # Columnar sub-batch (slab or pickled-batch transport);
                # bit-exact with offer_many over the same records, a
                # tested twin property of the reservoir.
                self.managed.offer_batch(records)
            else:
                self.managed.offer_many(records)
            return self._applied(seq)
        if kind == "ingest":
            _, seq, count = message
            self.managed.ingest(count)
            return self._applied(seq)
        if kind == "sample":
            _, token, k = message
            return [("sample", self.spec.shard_id, token,
                     self._draw_sample(k))]
        if kind == "stats":
            _, token = message
            payload = {"stats": self.managed.stats().as_dict(),
                       "seq": self.seq,
                       "disk_size": self.managed.structure.disk_size}
            return [("stats", self.spec.shard_id, token, payload)]
        if kind == "checkpoint":
            return self._checkpoint()
        if kind == "crash":
            raise SimulatedCrash(f"shard {self.spec.shard_id} told to crash")
        if kind == "stop":
            replies = self._checkpoint()
            # Joins the pipelined flush engine's writer thread (no-op
            # for synchronous shards) so the process exits clean.
            self.managed.structure.close()
            replies.append(("stopped", self.spec.shard_id, self.seq))
            return replies
        raise ValueError(f"unknown shard command {kind!r}")

    # -- internals ----------------------------------------------------------

    def _applied(self, seq: int) -> list[tuple]:
        if seq <= self.seq:
            raise AssertionError(
                f"shard {self.spec.shard_id} saw sequence {seq} after "
                f"{self.seq}; the supervisor must never replay an "
                f"already-applied batch"
            )
        self.seq = seq
        self._batches_since_checkpoint += 1
        if self._batches_since_checkpoint >= self.spec.checkpoint_batches:
            return self._checkpoint()
        return []

    def _checkpoint(self) -> list[tuple]:
        self.managed.checkpoint(meta={SEQ_META_KEY: self.seq})
        self._batches_since_checkpoint = 0
        return [("checkpointed", self.spec.shard_id, self.seq)]

    def _draw_sample(self, k: int) -> dict:
        """``min(k, size)`` reservoir rows, uniform and uniformly ordered.

        One ``k``-read of the structure, every draw from the worker's
        query RNG, so the reservoir's own (checkpointed, replay-critical)
        RNG streams stay untouched by reads.
        """
        if k < 0:
            raise ValueError("sample size must be non-negative")
        structure = self.managed.structure
        law = getattr(structure, "_law", None)
        if law is not None and law.mergeable_by_key:
            return self._draw_keyed_sample(k, law)
        stats = self.managed.stats()
        size = structure.sample_size
        return {
            "seen": stats.seen,
            "size": size,
            "seq": self.seq,
            "records": structure.sample_batch(min(k, size),
                                              rng=self._query_rng),
        }

    def _draw_keyed_sample(self, k: int, law) -> dict:
        """Key-ranked reply for mergeable laws (A-ExpJ).

        The records come back best key first with the keys alongside,
        so any prefix is the shard's top-``j`` and the supervisor's
        global top-``k`` over the concatenation is the union's exact
        weighted sample.  No query RNG is consumed: the keyed sample
        is a deterministic function of reservoir state.
        """
        structure = self.managed.structure
        rows, keys = law.sample_keyed(structure, k)
        stats = self.managed.stats()
        return {
            "seen": stats.seen,
            "size": structure.sample_size,
            "seq": self.seq,
            "records": rows.to_records(),
            "keys": [float(key) for key in keys],
        }


def _pop_batch_slab(ring, schema, seq: int, n_records: int) -> RecordBatch:
    """Receive the ring frame a ``batch_slab`` stub announced.

    The supervisor publishes the frame before the stub, so the frame
    is already the oldest on the ring; the brief spin below only
    covers cross-process store visibility.  The returned batch is a
    private copy -- the ring slot is released before ingestion runs.
    """
    from .shm import TornSlabError

    deadline = time.monotonic() + 10.0
    while True:
        slab = ring.try_pop()
        if slab is not None:
            break
        if time.monotonic() > deadline:  # pragma: no cover - defensive
            raise TornSlabError(
                f"batch slab for seq {seq} never appeared")
        time.sleep(0.0002)
    if slab.seq != seq or slab.n_records != n_records:
        ring.pop_done(slab)
        raise TornSlabError(
            f"slab stream out of step: stub ({seq}, {n_records}) vs "
            f"frame ({slab.seq}, {slab.n_records})")
    n_bytes = slab.n_bytes
    if n_bytes != n_records * schema.record_size:
        # A frame whose size disagrees with the shard's declared record
        # size must never be decoded (every field would shift), only
        # rejected.
        ring.pop_done(slab)
        raise TornSlabError(
            f"batch slab at seq {seq} does not match the shard schema "
            f"({n_bytes} B for {n_records} x {schema.record_size} B "
            "records)")
    batch = RecordBatch.from_shared(schema, slab.view, n_records).copy()
    ring.pop_done(slab)
    return batch


def _slab_reply(ring, schema, reply: tuple) -> tuple:
    """Route a sample reply's rows over the outbound ring if possible.

    A ``RecordBatch`` payload is copied into the ring and replaced by a
    ``sample_slab`` stub.  Without a ring (the queue transport), for an
    empty batch, or when the ring cannot take the slab in reasonable
    time, the rows travel the pickled queue as a record list; keyed
    (A-ExpJ) payloads are record lists already and pass unchanged.
    """
    if reply[0] != "sample":
        return reply
    payload = reply[3]
    batch = payload.get("records")
    if not isinstance(batch, RecordBatch):
        return reply
    n_bytes = len(batch) * schema.record_size
    view = None
    if ring is not None and batch and ring.fits(n_bytes):
        deadline = time.monotonic() + 0.25
        while True:
            view = ring.try_reserve(n_bytes)
            # A slow supervisor must never deadlock against a blocked
            # worker: past the deadline the rows take the queue.
            if view is not None or time.monotonic() > deadline:
                break
            time.sleep(0.0002)
    if view is None:
        return (*reply[:3], {**payload, "records": batch.to_records()})
    from .shm import KIND_DATA

    batch.into_shared(view)
    token = reply[2]
    ring.commit(KIND_DATA, token, n_records=len(batch), n_bytes=n_bytes)
    meta = {key: value for key, value in payload.items()
            if key != "records"}
    return ("sample_slab", reply[1], token, meta)


def worker_main(spec: ShardSpec, inbox, outbox, ring_names=None) -> None:
    """Process entry point: build the shard, then serve the inbox.

    ``ring_names`` (inbound, outbound) attaches the shared-memory data
    plane; ``None`` keeps every payload on the queues.  ``crash``
    exits via ``os._exit`` -- no cleanup, no final checkpoint -- which
    is the closest a cooperative process gets to a SIGKILL; the
    supervisor's recovery path cannot tell the difference.
    """
    in_ring = out_ring = None
    try:
        if ring_names is not None:
            from .shm import SlabRing

            # The supervisor owns the rings' lifetime (it unlinks them
            # on respawn/close); the worker must not let its own
            # resource tracker reap them, so it attaches untracked --
            # ``track=False`` on 3.13+, a conservative no-op/unregister
            # fallback on older interpreters (see shm._attach_untracked).
            in_ring = SlabRing(name=ring_names[0], untrack=True)
            out_ring = SlabRing(name=ring_names[1], untrack=True)
        schema = spec.schema
        worker = ShardWorker(spec)
        outbox.put(("ready", spec.shard_id, worker.seq))
        while True:
            message = inbox.get()
            if message[0] == "batch_slab":
                message = ("batch", message[1],
                           _pop_batch_slab(in_ring, schema,
                                           message[1], message[2]))
            try:
                replies = worker.handle(message)
            except SimulatedCrash:
                os._exit(2)
            for reply in replies:
                outbox.put(_slab_reply(out_ring, schema, reply))
            if message[0] == "stop":
                break
        for ring in (in_ring, out_ring):
            if ring is not None:
                ring.close()
    except Exception as exc:  # pragma: no cover - defensive reporting
        try:
            outbox.put(("error", spec.shard_id, repr(exc)))
        finally:
            os._exit(1)
