"""The sharded sampling service: :class:`ShardedReservoir`.

One supervisor object partitions incoming batches across ``S`` shard
workers (each a checkpointed geometric file on its own device
directory), serves merged queries that are provably uniform over the
union stream, and recovers crashed shards from their checkpoints with
journal replay.  See docs/SERVICE.md for the architecture, the
uniformity proof sketch, the failure model, and backpressure
semantics.

Durability / exactly-once contract, in one paragraph: every batch is
appended to an in-memory per-shard journal *before* it is enqueued to
the worker; workers checkpoint every ``checkpoint_batches`` applied
batches, stamping the covered sequence number into the checkpoint file
itself (one atomic rename); checkpoint acks prune the journal.  When a
worker dies -- detected by liveness checks, a full inbox, or a silent
outbox -- the supervisor harvests any late acks, respawns the worker,
reads the restored sequence from its ``ready`` handshake, prunes the
journal to it, and replays the rest in order.  The worker rejects
non-monotonic sequences, so a record is applied exactly once no matter
where the crash landed; the restored RNG state continues bit-exactly
(a tested property of :mod:`repro.core.checkpoint`), so the recovered
shard is byte-for-byte the reservoir the crash interrupted.
"""

from __future__ import annotations

import os
import time
from typing import Callable

import numpy as np

from ..core.geometric_file import GeometricFile, GeometricFileConfig
from ..core.multi import MultiFileConfig, MultipleGeometricFiles
from ..estimate import BatchQuery, Estimate, SnapshotEstimator
from ..obs import ReservoirStats, aggregate_stats, stats_from_dict
from ..storage.device import DeviceSpec
from ..storage.disk_model import DiskParameters
from ..storage.recordbatch import RecordBatch
from ..storage.records import Record, RecordSchema
from .merge import (
    merge_shard_batches,
    merge_shard_samples,
    merge_weighted_samples,
)
from .partition import make_partitioner
from .pool import InlinePool, ProcessPool, ShardDead
from .shm import DEFAULT_RING_BYTES
from .spec import ShardSpec, shard_directory

#: Default patience for a worker reply before the shard is presumed hung.
DEFAULT_TIMEOUT = 60.0


def default_device_spec(kind: str,
                        config: GeometricFileConfig | MultiFileConfig,
                        ) -> DeviceSpec:
    """A simulated per-shard device sized for ``config``.

    Each shard gets its own simulated spindle (the paper's measured
    disk), which is what makes ``S`` shards genuinely parallel in
    simulated time.
    """
    params = DiskParameters()
    cls = MultipleGeometricFiles if kind == "multi" else GeometricFile
    blocks = cls.required_blocks(config, params.block_size)
    return DeviceSpec("simulated", blocks, params.block_size, params)


class ShardedReservoir:
    """A multi-process reservoir service with uniform merged queries.

    Args:
        root: directory owning per-shard state
            (``root/shard-00/checkpoint.json``, ...); created if
            missing.  Reopening an existing root recovers every shard
            from its checkpoint.
        config: *per-shard* structure sizing; total service capacity is
            ``shards * config.capacity``.  ``admission`` must be
            ``"uniform"``; ``retain_records=True`` is required for
            ``sample()``/AQP (count-only shards still ingest and
            answer ``stats()``).
        shards: number of shard workers ``S``.
        kind: ``"geometric"`` or ``"multi"`` (per shard).
        device: per-shard device blueprint; defaults to a simulated
            spindle sized for ``config``.
        pool: ``"process"`` (one worker process per shard, the
            production path) or ``"inline"`` (same state machine run
            synchronously in-process -- deterministic, used by tier-1
            tests and available for debugging).
        partition: ``"hash"`` (by record key) or ``"round-robin"``.
        queue_depth: bounded inbox size per shard, in messages;
            ingestion blocks when a shard falls this far behind
            (backpressure).
        checkpoint_batches: worker checkpoint cadence in batches; also
            bounds journal memory and crash replay length.
        seed: base seed; shard ``i`` uses ``seed + i`` for its
            reservoir and an independent stream for queries/merges.
        timeout: seconds to wait for a worker reply before declaring
            it hung.
        start_method: forwarded to :class:`ProcessPool`.
        ipc: process-pool data-plane transport -- ``"shm"`` (default)
            moves :class:`RecordBatch` payloads over zero-copy
            shared-memory slab rings, ``"queue"`` pickles everything
            through the queues.  Bit-exact either way (samples,
            DiskStats, clock); ``"shm"`` degrades to ``"queue"``
            where shared memory is unavailable.  Ignored inline.
        ring_bytes: per-direction slab ring capacity (shm only);
            oversized slabs fall back to the queue path.
    """

    name = "sharded service"

    def __init__(
        self,
        root: str | os.PathLike[str],
        config: GeometricFileConfig | MultiFileConfig,
        *,
        shards: int = 4,
        kind: str = "geometric",
        device: DeviceSpec | None = None,
        pool: str = "process",
        partition: str = "hash",
        queue_depth: int = 8,
        checkpoint_batches: int = 8,
        seed: int = 0,
        timeout: float = DEFAULT_TIMEOUT,
        start_method: str | None = None,
        ipc: str = "shm",
        ring_bytes: int = DEFAULT_RING_BYTES,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        if pool not in ("process", "inline"):
            raise ValueError(f"unknown pool kind {pool!r}")
        self.root = os.fspath(root)
        self.shards = shards
        self.kind = kind
        self.config = config
        self.timeout = timeout
        device = device or default_device_spec(kind, config)
        self.specs = [
            ShardSpec(
                shard_id=i,
                directory=shard_directory(self.root, i),
                kind=kind,
                config=config,
                device=device,
                seed=(seed if seed is None else seed + i),
                checkpoint_batches=checkpoint_batches,
            )
            for i in range(shards)
        ]
        self._partitioner = make_partitioner(partition, shards)
        # Non-uniform shard laws reply with key-ranked samples; the
        # merge is then a global top-k by key, not the hypergeometric
        # allocation (ShardSpec has already vetted the law).
        self._keyed_merge = getattr(config, "law", "uniform") != "uniform"
        self._merge_rng = np.random.default_rng(
            np.random.SeedSequence([(seed or 0) & 0xFFFFFFFF, 0x4D]))
        # Per-shard: journal of unacknowledged journaled messages,
        # next sequence number, and last checkpoint-acked sequence.
        self._journal: dict[int, list[tuple]] = {i: [] for i in range(shards)}
        self._next_seq = {i: 1 for i in range(shards)}
        self._acked = {i: 0 for i in range(shards)}
        self._offered = 0
        self._seed = seed
        self._hot = None
        self._token = 0
        self.recoveries = 0
        self.backpressure_stalls = 0
        self.last_recovery_seconds = 0.0
        self._closed = False
        # Observability hooks (service-level).
        self._registry = None
        self._trace = None
        self._obs_name = self.name
        self._event_counters: dict = {}
        self._ipc_gauges = None
        if pool == "inline":
            self._pool: InlinePool | ProcessPool = InlinePool(self.specs)
        else:
            self._pool = ProcessPool(self.specs, queue_depth=queue_depth,
                                     start_method=start_method, ipc=ipc,
                                     ring_bytes=ring_bytes)
        for shard_id in range(shards):
            self._await_ready(shard_id)

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "ShardedReservoir":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker gracefully (final checkpoint each), then
        tear the pool down.  Dead shards are recovered first so their
        journaled batches reach disk."""
        if self._closed:
            return
        for shard_id in range(self.shards):
            try:
                if not self._pool.alive(shard_id):
                    self._recover(shard_id)
                self._pool.send(shard_id, ("stop",))
                self._collect(shard_id, "stopped")
            except (ShardDead, TimeoutError):
                # Died during shutdown: its checkpoint plus journal
                # replay on the next open still bound the loss to the
                # final unjournaled nothing -- the journal only drops
                # on ack, and we are abandoning the respawn on purpose.
                pass
        self._pool.close()
        self._closed = True

    # -- ingestion ----------------------------------------------------------

    def offer(self, record: Record | None) -> None:
        """Present one stream record (prefer :meth:`offer_batch`)."""
        self.offer_batch([record])

    def offer_batch(self, records) -> int:
        """Partition one batch across the shards and enqueue it.

        The canonical batch verb of the unified
        :class:`~repro.core.protocols.Reservoir` protocol.  Accepts a
        :class:`~repro.storage.recordbatch.RecordBatch` or any
        sequence of records; returns the number of records enqueued.
        Blocks while any target shard's inbox is full (backpressure):
        the stream producer slows to the speed of the slowest shard
        rather than buffering unboundedly.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        if isinstance(records, RecordBatch):
            if records.schema != RecordSchema(self.config.record_size):
                # Rejected up front, before the journal sees it: a
                # journaled batch the shards cannot apply would be
                # replayed forever by crash recovery.  (Weighted input
                # is unsupported service-wide -- weighted shard laws
                # derive weights from record fields via law_params.)
                raise ValueError(
                    f"batch schema {records.schema.record_size} B"
                    f"{' weighted' if records.schema.weighted else ''} "
                    f"does not match the service's record layout "
                    f"({self.config.record_size} B, unweighted)")
            if self._hot is not None:
                self._hot.observe_batch(records)
            if self._pool.supports_batches:
                # Columnar scatter: vectorised routing, sub-batches stay
                # slabs end to end (zero-copy on shm pools, no pickling
                # inline).  Routing and ingestion are bit-exact with the
                # decoded list path below.
                parts = self._partitioner.split_batch(records)
                for shard_id, part in enumerate(parts):
                    if len(part):
                        self._post(shard_id, ("batch", None, part))
                self._offered += len(records)
                return len(records)
            records = list(records)
        else:
            if not isinstance(records, (list, tuple)):
                records = list(records)
            if self.config.retain_records:
                # Up front for the schema guard's reason: the shards
                # would reject the batch on every replay.
                self._schema.check_payloads(records)
            if self._hot is not None:
                # Fed *before* partitioning: the supervisor-side cache
                # over the union stream is exactly the hypergeometric
                # merge of per-shard caches, with the merge pre-paid.
                self._hot.observe_many(records)
        parts = self._partitioner.split(records)
        for shard_id, part in enumerate(parts):
            if part:
                self._post(shard_id, ("batch", None, part))
        self._offered += len(records)
        return len(records)

    def ingest(self, n: int) -> None:
        """Count-only ingestion, split evenly across shards."""
        if self._closed:
            raise RuntimeError("service is closed")
        if n < 0:
            raise ValueError("cannot ingest a negative count")
        if self._keyed_merge:
            raise TypeError(
                "count-only ingest() is uniform-law only; a weighted "
                "shard law needs every record's weight")
        if self._hot is not None:
            self._hot.observe_count(n)
        for shard_id, count in enumerate(self._partitioner.split_count(n)):
            if count:
                self._post(shard_id, ("ingest", None, count))
        self._offered += n

    # -- queries ------------------------------------------------------------

    def _resolve_k(self, k: int | None) -> int:
        """Protocol default: ``k=None`` means one shard's capacity --
        the largest merged draw that is always answerable (the
        hypergeometric allocation can land the whole draw on one
        shard, so no larger ``k`` is safe under every partition)."""
        return self.config.capacity if k is None else k

    def _merge_samples(self, payloads: list[dict], k: int) -> list[Record]:
        """Law-appropriate merge of shard ``sample`` replies: the
        hypergeometric allocation for uniform shards, the global
        top-``k``-by-key rank for keyed (A-ExpJ) shards."""
        if self._keyed_merge:
            return merge_weighted_samples(self._merge_rng, payloads, k)
        return merge_shard_samples(self._merge_rng, payloads, k)

    def sample(self, k: int | None = None) -> list[Record]:
        """A uniform random ``k``-subset of the whole union stream.

        Snapshot semantics: the sample marker is enqueued behind every
        batch offered so far, so the draw covers exactly the records
        presented before this call -- a consistent cut at the
        service's current flush frontier, regardless of how far
        individual shards have physically flushed.

        ``k`` must not exceed any single shard's current reservoir
        size (the hypergeometric allocation can land up to ``k`` on
        one shard); with balanced partitions that means roughly
        ``k <= capacity_per_shard`` -- which is also the ``k=None``
        default.
        """
        k = self._resolve_k(k)
        payloads = self._broadcast_query("sample", k)
        merged = self._merge_samples(payloads, k)
        self._emit("merged_query", k=k,
                   seen=sum(p["seen"] for p in payloads))
        return merged

    def snapshot(self, k: int | None = None) -> tuple[list[Record], int]:
        """Like :meth:`sample`, also returning the union ``seen`` total
        (the population size AQP estimators scale by)."""
        k = self._resolve_k(k)
        payloads = self._broadcast_query("sample", k)
        merged = self._merge_samples(payloads, k)
        seen = sum(p["seen"] for p in payloads)
        self._emit("merged_query", k=k, seen=seen)
        return merged, seen

    def sample_batch(self, k: int | None = None) -> RecordBatch:
        """:meth:`sample` as one :class:`RecordBatch` (columnar merge).

        Same snapshot semantics and the same merge-RNG consumption as
        :meth:`sample`; shard replies are encoded once into the shared
        record dtype and merged without per-record Python work.
        """
        k = self._resolve_k(k)
        payloads = self._broadcast_query("sample", k)
        merged = self._merge_batches(payloads, k)
        self._emit("merged_query", k=k,
                   seen=sum(p["seen"] for p in payloads))
        return merged

    def _merge_batches(self, payloads: list[dict], k: int) -> RecordBatch:
        if self._keyed_merge:
            merged = merge_weighted_samples(self._merge_rng, payloads, k)
            return RecordBatch.from_records(self._schema, merged)
        return merge_shard_batches(self._merge_rng, payloads, k,
                                   self._schema)

    def snapshot_batch(self, k: int | None = None) -> tuple[RecordBatch, int]:
        """Like :meth:`sample_batch`, also returning the union ``seen``."""
        k = self._resolve_k(k)
        payloads = self._broadcast_query("sample", k)
        merged = self._merge_batches(payloads, k)
        seen = sum(p["seen"] for p in payloads)
        self._emit("merged_query", k=k, seen=seen)
        return merged, seen

    def query_batch(self, k: int | None = None) -> BatchQuery:
        """A :class:`~repro.estimate.BatchQuery` over a fresh merged
        ``k``-sample, scaled by the union ``seen`` count -- columnar
        AQP (filter / avg / sum / count) in a handful of array
        reductions."""
        batch, seen = self.snapshot_batch(k)
        return BatchQuery(batch, seen)

    @property
    def _schema(self) -> RecordSchema:
        return RecordSchema(self.config.record_size)

    def stats(self) -> ReservoirStats:
        """Aggregated service snapshot; see
        :func:`repro.obs.aggregate_stats` for counter semantics
        (sums over shards, ``clock`` = slowest shard)."""
        payloads = self._broadcast_query("stats")
        shard_stats = [stats_from_dict(p["stats"]) for p in payloads]
        self._update_ipc_gauges()
        return aggregate_stats(
            shard_stats, name=self._obs_name,
            extra={
                "recoveries": self.recoveries,
                "backpressure_stalls": self.backpressure_stalls,
                "journal_depth": sum(len(j) for j in
                                     self._journal.values()),
                "ipc": self.ipc_stats(),
            },
        )

    def ipc_stats(self) -> dict:
        """Transport counters: zero-copy volume, fallbacks, measured
        waits.  All zero for inline pools (no transport)."""
        pool = self._pool
        return {
            "transport": pool.ipc,
            "zero_copy_bytes": pool.zero_copy_bytes,
            "fallback_slabs": pool.fallback_slabs,
            "ring_stalls": pool.ring_stalls,
            "dropped_replies": pool.dropped_replies,
            "send_wait_seconds": round(pool.send_wait_seconds, 6),
            "recv_wait_seconds": round(pool.recv_wait_seconds, 6),
            "ring_depth_bytes": sum(
                pool.ring_depth(shard_id)
                for shard_id in range(self.shards)),
        }

    def shard_stats(self) -> list[ReservoirStats]:
        """Per-shard snapshots, in shard order."""
        return [stats_from_dict(p["stats"])
                for p in self._broadcast_query("stats")]

    # -- AQP over the merged sample -----------------------------------------
    #
    # Thin shims over the shared repro.estimate.SnapshotEstimator (the
    # three near-identical per-front-end loops were deduplicated there);
    # signatures are preserved exactly.

    def estimate_sum(self, k: int, *,
                     value: Callable[[Record], float] | None = None,
                     predicate: Callable[[Record], bool] | None = None,
                     ) -> Estimate:
        """Estimate SUM(value) over the *entire stream* with CLT error.

        Draws a fresh uniform ``k``-sample and scales by the union
        ``seen`` count; records failing ``predicate`` contribute 0.
        """
        return SnapshotEstimator(*self.snapshot(k)).sum(
            value=value, predicate=predicate)

    def estimate_count(self, k: int,
                       predicate: Callable[[Record], bool]) -> Estimate:
        """Estimate COUNT of stream records satisfying ``predicate``."""
        return SnapshotEstimator(*self.snapshot(k)).count(predicate)

    def estimate_avg(self, k: int, *,
                     value: Callable[[Record], float] | None = None,
                     predicate: Callable[[Record], bool] | None = None,
                     ) -> Estimate:
        """Estimate AVG(value) over stream records matching ``predicate``."""
        records, _ = self.snapshot(k)
        return SnapshotEstimator(records).avg(value=value,
                                              predicate=predicate)

    # -- hot AQP subsample ---------------------------------------------------

    def enable_aqp_cache(self, budget: int = 4096, *,
                         seed: int | None = None):
        """Attach (or return) the supervisor-side AQP hot subsample.

        Fed in :meth:`offer_batch` *before* partitioning, so the cache
        is a uniform sub-reservoir of the union stream -- equivalent to
        maintaining per-shard hot caches and merging them through the
        hypergeometric allocation, with the merge pre-paid at ingest.
        Count-only :meth:`ingest` marks it incoherent; the planner's
        next escalation (a merged :meth:`snapshot_batch` draw)
        re-seeds it.
        """
        if self._keyed_merge:
            raise TypeError(
                "the hot AQP subsample is a uniform sub-reservoir of "
                "the union stream; a service running law="
                f"{self.config.law!r} cannot keep it coherent")
        if self._hot is None:
            from ..estimate.planner import HotSubsample
            base = self._seed if seed is None else seed
            self._hot = HotSubsample(self._schema, budget,
                                     seed=0 if base is None else base,
                                     stream_seen=self._offered)
        return self._hot

    @property
    def aqp_cache(self):
        """The attached hot subsample, or ``None``."""
        return self._hot

    # -- durability and chaos ------------------------------------------------

    def checkpoint(self) -> None:
        """Force every shard to checkpoint now; prunes the journals.

        Waits until each shard has acknowledged a checkpoint covering
        every batch posted before this call, so on return the journals
        are empty and the on-disk state is current.
        """
        for shard_id in range(self.shards):
            target = self._next_seq[shard_id] - 1
            while True:
                try:
                    if not self._pool.alive(shard_id):
                        raise ShardDead(shard_id)
                    self._pool.send(shard_id, ("checkpoint",))
                    while self._acked[shard_id] < target:
                        self._collect(shard_id, "checkpointed")
                    break
                except ShardDead:
                    self._recover(shard_id)

    def kill_shard(self, shard_id: int, *, hard: bool = False) -> None:
        """Chaos hook: crash one worker without checkpointing.

        ``hard=True`` kills from outside (SIGKILL for processes);
        otherwise the worker is told to die mid-protocol.  Either way
        no goodbye checkpoint is written -- recovery happens lazily on
        the next operation that touches the shard, or immediately via
        :meth:`recover`.
        """
        self._check_shard(shard_id)
        if hard:
            self._pool.kill(shard_id)
            return
        try:
            self._pool.send(shard_id, ("crash",))
        except ShardDead:
            pass  # inline pools die synchronously on the command

    def recover(self) -> int:
        """Respawn every dead shard now; returns how many were revived."""
        revived = 0
        for shard_id in range(self.shards):
            if not self._pool.alive(shard_id):
                self._recover(shard_id)
                revived += 1
        return revived

    @property
    def capacity(self) -> int:
        """Total service capacity (sum of shard reservoir sizes)."""
        return self.config.capacity * self.shards

    @property
    def journal_depth(self) -> int:
        """Unacknowledged journaled messages across all shards."""
        return sum(len(j) for j in self._journal.values())

    # -- observability ------------------------------------------------------

    def instrument(self, registry, trace=None, *, name: str | None = None
                   ) -> None:
        """Attach service-level observers (recoveries, merged queries,
        backpressure); workers keep their own in-process accounting,
        surfaced through :meth:`stats`."""
        self._obs_name = name if name is not None else self.name
        self._registry = registry
        self._trace = trace
        self._event_counters = {}
        if registry is not None:
            self._ipc_gauges = (
                registry.gauge("ipc.ring_depth", structure=self._obs_name),
                registry.gauge("ipc.zero_copy_bytes",
                               structure=self._obs_name),
            )
        # Per-slab trace events are emitted by the pool itself (it is
        # the only layer that sees individual slabs move).
        if trace is not None and getattr(self._pool, "ipc", None) == "shm":
            self._pool.trace_hook = (
                lambda **fields: self._emit("ipc_slab", **fields))

    def _update_ipc_gauges(self) -> None:
        if self._ipc_gauges is None:
            return
        depth_gauge, bytes_gauge = self._ipc_gauges
        depth_gauge.set(sum(self._pool.ring_depth(shard_id)
                            for shard_id in range(self.shards)))
        bytes_gauge.set(self._pool.zero_copy_bytes)

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

    # -- internals ----------------------------------------------------------

    def _check_shard(self, shard_id: int) -> None:
        if not 0 <= shard_id < self.shards:
            raise ValueError(f"no shard {shard_id} in a "
                             f"{self.shards}-shard service")

    def _next_token(self) -> int:
        self._token += 1
        return self._token

    def _post(self, shard_id: int, message: tuple) -> None:
        """Journal one batch/ingest message, then deliver it.

        The journal append happens first: once a message carries a
        sequence number it exists durably enough to survive any worker
        crash (the journal is only dropped on checkpoint ack).
        """
        seq = self._next_seq[shard_id]
        self._next_seq[shard_id] = seq + 1
        message = (message[0], seq, message[2])
        self._journal[shard_id].append(message)
        while True:
            try:
                if not self._pool.alive(shard_id):
                    raise ShardDead(shard_id)
                stalls = self._pool.send(shard_id, message)
                if stalls:
                    self.backpressure_stalls += stalls
                    self._emit("backpressure", shard=shard_id,
                               stalls=stalls)
                self._absorb_acks(shard_id)
                return
            except ShardDead:
                # _recover replays the journal -- including this
                # message -- so recovery IS the delivery.
                self._recover(shard_id)
                return

    def _absorb_acks(self, shard_id: int) -> None:
        """Non-blocking harvest of checkpoint acks to prune the journal."""
        for reply in self._pool.drain(shard_id):
            self._handle_ack(shard_id, reply)

    def _handle_ack(self, shard_id: int, reply: tuple) -> bool:
        """Process one out-of-band reply; True if it was consumed."""
        if reply[0] == "checkpointed":
            self._prune(shard_id, reply[2])
            return True
        if reply[0] == "error":
            raise RuntimeError(
                f"shard {shard_id} reported: {reply[2]}")
        return False

    def _prune(self, shard_id: int, acked_seq: int) -> None:
        if acked_seq <= self._acked[shard_id]:
            return
        self._acked[shard_id] = acked_seq
        journal = self._journal[shard_id]
        keep = 0
        while keep < len(journal) and journal[keep][1] <= acked_seq:
            keep += 1
        del journal[:keep]

    def _await_ready(self, shard_id: int) -> int:
        reply = self._collect(shard_id, "ready")
        restored_seq = reply[2]
        # Anything the restored checkpoint already covers must never be
        # replayed; anything after it must be.  On a fresh service both
        # sides are empty and this is a no-op.  A service *reopened* on
        # an existing root continues numbering after the restored
        # sequence (the worker rejects non-monotonic sequences).
        if restored_seq >= self._next_seq[shard_id]:
            self._next_seq[shard_id] = restored_seq + 1
        self._prune(shard_id, restored_seq)
        return restored_seq

    def _collect(self, shard_id: int, want: str,
                 token: int | None = None) -> tuple:
        """Receive until a reply of kind ``want`` (matching ``token`` if
        given) arrives; out-of-band acks are absorbed along the way."""
        while True:
            reply = self._pool.recv(shard_id, timeout=self.timeout)
            if reply[0] == want and (token is None or reply[2] == token):
                if reply[0] == "checkpointed":
                    self._prune(shard_id, reply[2])
                return reply
            if self._handle_ack(shard_id, reply):
                continue
            if reply[0] in ("sample", "stats"):
                continue  # stale query reply from an abandoned attempt
            raise RuntimeError(
                f"shard {shard_id}: unexpected reply {reply[0]!r} "
                f"while waiting for {want!r}")

    def _recover(self, shard_id: int) -> None:
        """Respawn a dead shard from its checkpoint and replay the gap."""
        started = time.perf_counter()
        self.recoveries += 1
        # Late acks may sit in the dead worker's outbox (a checkpoint
        # it finished just before dying): harvest them first so the
        # replay below starts from the newest covered sequence.
        for reply in self._pool.drain(shard_id):
            if reply[0] in ("checkpointed", "ready"):
                self._prune(shard_id, reply[2])
        while True:
            self._pool.respawn(shard_id)
            try:
                restored_seq = self._await_ready(shard_id)
                for message in list(self._journal[shard_id]):
                    if message[1] > restored_seq:
                        self._pool.send(shard_id, message)
                self._absorb_acks(shard_id)
                break
            except ShardDead:  # pragma: no cover - crash during replay
                continue
        self.last_recovery_seconds = time.perf_counter() - started
        self._emit("shard_recovery", shard=shard_id,
                   replayed=len(self._journal[shard_id]),
                   seconds=self.last_recovery_seconds)

    def _broadcast_query(self, kind: str, *args) -> list[dict]:
        """Parallel scatter-gather: ask every shard, then collect the
        answers in shard order.

        Markers are enqueued behind all previously offered batches
        (FIFO per shard), which is what makes the merged answer a
        consistent snapshot.  Every shard is asked before any answer is
        awaited, so all shards draw *concurrently* and the fan-out's
        wall time is the slowest shard, not the sum.  Each answer is a
        blocking receive, which returns as soon as the reply lands: a
        poll with backoff would add a delay that depends on when the
        reply beat the poll.  Payloads come back in shard order,
        keeping the merge RNG consumption fixed.  A shard dying
        mid-query is recovered and re-asked with a fresh token.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        tokens = [self._send_query(shard_id, kind, args)
                  for shard_id in range(self.shards)]
        payloads = []
        for shard_id in range(self.shards):
            while True:
                try:
                    reply = self._collect(shard_id, kind, tokens[shard_id])
                    break
                except ShardDead:
                    self._recover(shard_id)
                    tokens[shard_id] = self._send_query(shard_id, kind,
                                                        args)
            payloads.append(reply[3])
        return payloads

    def _send_query(self, shard_id: int, kind: str, args: tuple) -> int:
        while True:
            token = self._next_token()
            try:
                if not self._pool.alive(shard_id):
                    raise ShardDead(shard_id)
                self._pool.send(shard_id, (kind, token, *args))
                return token
            except ShardDead:
                self._recover(shard_id)
