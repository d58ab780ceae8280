"""Real-multiprocessing tests for the sharded service.

The inline-pool suite (``test_service.py``, tier-1) already exercises
every line of the shard state machine; what only a real
:class:`~repro.service.pool.ProcessPool` can exercise is the transport
-- pickling specs and batches across process boundaries, bounded-queue
backpressure, SIGKILL death detection, and respawned worker processes
restoring from checkpoints written by their predecessors.  That is
what this file covers, with deliberately small workloads.

Excluded from tier-1 by the ``service`` marker; run with::

    PYTHONPATH=src python -m pytest tests/test_service_mp.py -m service
"""

from __future__ import annotations

import time

import pytest

from conftest import keyed_records
from repro.service import (
    HAVE_SHM,
    ProcessPool,
    ShardSpec,
    ShardedReservoir,
    default_device_spec,
)
from repro.storage.recordbatch import RecordBatch
from repro.storage.records import RecordSchema
from test_service import service_config

pytestmark = pytest.mark.service

needs_shm = pytest.mark.skipif(
    not HAVE_SHM, reason="multiprocessing.shared_memory unavailable")


def make_process_service(root, *, shards=3, seed=0, **kwargs):
    kwargs.setdefault("config", service_config())
    config = kwargs.pop("config")
    kwargs.setdefault("timeout", 120.0)
    return ShardedReservoir(root, config, shards=shards, pool="process",
                            seed=seed, **kwargs)


def keyed_batches(n, batch_size, record_size=32):
    """The keyed_records stream as columnar batches."""
    schema = RecordSchema(record_size)
    records = keyed_records(n)
    return [RecordBatch.from_records(schema, records[i:i + batch_size])
            for i in range(0, n, batch_size)]


def test_round_trip_across_processes(tmp_path):
    with make_process_service(tmp_path / "svc") as service:
        records = keyed_records(900)
        for start in range(0, 900, 150):
            service.offer_batch(records[start:start + 150])
        stats = service.stats()
        assert stats.seen == 900
        assert sum(stats.extra["seen_per_shard"]) == 900
        sample = service.sample(45)
        keys = [r.key for r in sample]
        assert len(keys) == 45 and len(set(keys)) == 45
        assert all(0 <= key < 900 for key in keys)
        assert service.estimate_sum(45).interval(0.999).contains(
            float(sum(range(900))))


def test_hard_kill_recovers_without_loss(tmp_path):
    with make_process_service(tmp_path / "svc",
                              checkpoint_batches=2) as service:
        records = keyed_records(1200)
        batches = [records[i:i + 100] for i in range(0, 1200, 100)]
        for i, batch in enumerate(batches):
            if i == 6:
                service.kill_shard(1, hard=True)  # SIGKILL mid-stream
            service.offer_batch(batch)
        assert service.stats().seen == 1200
        assert service.recoveries >= 1
        assert service.last_recovery_seconds < 60.0
        assert len(service.sample(30)) == 30


def test_shard_dying_with_a_query_queued_is_reasked(tmp_path):
    """The crash command is still queued when the query is sent behind
    it, so the gather's blocking receive is what sees the shard die."""
    with make_process_service(tmp_path / "svc") as service:
        service.offer_batch(keyed_records(600))
        service.kill_shard(1)
        keys = [record.key for record in service.sample(40)]
        assert len(set(keys)) == 40 and all(0 <= key < 600 for key in keys)
        assert service.recoveries == 1
        assert service.stats().seen == 600


def test_graceful_close_then_reopen(tmp_path):
    root = tmp_path / "svc"
    with make_process_service(root, seed=4) as service:
        service.offer_batch(keyed_records(600))
        before = [s.seen for s in service.shard_stats()]
    with make_process_service(root, seed=4) as service:
        assert [s.seen for s in service.shard_stats()] == before
        service.offer_batch(keyed_records(150))
        assert service.stats().seen == 750


def test_backpressure_bounded_queue(tmp_path):
    """A depth-1 inbox forces the producer to stall, not to buffer."""
    with make_process_service(tmp_path / "svc", shards=2,
                              queue_depth=1) as service:
        records = keyed_records(2000)
        for start in range(0, 2000, 50):
            service.offer_batch(records[start:start + 50])
        assert service.stats().seen == 2000
    # Not asserted > 0: a fast consumer can legally keep up, but the
    # counter must at least exist and never go negative.
    assert service.backpressure_stalls >= 0


# -- the shared-memory data plane --------------------------------------------


@needs_shm
def test_shm_round_trip_with_record_batches(tmp_path):
    """Columnar batches ride the rings in both directions."""
    with make_process_service(tmp_path / "svc", ipc="shm") as service:
        for batch in keyed_batches(900, 150):
            service.offer_batch(batch)
        stats = service.stats()
        assert stats.seen == 900
        ipc = service.ipc_stats()
        assert ipc["transport"] == "shm"
        assert ipc["fallback_slabs"] == 0
        ingest_bytes = ipc["zero_copy_bytes"]
        assert ingest_bytes == 900 * 32  # every batch went zero-copy
        merged = service.sample_batch(45)
        assert len(merged) == 45
        keys = merged.keys.tolist()
        assert len(set(keys)) == 45 and all(0 <= k < 900 for k in keys)
        # The reply direction is zero-copy too: the counter must have
        # grown by the shard replies the merged sample drew from.
        assert service.ipc_stats()["zero_copy_bytes"] > ingest_bytes


@needs_shm
def test_transports_are_bit_exact(tmp_path):
    """inline / queue / shm twins: same samples, same shard stats.

    The data plane must be invisible to the sampling math -- this is
    the ISSUE's twin-run discipline, asserted end to end: identical
    merged sample keys and identical per-shard stats dicts (seen,
    DiskStats, simulated clock) across all three transports.
    """
    outcomes = []
    for name, kwargs in (("inline", {"pool": "inline"}),
                         ("process-queue", {"pool": "process",
                                            "ipc": "queue"}),
                         ("process-shm", {"pool": "process",
                                          "ipc": "shm"})):
        config = service_config()
        with ShardedReservoir(tmp_path / name, config, shards=3,
                              seed=7, timeout=120.0, **kwargs) as service:
            for batch in keyed_batches(1200, 100):
                service.offer_batch(batch)
            merged = service.sample_batch(60)
            outcomes.append({
                "sample": merged.keys.tolist(),
                "shards": [s.as_dict() for s in service.shard_stats()],
            })
    assert outcomes[0] == outcomes[1] == outcomes[2]


@needs_shm
def test_hard_kill_with_slabs_in_flight(tmp_path):
    """SIGKILL mid-stream on the shm transport loses nothing.

    The ring is a transport, not a store: after the kill the
    supervisor discards the dead shard's rings and replays its journal
    from the last checkpoint, so every acknowledged record is still
    counted and sampled.  ``stats().seen`` is the zero-loss assertion:
    it sums what the (respawned) workers actually applied.
    """
    with make_process_service(tmp_path / "svc", ipc="shm",
                              checkpoint_batches=2) as service:
        batches = keyed_batches(1200, 100)
        for i, batch in enumerate(batches):
            if i == 6:
                service.kill_shard(1, hard=True)  # slabs in flight
            service.offer_batch(batch)
        assert service.stats().seen == 1200
        assert service.recoveries >= 1
        merged = service.sample_batch(30)
        assert len(merged) == 30
        assert all(0 <= k < 1200 for k in merged.keys.tolist())


def make_pool(root, **kwargs):
    config = service_config()
    spec = ShardSpec(0, str(root), "geometric", config,
                     default_device_spec("geometric", config), seed=3)
    return ProcessPool([spec], **kwargs)


@needs_shm
def test_schema_mismatched_batch_never_rides_the_ring(tmp_path):
    """A batch that is not the shard's declared layout skips the ring.

    The slab codec decodes with the shard schema, so a weighted (or
    resized) batch on the ring would shift every field; the pool must
    route it over the pickled queue (which carries the batch's own
    schema) and count the fallback, leaving the ring untouched.
    """
    pool = make_pool(tmp_path / "s0", ipc="shm")
    try:
        assert pool.recv(0, timeout=60.0)[0] == "ready"
        weighted = RecordBatch.from_records(
            RecordSchema(32, weighted=True), keyed_records(10),
            weights=[1.0] * 10)
        pool.send(0, ("batch", 1, weighted))
        assert pool.fallback_slabs == 1
        assert pool.zero_copy_bytes == 0
        assert pool.ring_depth(0) == 0
    finally:
        pool.kill(0)
        pool.close()


@needs_shm
def test_drain_counts_dropped_untranslatable_replies(tmp_path):
    """drain() survives a stub whose frame never arrived.

    A worker that dies between publishing a reply stub and its frame
    (or mid-frame) leaves an untranslatable stub on the outbox: drain
    must drop exactly that reply -- counted in ``dropped_replies`` --
    while still delivering later queue-only replies such as late
    checkpoint acks.
    """
    pool = make_pool(tmp_path / "s0", ipc="shm")
    try:
        assert pool.recv(0, timeout=60.0)[0] == "ready"
        batch = RecordBatch.from_records(RecordSchema(32),
                                         keyed_records(50))
        pool.send(0, ("batch", 1, batch))
        pool.send(0, ("sample", 7, 5))  # reply rides the outbound ring
        pool.send(0, ("checkpoint",))  # queue-only ack behind the stub
        ring = pool._out_rings[0]
        deadline = time.monotonic() + 30.0
        while ring.used_bytes == 0:
            assert time.monotonic() < deadline, "reply frame never came"
            time.sleep(0.005)
        # Steal the reply frame (the parent is the ring's consumer, so
        # this is legal): its stub on the outbox is now orphaned,
        # exactly as if the frame had been torn by the worker's death.
        slab = ring.try_pop()
        assert slab is not None and slab.seq == 7
        ring.pop_done(slab)
        while True:  # both replies queued before the kill
            try:
                if pool._outboxes[0].qsize() >= 2:
                    break
            except NotImplementedError:  # pragma: no cover - macOS
                time.sleep(0.5)
                break
            assert time.monotonic() < deadline, "acks never queued"
            time.sleep(0.005)
        pool.kill(0)
        drained = []
        while not any(r[0] == "checkpointed" for r in drained):
            assert time.monotonic() < deadline, "ack never drained"
            drained.extend(pool.drain(0))
            time.sleep(0.005)
        assert pool.dropped_replies == 1
        assert not any(r[0].startswith("sample") for r in drained)
    finally:
        pool.close()


@needs_shm
def test_oversize_slab_falls_back_to_queue(tmp_path):
    """Batches too big for the ring degrade to pickling, correctly.

    A 1 KiB ring cannot take a ~50-record per-shard frame (a frame
    needs twice its size free in the worst wrap case), so every
    sub-batch must fall back to the queue path -- same records, same
    results, non-zero ``fallback_slabs``.
    """
    with make_process_service(tmp_path / "svc", ipc="shm",
                              ring_bytes=1024) as service:
        for batch in keyed_batches(900, 150):
            service.offer_batch(batch)
        assert service.stats().seen == 900
        ipc = service.ipc_stats()
        assert ipc["transport"] == "shm"
        assert ipc["fallback_slabs"] > 0
        sample = service.sample(45)
        assert len({r.key for r in sample}) == 45
