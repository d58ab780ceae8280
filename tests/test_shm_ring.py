"""Tier-1 tests for the shared-memory slab ring (``repro.service.shm``).

The ring is the sharded service's data plane; these tests pin its
framing codec (header checksum, trailer stamp, pad-frame wrap), its
SPSC FIFO discipline across wrap-around, torn-write *detection* (the
ring never decodes garbage -- it raises), and the zero-copy
``RecordBatch`` round trip the transport is built on.  Everything runs
single-process; the cross-process behaviour rides the same code paths
and is covered by ``test_service_mp.py -m service``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keyed_records
from repro.service.shm import (
    CONTROL_BYTES,
    FRAME_ALIGN,
    HAVE_SHM,
    HEADER_BYTES,
    KIND_DATA,
    SlabRing,
    TRAILER_BYTES,
    TornSlabError,
    check_trailer,
    decode_header,
    encode_header,
    encode_trailer,
    frame_bytes,
)
from repro.storage.recordbatch import RecordBatch
from repro.storage.records import RecordSchema

pytestmark = pytest.mark.skipif(
    not HAVE_SHM, reason="multiprocessing.shared_memory unavailable")


# -- framing codec -----------------------------------------------------------


@given(kind=st.integers(0, 0xFFFF),
       flags=st.integers(0, 0xFFFF),
       seq=st.integers(0, 2 ** 64 - 1),
       n_records=st.integers(0, 0xFFFFFFFF),
       n_bytes=st.integers(0, 0xFFFFFFFF))
@settings(max_examples=200, deadline=None)
def test_header_codec_round_trip_property(kind, flags, seq, n_records,
                                          n_bytes):
    """decode(encode(h)) == h across the full range of every field."""
    buf = encode_header(kind, flags, seq, n_records, n_bytes)
    assert len(buf) == HEADER_BYTES
    assert decode_header(buf) == (kind, flags, seq, n_records, n_bytes)


@given(position=st.integers(0, HEADER_BYTES - TRAILER_BYTES - 1),
       bit=st.integers(0, 7))
@settings(max_examples=100, deadline=None)
def test_header_single_bit_flips_are_detected(position, bit):
    """Any bit flip in the covered words (fields + checksum) raises.

    Only the trailing reserved word escapes the CRC; a torn write that
    touches nothing but padding is harmless by construction.
    """
    buf = bytearray(encode_header(KIND_DATA, 0, 12345, 7, 900))
    buf[position] ^= 1 << bit
    with pytest.raises(TornSlabError):
        decode_header(bytes(buf))


def test_header_codec_rejects_out_of_range_fields():
    encode_header(0xFFFF, 0xFFFF, 2 ** 64 - 1, 0xFFFFFFFF, 0xFFFFFFFF)
    for bad in (dict(kind=-1), dict(kind=0x10000), dict(flags=-1),
                dict(seq=2 ** 64), dict(n_records=-1),
                dict(n_bytes=0x1_0000_0000)):
        fields = dict(kind=KIND_DATA, flags=0, seq=1, n_records=0,
                      n_bytes=0)
        fields.update(bad)
        with pytest.raises(ValueError):
            encode_header(**fields)


def test_header_rejects_truncation_and_bad_magic():
    buf = encode_header(KIND_DATA, 0, 3, 1, 50)
    with pytest.raises(TornSlabError):
        decode_header(buf[:HEADER_BYTES - 1])
    with pytest.raises(TornSlabError):
        decode_header(b"\x00" * HEADER_BYTES)


def test_trailer_stamp_detects_torn_writes():
    buf = encode_trailer(7)
    check_trailer(buf, 7)  # no raise
    with pytest.raises(TornSlabError):
        check_trailer(buf, 8)  # right bytes, wrong frame
    corrupt = bytes([buf[0] ^ 1]) + buf[1:]
    with pytest.raises(TornSlabError):
        check_trailer(corrupt, 7)


@given(n_bytes=st.integers(0, 1 << 20))
@settings(max_examples=100, deadline=None)
def test_frame_bytes_alignment_property(n_bytes):
    total = frame_bytes(n_bytes)
    raw = HEADER_BYTES + n_bytes + TRAILER_BYTES
    assert total % FRAME_ALIGN == 0
    assert raw <= total < raw + FRAME_ALIGN


# -- ring FIFO discipline ----------------------------------------------------


@given(sizes=st.lists(st.integers(0, 160), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_ring_is_fifo_across_wraparound_property(sizes):
    """Payloads come out byte-identical, in order, through many wraps.

    A 512-byte ring forces pad-frame wraps every few frames, so the
    property exercises the contiguity guarantee (a popped view is one
    unbroken span) as hard as the steady state ever will.
    """
    ring = SlabRing(capacity=512)
    try:
        payloads = [bytes([i % 251]) * n for i, n in enumerate(sizes)]
        popped = []
        queued = 0
        feed = iter(payloads)
        pending = next(feed, None)
        seq = 0
        while pending is not None or queued:
            if pending is not None and ring.try_push(KIND_DATA, seq,
                                                     pending):
                seq += 1
                queued += 1
                pending = next(feed, None)
                continue
            slab = ring.try_pop()
            assert slab is not None  # full and empty are exclusive
            assert slab.seq == len(popped)
            popped.append(bytes(slab.view))
            ring.pop_done(slab)
            queued -= 1
        assert popped == payloads
        assert ring.try_pop() is None
        assert ring.used_bytes == 0
    finally:
        ring.unlink()


def test_empty_ring_rewinds_so_its_footprint_follows_the_traffic():
    """A frame pushed into an emptied ring rewinds to offset 0 unless
    it fits before the previous one's end, so a ring far larger than
    its traffic writes only within two frames of its start (plus the
    pad trailer's last page)."""
    ring = SlabRing(capacity=1 << 16)
    reach = 2 * frame_bytes(1000)
    try:
        for seq, n in enumerate([700, 1000, 300, 1000, 64] * 20):
            assert ring.try_push(KIND_DATA, seq, bytes([seq % 251]) * n)
            assert ring.tail % ring.capacity <= reach
            slab = ring.try_pop()
            assert (slab.seq, bytes(slab.view)) == (
                seq, bytes([seq % 251]) * n)
            ring.pop_done(slab)
        view = ring.try_reserve(500)
        view[:] = b"r" * 500
        ring.commit(KIND_DATA, 100, n_bytes=500)
        assert ring.tail % ring.capacity <= reach
        slab = ring.try_pop()
        assert bytes(slab.view) == b"r" * 500
        ring.pop_done(slab)
        assert ring.used_bytes == 0
    finally:
        ring.unlink()


def test_ring_detects_torn_header_and_trailer():
    """Corrupted frames raise TornSlabError instead of decoding."""
    ring = SlabRing(capacity=1024)
    try:
        assert ring.try_push(KIND_DATA, 1, b"x" * 40, n_records=2)
        # Flip one payload... no: flip the trailer stamp -- the torn
        # write a worker dying mid-copy would leave behind.
        trailer_at = CONTROL_BYTES + HEADER_BYTES + 40
        ring._shm.buf[trailer_at] ^= 0xFF
        with pytest.raises(TornSlabError):
            ring.try_pop()
        ring._shm.buf[trailer_at] ^= 0xFF  # restore, then tear the header
        ring._shm.buf[CONTROL_BYTES] ^= 0xFF
        with pytest.raises(TornSlabError):
            ring.try_pop()
    finally:
        ring.unlink()


def test_reserve_commit_abort_discipline():
    ring = SlabRing(capacity=256)
    try:
        with pytest.raises(RuntimeError):
            ring.commit(KIND_DATA, 1)  # commit without a reservation
        view = ring.try_reserve(24)
        assert len(view) == 24
        with pytest.raises(RuntimeError):
            ring.try_reserve(8)  # double reservation
        ring.abort()
        view = ring.try_reserve(24)
        view[:] = b"a" * 24
        with pytest.raises(ValueError):
            ring.commit(KIND_DATA, 1, n_bytes=200)  # size != reservation
        view = ring.try_reserve(24)
        view[:] = b"a" * 24
        ring.commit(KIND_DATA, 1, n_records=3, n_bytes=24)
        slab = ring.try_pop()
        assert (slab.seq, slab.n_records, bytes(slab.view)) == (
            1, 3, b"a" * 24)
        ring.pop_done(slab)
    finally:
        ring.unlink()


def test_capacity_limits_and_oversize_rejection():
    ring = SlabRing(capacity=256)
    try:
        assert ring.fits(64)
        assert not ring.fits(256)  # needs contiguous room after a pad
        with pytest.raises(ValueError):
            ring.try_push(KIND_DATA, 1, b"x" * 256)
        with pytest.raises(ValueError):
            ring.try_reserve(256)
        # A full-but-valid ring reports "not now", not an error.
        while ring.try_push(KIND_DATA, 1, b"x" * 64):
            pass
        assert ring.try_reserve(64) is None
    finally:
        ring.unlink()


def test_attach_sees_the_creators_frames():
    """A second mapping of the same segment pops what the first pushed."""
    ring = SlabRing(capacity=1024)
    try:
        assert ring.try_push(KIND_DATA, 9, b"hello", n_records=1, flags=1)
        other = SlabRing(name=ring.name)
        assert other.capacity == ring.capacity
        slab = other.try_pop()
        assert (slab.seq, bytes(slab.view), slab.flags) == (9, b"hello", 1)
        other.pop_done(slab)
        assert ring.used_bytes == 0  # head advance is shared state
        other.close()
    finally:
        ring.unlink()


# -- the RecordBatch transport contract --------------------------------------


def test_record_batch_rides_the_ring_bit_exact():
    schema = RecordSchema(32)
    batch = RecordBatch.from_records(schema, keyed_records(64))
    n_bytes = len(batch) * schema.record_size
    ring = SlabRing(capacity=8192)
    try:
        view = ring.try_reserve(n_bytes)
        assert batch.into_shared(view) == n_bytes
        ring.commit(KIND_DATA, 5, n_records=len(batch), n_bytes=n_bytes)
        slab = ring.try_pop()
        assert (slab.seq, slab.n_records, slab.flags) == (5, 64, 0)
        out = RecordBatch.from_shared(schema, slab.view, 64).copy()
        ring.pop_done(slab)
        assert np.array_equal(out.array, batch.array)
    finally:
        ring.unlink()


def test_shared_codec_rejects_short_buffers():
    schema = RecordSchema(32)
    batch = RecordBatch.from_records(schema, keyed_records(4))
    with pytest.raises(ValueError):
        batch.into_shared(bytearray(schema.record_size * 3))
    with pytest.raises(ValueError):
        RecordBatch.from_shared(schema, bytes(schema.record_size * 3), 4)


def test_ingest_pop_rejects_schema_mismatched_frames():
    """The worker never decodes a frame that disagrees with its schema.

    A frame of wider records (or one whose byte count is not
    ``n_records`` whole records) against the shard's record size must
    raise :class:`TornSlabError` instead of shifting every field.
    """
    from repro.service.worker import _pop_batch_slab

    schema = RecordSchema(32)
    wider = RecordSchema(40)
    batch = RecordBatch.from_records(wider, keyed_records(8))
    n_bytes = len(batch) * wider.record_size
    ring = SlabRing(capacity=4096)
    try:
        view = ring.try_reserve(n_bytes)
        batch.into_shared(view)
        ring.commit(KIND_DATA, 1, n_records=len(batch), n_bytes=n_bytes)
        with pytest.raises(TornSlabError, match="schema"):
            _pop_batch_slab(ring, schema, 1, len(batch))
        assert ring.used_bytes == 0  # the bad frame was released

        # A short payload is caught too.
        view = ring.try_reserve(24)
        view[:] = b"\x00" * 24
        ring.commit(KIND_DATA, 2, n_records=8, n_bytes=24)
        with pytest.raises(TornSlabError, match="schema"):
            _pop_batch_slab(ring, schema, 2, 8)
    finally:
        ring.unlink()


def test_schema_and_batch_pickle_round_trip():
    """The queue fallback path pickles both; they must survive it."""
    schema = RecordSchema(50)
    clone = pickle.loads(pickle.dumps(schema))
    assert clone == schema
    assert hash(clone) == hash(schema)
    batch = RecordBatch.from_records(RecordSchema(32), keyed_records(16))
    out = pickle.loads(pickle.dumps(batch))
    assert out.schema == batch.schema
    assert np.array_equal(out.array, batch.array)
