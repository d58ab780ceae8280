"""Shared-memory slab transport: the sharded service's data plane.

The queue transport pickles every record batch and every query reply --
at 4 shards that serialization is the dominant cross-process cost (see
docs/SERVICE.md "The IPC plane").  This module provides the zero-copy
alternative: a :class:`SlabRing` is a fixed-capacity single-producer /
single-consumer byte ring living in one
:mod:`multiprocessing.shared_memory` segment, over which columnar
:class:`~repro.storage.recordbatch.RecordBatch` slabs travel as
structured-array views -- one vectorised copy into the ring on send,
one view (plus one defensive copy) out on receive, and no pickling in
between.

Framing.  Each slab is one contiguous frame::

    +--------- 32 B header ---------+----- payload -----+- trailer -+
    | magic kind flags seq          | n_bytes raw bytes | seq^STAMP |
    | n_records n_bytes checksum    |                   |  (8 B)    |
    +-------------------------------+-------------------+-----------+

rounded up to a 64-byte boundary.  A frame that would straddle the end
of the ring is preceded by a ``PAD`` frame so payloads stay contiguous
(that is what makes the receive side a single ``np.frombuffer`` view).
A frame written to an empty ring rewinds to offset 0 the same way, so
the shared pages a ring touches -- resident memory in both processes
-- follow the bytes in flight rather than the ring's capacity.
The header carries its own checksum and the trailer repeats the
sequence word, so a frame written by a worker that died mid-copy is
*detected* (:class:`TornSlabError`) rather than decoded as garbage --
the supervisor's journal replay, not the ring, is the durability story.

Publication.  ``head`` (bytes consumed) and ``tail`` (bytes produced)
are monotonically increasing 64-bit counters in the segment's control
area.  The producer bumps ``tail`` only after the full frame is
written; the consumer bumps ``head`` only after it has copied the
payload out.  Each side writes one counter and reads the other --
aligned 8-byte stores, the classic SPSC contract -- and in the sharded
service every data frame is paired with a tiny stub message on the
existing (locking, therefore fencing) queue, so a received stub always
implies a published frame.

The ring is a *transport*, not a store: on worker death the supervisor
discards both rings along with the queues and replays its journal, so
nothing in shared memory is ever authoritative.
"""

from __future__ import annotations

import struct
import zlib

try:  # pragma: no cover - absent only on exotic platforms
    from multiprocessing import shared_memory as _shared_memory
    HAVE_SHM = True
except ImportError:  # pragma: no cover
    _shared_memory = None
    HAVE_SHM = False

#: First header word of every frame; anything else is a torn write.
SLAB_MAGIC = 0x51AB_C0DE

#: Trailer stamp mixed with the frame's sequence word.
SLAB_STAMP = 0xA5A5_5A5A_C0FF_EE00

#: Frame kinds.
KIND_DATA = 1
KIND_PAD = 2

#: ``<`` magic(u32) kind(u16) flags(u16) seq(u64) n_records(u32)
#: n_bytes(u32) checksum(u32) reserved(u32) -- exactly 32 bytes.
_HEADER = struct.Struct("<IHHQIIII")
HEADER_BYTES = _HEADER.size
TRAILER_BYTES = 8
_TRAILER = struct.Struct("<Q")

#: Frame sizes are rounded up to this alignment.  It must exceed
#: ``HEADER_BYTES + TRAILER_BYTES`` (40): frame starts then land on
#: multiples of the alignment, so the residue at the wrap point is
#: itself a multiple -- always big enough to hold a valid PAD frame
#: (with 32 the residue could be exactly 32, too small to frame).
FRAME_ALIGN = 64

#: Control area: head(u64) tail(u64) capacity(u64) reserved(u64).
_CONTROL = struct.Struct("<QQQQ")
CONTROL_BYTES = 64  # padded to its own cache line

DEFAULT_RING_BYTES = 8 << 20


class TornSlabError(RuntimeError):
    """A frame failed validation: torn write or corrupted ring."""


def _header_checksum(kind: int, flags: int, seq: int, n_records: int,
                     n_bytes: int) -> int:
    packed = struct.pack("<IHHQII", SLAB_MAGIC, kind, flags, seq,
                         n_records, n_bytes)
    return zlib.crc32(packed) & 0xFFFFFFFF


def encode_header(kind: int, flags: int, seq: int, n_records: int,
                  n_bytes: int) -> bytes:
    """Pack one validated 32-byte frame header."""
    if not 0 <= kind <= 0xFFFF:
        raise ValueError(f"kind {kind} out of range")
    if not 0 <= flags <= 0xFFFF:
        raise ValueError(f"flags {flags} out of range")
    if not 0 <= seq < 2 ** 64:
        raise ValueError(f"seq {seq} out of range")
    if not 0 <= n_records <= 0xFFFFFFFF:
        raise ValueError(f"n_records {n_records} out of range")
    if not 0 <= n_bytes <= 0xFFFFFFFF:
        raise ValueError(f"n_bytes {n_bytes} out of range")
    checksum = _header_checksum(kind, flags, seq, n_records, n_bytes)
    return _HEADER.pack(SLAB_MAGIC, kind, flags, seq, n_records, n_bytes,
                        checksum, 0)


def decode_header(buf) -> tuple[int, int, int, int, int]:
    """Unpack and validate a frame header.

    Returns ``(kind, flags, seq, n_records, n_bytes)``; raises
    :class:`TornSlabError` on a bad magic word or checksum mismatch
    (the two signatures of a torn or misaligned write).
    """
    if len(buf) < HEADER_BYTES:
        raise TornSlabError(
            f"frame header truncated: {len(buf)} of {HEADER_BYTES} bytes")
    magic, kind, flags, seq, n_records, n_bytes, checksum, _ = (
        _HEADER.unpack_from(buf))
    if magic != SLAB_MAGIC:
        raise TornSlabError(f"bad slab magic 0x{magic:08X}")
    if checksum != _header_checksum(kind, flags, seq, n_records, n_bytes):
        raise TornSlabError(
            f"slab header checksum mismatch at seq {seq}")
    return kind, flags, seq, n_records, n_bytes


def encode_trailer(seq: int) -> bytes:
    """The 8-byte commit stamp written after the payload."""
    return _TRAILER.pack((seq ^ SLAB_STAMP) & 0xFFFFFFFFFFFFFFFF)


def check_trailer(buf, seq: int) -> None:
    """Validate the commit stamp; raises :class:`TornSlabError`."""
    (stamp,) = _TRAILER.unpack_from(buf)
    if stamp != (seq ^ SLAB_STAMP) & 0xFFFFFFFFFFFFFFFF:
        raise TornSlabError(
            f"slab trailer stamp mismatch at seq {seq}: the frame's "
            "payload was not fully written (torn write)")


def frame_bytes(n_bytes: int) -> int:
    """Total ring bytes one frame of ``n_bytes`` payload occupies."""
    raw = HEADER_BYTES + n_bytes + TRAILER_BYTES
    return (raw + FRAME_ALIGN - 1) // FRAME_ALIGN * FRAME_ALIGN


class Slab:
    """One received frame: metadata plus a zero-copy payload view.

    The view aliases ring memory; it is valid only until
    :meth:`SlabRing.pop_done` releases the slot.  Copy (or absorb) the
    payload before releasing.
    """

    __slots__ = ("kind", "flags", "seq", "n_records", "view", "_frame")

    def __init__(self, kind: int, flags: int, seq: int, n_records: int,
                 view, frame: int) -> None:
        self.kind = kind
        self.flags = flags
        self.seq = seq
        self.n_records = n_records
        self.view = view
        self._frame = frame

    @property
    def n_bytes(self) -> int:
        return len(self.view)


class SlabRing:
    """A fixed-capacity SPSC slab ring in one shared-memory segment.

    Exactly one producer process calls :meth:`try_push`; exactly one
    consumer process calls :meth:`try_pop` / :meth:`pop_done`.  The
    creating side owns the segment's lifetime (:meth:`unlink`);
    attached sides only :meth:`close`.

    Args:
        name: attach to an existing ring by segment name; ``None``
            creates a fresh one.
        capacity: data-area bytes for a fresh ring (rounded up to the
            frame alignment); ignored when attaching (the control area
            records it).
        untrack: attach without letting *this* process's
            :mod:`multiprocessing.resource_tracker` own the segment --
            the right setting for every attacher that does not own the
            ring's lifetime (shard workers; the creator unlinks).  On
            CPython 3.13+ this skips tracker registration entirely
            (``track=False``); older interpreters fall back to a
            conservative unregister that only fires when the process
            runs a tracker of its own (see :func:`_attach_untracked`).
    """

    def __init__(self, name: str | None = None, *,
                 capacity: int = DEFAULT_RING_BYTES,
                 untrack: bool = False) -> None:
        if not HAVE_SHM:  # pragma: no cover - platform guard
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        if name is None:
            capacity = max(FRAME_ALIGN,
                           (capacity + FRAME_ALIGN - 1)
                           // FRAME_ALIGN * FRAME_ALIGN)
            self._shm = _shared_memory.SharedMemory(
                create=True, size=CONTROL_BYTES + capacity)
            self.owner = True
            self.capacity = capacity
            _CONTROL.pack_into(self._shm.buf, 0, 0, 0, capacity, 0)
        else:
            self._shm = (_attach_untracked(name) if untrack
                         else _shared_memory.SharedMemory(name=name))
            self.owner = False
            _, _, capacity, _ = _CONTROL.unpack_from(self._shm.buf, 0)
            self.capacity = int(capacity)
        self._buf = self._shm.buf
        self._data = self._shm.buf[CONTROL_BYTES:CONTROL_BYTES
                                   + self.capacity]
        self._closed = False
        self._pending = None

    # -- control words ------------------------------------------------------

    @property
    def name(self) -> str:
        return self._shm.name

    def _load(self, offset: int) -> int:
        (value,) = struct.unpack_from("<Q", self._buf, offset)
        return value

    def _store(self, offset: int, value: int) -> None:
        struct.pack_into("<Q", self._buf, offset, value)

    @property
    def head(self) -> int:
        return self._load(0)

    @property
    def tail(self) -> int:
        return self._load(8)

    @property
    def used_bytes(self) -> int:
        return self.tail - self.head

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    def fits(self, n_bytes: int) -> bool:
        """Whether a payload of ``n_bytes`` can *ever* ride this ring
        (a frame needs contiguous room, so the worst case -- landing
        just before the wrap point -- must still fit after a pad)."""
        return 2 * frame_bytes(n_bytes) <= self.capacity

    # -- producer side ------------------------------------------------------

    def try_reserve(self, n_bytes: int):
        """Reserve a frame's payload region; ``None`` when full now.

        Two-phase producer API: the caller writes the payload directly
        into the returned writable view (e.g. via
        :meth:`~repro.storage.recordbatch.RecordBatch.into_shared`),
        then :meth:`commit`\\ s the frame.  Raises :class:`ValueError`
        for payloads the ring can never hold.
        """
        if self._pending is not None:
            raise RuntimeError("a reserved frame is awaiting commit")
        need = frame_bytes(n_bytes)
        if 2 * need > self.capacity:
            raise ValueError(
                f"slab of {n_bytes} B can never fit a "
                f"{self.capacity} B ring")
        placed = self._place(need)
        if placed is None:
            return None
        pos, pad = placed
        view = self._data[pos + HEADER_BYTES:pos + HEADER_BYTES + n_bytes]
        self._pending = (pos, pad, need, view)
        return view

    def commit(self, kind: int, seq: int, *, flags: int = 0,
               n_records: int = 0, n_bytes: int = 0) -> None:
        """Publish the frame reserved by :meth:`try_reserve`."""
        if self._pending is None:
            raise RuntimeError("commit without a reserved frame")
        pos, pad, need, view = self._pending
        self._pending = None
        # The reservation's view has served its purpose; releasing it
        # here keeps the segment unmappable-free even if the caller
        # holds on to the (now invalid) reference.
        view.release()
        if frame_bytes(n_bytes) != need:
            raise ValueError("committed size differs from reservation")
        tail = self.tail
        if pad:
            pad_payload = pad - HEADER_BYTES - TRAILER_BYTES
            self._write_frame(tail % self.capacity, KIND_PAD, 0, seq, 0,
                              pad_payload, None, pad)
        data = self._data
        data[pos:pos + HEADER_BYTES] = encode_header(
            kind, flags, seq, n_records, n_bytes)
        end = pos + HEADER_BYTES + n_bytes
        data[end:end + TRAILER_BYTES] = encode_trailer(seq)
        self._store(8, tail + pad + need)

    def abort(self) -> None:
        """Drop an uncommitted reservation (nothing was published)."""
        if self._pending is not None:
            self._pending[3].release()
            self._pending = None

    def try_push(self, kind: int, seq: int, payload, *, flags: int = 0,
                 n_records: int = 0) -> bool:
        """Write one frame; ``False`` when the ring lacks space now.

        ``payload`` is anything with the buffer protocol (bytes, a
        contiguous structured-array ``memoryview``); the copy into the
        ring is the send path's only data movement.  Raises
        :class:`ValueError` for a payload the ring can never hold --
        the caller's cue to fall back to the queue transport.
        """
        payload = memoryview(payload).cast("B")
        n_bytes = len(payload)
        need = frame_bytes(n_bytes)
        if 2 * need > self.capacity:
            raise ValueError(
                f"slab of {n_bytes} B can never fit a "
                f"{self.capacity} B ring")
        placed = self._place(need)
        if placed is None:
            return False
        pos, pad = placed
        tail = self.tail
        if pad:
            pad_payload = pad - HEADER_BYTES - TRAILER_BYTES
            self._write_frame(tail % self.capacity, KIND_PAD, 0, seq, 0,
                              pad_payload, None, pad)
        self._write_frame(pos, kind, flags, seq, n_records, n_bytes,
                          payload, need)
        self._store(8, tail + pad + need)
        return True

    def _place(self, need: int) -> tuple[int, int] | None:
        """(offset, pad bytes) for the next frame of ``need`` bytes, or
        ``None`` while the ring lacks room.

        A frame that would straddle the end of the ring starts at offset
        0 behind a PAD frame filling the rest, so it stays contiguous.
        A frame written to an *empty* ring rewinds the same way, so the
        pages a ring ever touches follow the bytes in flight, not its
        capacity.
        """
        head, tail = self.head, self.tail
        pos = tail % self.capacity
        rem = self.capacity - pos
        rewind = rem < need or (tail == head and pos >= need)
        pad = rem if rewind else 0
        if pad + need > self.capacity - (tail - head):
            return None
        return (0 if rewind else pos), pad

    def _write_frame(self, pos: int, kind: int, flags: int, seq: int,
                     n_records: int, n_bytes: int, payload,
                     total: int) -> None:
        data = self._data
        data[pos:pos + HEADER_BYTES] = encode_header(
            kind, flags, seq, n_records, n_bytes)
        if payload is not None and n_bytes:
            data[pos + HEADER_BYTES:pos + HEADER_BYTES + n_bytes] = payload
        end = pos + HEADER_BYTES + n_bytes
        data[end:end + TRAILER_BYTES] = encode_trailer(seq)

    # -- consumer side ------------------------------------------------------

    def try_pop(self) -> Slab | None:
        """The next data frame, or ``None`` when the ring is empty.

        PAD frames are consumed transparently.  The returned
        :class:`Slab` holds a zero-copy view into the ring; call
        :meth:`pop_done` with it once the payload has been copied or
        absorbed.
        """
        while True:
            head, tail = self.head, self.tail
            if tail == head:
                return None
            pos = head % self.capacity
            header = bytes(self._data[pos:pos + HEADER_BYTES])
            kind, flags, seq, n_records, n_bytes = decode_header(header)
            total = frame_bytes(n_bytes)
            if pos + total > self.capacity:
                raise TornSlabError(
                    f"frame at offset {pos} overruns the ring "
                    f"({total} B frame, {self.capacity - pos} B left)")
            check_trailer(
                bytes(self._data[pos + HEADER_BYTES + n_bytes:
                                 pos + HEADER_BYTES + n_bytes
                                 + TRAILER_BYTES]),
                seq)
            if kind == KIND_PAD:
                self._store(0, head + total)
                continue
            view = self._data[pos + HEADER_BYTES:
                              pos + HEADER_BYTES + n_bytes]
            return Slab(kind, flags, seq, n_records, view, total)

    def pop_done(self, slab: Slab) -> None:
        """Release ``slab``'s ring slot (its view becomes invalid)."""
        slab.view.release()
        slab.view = None
        self._store(0, self.head + slab._frame)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (the segment may live on)."""
        if self._closed:
            return
        self._closed = True
        self.abort()
        self._data.release()
        self._buf = None
        self._data = None
        try:
            self._shm.close()
        except BufferError:  # a Slab view is still alive somewhere;
            pass             # the segment unmaps at process exit instead

    def unlink(self) -> None:
        """Destroy the segment (creator side only; idempotent)."""
        self.close()
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self) -> None:  # pragma: no cover - GC ordering
        # Release the buffer views before SharedMemory.__del__ tries to
        # close the mapping (it raises BufferError otherwise).
        try:
            self.close()
        except Exception:
            pass


def _attach_untracked(name: str):
    """Attach to a segment without this process's tracker owning it.

    CPython 3.13+ supports ``track=False``: no registration happens at
    all, which is correct whether the process shares the creator's
    resource tracker or runs its own.  Older interpreters always
    register on attach; there the only lever is
    ``resource_tracker.unregister``, which is safe *only* when this
    process started a tracker of its own -- with a tracker inherited
    from the creator (fork children, and spawn children too: CPython
    hands the parent's tracker fd to ``spawn_main``), the registry
    entry is shared and deduplicated by name, so unregistering would
    strip the creator's leak-safety registration.  The pre-attach
    ``_fd`` probe below detects the never-started-here case; it reads
    a private CPython attribute, but only on the legacy fallback path.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - CPython < 3.13 fallback
        pass
    from multiprocessing import resource_tracker

    fresh_tracker = getattr(
        resource_tracker._resource_tracker, "_fd", None) is None
    shm = _shared_memory.SharedMemory(name=name)
    if fresh_tracker:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm
