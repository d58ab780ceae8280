"""Fixed-size record schema and codec.

The paper's experiments stream fixed-size records (50 B in Experiments 1
and 3, 1 KB in Experiment 2, 100 B in the motivating calculations).  A
:class:`Record` carries the fields the rest of the library needs --
a unique key, a numeric attribute for approximate query processing, and
a timestamp for time-biased sampling -- plus opaque padding up to the
configured record size.

Handling variable-size records is listed as future work in Section 10 of
the paper; this codec keeps the paper's fixed-size assumption, and the
record size is the knob benchmarks turn between Experiments 1 and 2.

Two encodings of the same byte layout coexist:

* the scalar codec (:meth:`RecordSchema.encode` / ``decode``), one
  compiled :class:`struct.Struct` call per record, cached per record
  size;
* the columnar codec (:meth:`RecordSchema.encode_many` /
  ``decode_many``), one ``tobytes`` / ``np.frombuffer`` per *segment*
  over the packed structured :attr:`RecordSchema.dtype`.

The two are byte-identical by construction (property-tested), so disk
images and :class:`~repro.storage.device.DiskStats` accounting never
depend on which path produced them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# key (int64), value (float64), timestamp (float64)
_HEADER = struct.Struct("<qdd")
#: Smallest representable record: just the three header fields.
MIN_RECORD_SIZE = _HEADER.size

#: The range of the header's signed 64-bit key field.
_KEY_MIN, _KEY_MAX = -(1 << 63), (1 << 63) - 1


@lru_cache(maxsize=None)
def _full_struct(record_size: int) -> struct.Struct:
    """One compiled codec for a whole record slot.

    The ``{pad}s`` tail both zero-pads short payloads and truncates
    long ones -- exactly the scalar ``encode`` contract -- so one
    ``pack`` call replaces the head/body/padding concatenation.
    """
    pad = record_size - MIN_RECORD_SIZE
    return struct.Struct("<qdd" + (f"{pad}s" if pad else ""))


@lru_cache(maxsize=None)
def _batch_dtype(record_size: int) -> np.dtype:
    """Packed structured dtype matching the scalar codec byte-for-byte."""
    fields = [("key", "<i8"), ("value", "<f8"), ("timestamp", "<f8")]
    pad = record_size - MIN_RECORD_SIZE
    if pad:
        fields.append(("payload", f"V{pad}"))
    dtype = np.dtype(fields)
    if dtype.itemsize != record_size:
        raise AssertionError(
            f"dtype itemsize {dtype.itemsize} != record_size {record_size}"
        )
    return dtype


@dataclass(frozen=True)
class Record:
    """One stream record.

    Attributes:
        key: unique identifier (the stream assigns sequence numbers).
        value: numeric attribute used by estimators and example queries.
        timestamp: production time; drives time-biased weighting.
        payload: opaque filler bytes; the codec pads/truncates to the
            schema's record size, so this usually stays empty.
    """

    key: int
    value: float = 0.0
    timestamp: float = 0.0
    payload: bytes = b""


class RecordSchema:
    """A fixed record size plus derived layout numbers.

    A per-record float a structure keeps beside a record (Section
    7.3.1's effective weight, a sampling law's key) lives in the
    structure's aux columns, not in the record slot.

    Args:
        record_size: bytes per record on disk (>= MIN_RECORD_SIZE).
    """

    def __init__(self, record_size: int) -> None:
        if record_size < MIN_RECORD_SIZE:
            raise ValueError(
                f"record_size {record_size} below minimum {MIN_RECORD_SIZE}"
            )
        self.record_size = record_size
        self._codec = _full_struct(record_size)
        self._padded = record_size > MIN_RECORD_SIZE

    def __reduce__(self):
        # The cached struct.Struct codec is unpicklable; rebuild from
        # the defining parameter instead (cache makes it cheap).
        return RecordSchema, (self.record_size,)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RecordSchema)
                and self.record_size == other.record_size)

    def __hash__(self) -> int:
        return hash(self.record_size)

    @property
    def dtype(self) -> np.dtype:
        """Packed numpy structured dtype of one record slot.

        Field order and widths mirror the scalar codec exactly
        (``key``, ``value``, ``timestamp``, ``payload`` padding), so ``np.frombuffer(encoded, schema.dtype)`` is a
        zero-copy decode of anything :meth:`encode` produced.
        """
        return _batch_dtype(self.record_size)

    def check_payloads(self, records) -> None:
        """Raise ``ValueError`` for the first record a slot cannot hold
        as offered: a payload wider than the payload field
        (:meth:`encode` would truncate it) or a key outside the 64-bit
        key field (:meth:`encode` would fail).

        Structures that keep records as offered call this before any
        state changes, so a record never reads back one way in memory
        and another after a restore or a trip through a slab, and a bad
        one leaves no half-counted offer behind.  Entries without a
        payload (count-only ``None``) are skipped.
        """
        width = self.record_size - MIN_RECORD_SIZE
        for record in records:
            payload = getattr(record, "payload", None)
            if payload is None:
                continue
            if len(payload) > width:
                raise ValueError(
                    f"record {record.key}: its {len(payload)}-byte payload "
                    f"does not fit the {width}-byte payload slot of "
                    f"{self.record_size}-byte records")
            if not _KEY_MIN <= record.key <= _KEY_MAX:
                raise ValueError(
                    f"record {record.key}: its key does not fit the "
                    "64-bit key field")

    def records_per_block(self, block_size: int) -> int:
        """How many whole records fit in one device block."""
        n = block_size // self.record_size
        if n < 1:
            raise ValueError(
                f"record of {self.record_size} B does not fit in a "
                f"{block_size} B block"
            )
        return n

    def blocks_for_records(self, n_records: int, block_size: int) -> int:
        """Blocks needed to hold ``n_records`` (packed, last block padded)."""
        if n_records < 0:
            raise ValueError("record count must be non-negative")
        per_block = self.records_per_block(block_size)
        return -(-n_records // per_block)  # ceiling division

    # -- encoding ---------------------------------------------------------

    def encode(self, record: Record) -> bytes:
        """Pack one record into exactly ``record_size`` bytes."""
        if self._padded:
            return self._codec.pack(record.key, record.value,
                                    record.timestamp, record.payload)
        return self._codec.pack(record.key, record.value, record.timestamp)

    def decode(self, data: bytes) -> Record:
        """Unpack one record slot; padding bytes are dropped."""
        if len(data) != self.record_size:
            raise ValueError(
                f"expected {self.record_size} bytes, got {len(data)}"
            )
        key, value, timestamp = _HEADER.unpack_from(data, 0)
        payload = data[_HEADER.size:].rstrip(b"\x00")
        return Record(key=key, value=value, timestamp=timestamp,
                      payload=payload)

    def encode_batch(self, records: list[Record]) -> bytes:
        """Pack a list of records back-to-back.

        One preallocated output buffer and one compiled ``pack_into``
        per record -- no per-record bytes objects or generator join.
        """
        size = self.record_size
        out = bytearray(len(records) * size)
        pack_into = self._codec.pack_into
        if self._padded:
            for i, r in enumerate(records):
                pack_into(out, i * size, r.key, r.value, r.timestamp,
                          r.payload)
        else:
            for i, r in enumerate(records):
                pack_into(out, i * size, r.key, r.value, r.timestamp)
        return bytes(out)

    def decode_batch(self, data: bytes, n_records: int):
        """Unpack ``n_records`` packed records from ``data``."""
        need = n_records * self.record_size
        if len(data) < need:
            raise ValueError("not enough bytes for requested records")
        return [
            self.decode(data[i * self.record_size:(i + 1) * self.record_size])
            for i in range(n_records)
        ]

    # -- columnar (zero-copy) encoding ------------------------------------

    def encode_many(self, batch) -> bytes:
        """Serialize a :class:`~repro.storage.recordbatch.RecordBatch`
        (or a matching structured ndarray) in one ``tobytes`` call.

        Byte-identical to :meth:`encode_batch` over the same records.
        """
        array = getattr(batch, "array", batch)
        if array.dtype != self.dtype:
            raise ValueError(
                f"batch dtype {array.dtype} does not match schema "
                f"dtype {self.dtype}"
            )
        return np.ascontiguousarray(array).tobytes()

    def decode_many(self, data: bytes, n_records: int | None = None):
        """Zero-copy columnar decode: one ``np.frombuffer`` per call.

        Returns a read-only :class:`~repro.storage.recordbatch.\
RecordBatch` viewing ``data`` directly (copy it before mutating).
        """
        from .recordbatch import RecordBatch

        return RecordBatch.from_bytes(self, data, n_records)
