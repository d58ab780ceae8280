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
  compiled :class:`struct.Struct` call per record, cached per
  ``(record_size, weighted)`` pair;
* the columnar codec (:meth:`RecordSchema.encode_many` /
  ``decode_many``), one ``tobytes`` / ``np.frombuffer`` per *segment*
  over the packed structured :attr:`RecordSchema.dtype`.

The two are byte-identical by construction (property-tested), so disk
images and :class:`~repro.storage.device.DiskStats` accounting never
depend on which path produced them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


# key (int64), value (float64), timestamp (float64)
_HEADER = struct.Struct("<qdd")
#: Smallest representable record: just the three header fields.
MIN_RECORD_SIZE = _HEADER.size

# weight (float64) prepended for weighted records
_WEIGHT = struct.Struct("<d")


@lru_cache(maxsize=None)
def _full_struct(record_size: int, weighted: bool) -> struct.Struct:
    """One compiled codec for a whole record slot.

    The ``{pad}s`` tail both zero-pads short payloads and truncates
    long ones -- exactly the scalar ``encode`` contract -- so one
    ``pack`` call replaces the head/body/padding concatenation.
    """
    head = ("<d" if weighted else "<") + "qdd"
    pad = record_size - MIN_RECORD_SIZE - (_WEIGHT.size if weighted else 0)
    return struct.Struct(head + (f"{pad}s" if pad else ""))


@lru_cache(maxsize=None)
def _batch_dtype(record_size: int, weighted: bool) -> np.dtype:
    """Packed structured dtype matching the scalar codec byte-for-byte."""
    fields: list[tuple[str, str]] = []
    if weighted:
        fields.append(("weight", "<f8"))
    fields += [("key", "<i8"), ("value", "<f8"), ("timestamp", "<f8")]
    pad = record_size - MIN_RECORD_SIZE - (_WEIGHT.size if weighted else 0)
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


@dataclass(frozen=True)
class WeightedRecord:
    """A record plus its *effective weight* (paper Section 7.3.1).

    The geometric file stores ``record.weight`` on disk next to the
    record; the per-subsample multiplier lives in memory.  The true
    weight of the record is ``multiplier * weight`` (Definition 2).
    """

    record: Record
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("weights must be non-negative")


class RecordSchema:
    """A fixed record size plus derived layout numbers.

    Args:
        record_size: bytes per record on disk (>= MIN_RECORD_SIZE).
        weighted: reserve 8 extra header bytes for the effective weight.
    """

    def __init__(self, record_size: int, *, weighted: bool = False) -> None:
        minimum = MIN_RECORD_SIZE + (_WEIGHT.size if weighted else 0)
        if record_size < minimum:
            raise ValueError(
                f"record_size {record_size} below minimum {minimum}"
            )
        self.record_size = record_size
        self.weighted = weighted
        self._codec = _full_struct(record_size, weighted)
        self._padded = record_size > minimum

    def __reduce__(self):
        # The cached struct.Struct codec is unpicklable; rebuild from
        # the two defining parameters instead (cache makes it cheap).
        return _rebuild_schema, (self.record_size, self.weighted)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RecordSchema)
                and self.record_size == other.record_size
                and self.weighted == other.weighted)

    def __hash__(self) -> int:
        return hash((self.record_size, self.weighted))

    @property
    def dtype(self) -> np.dtype:
        """Packed numpy structured dtype of one record slot.

        Field order and widths mirror the scalar codec exactly
        (``weight?``, ``key``, ``value``, ``timestamp``, ``payload``
        padding), so ``np.frombuffer(encoded, schema.dtype)`` is a
        zero-copy decode of anything :meth:`encode` produced.
        """
        return _batch_dtype(self.record_size, self.weighted)

    def check_payloads(self, records) -> None:
        """Raise ``ValueError`` for the first record whose payload is
        wider than a slot's payload field (:meth:`encode` would
        truncate it).

        Structures that keep records as offered call this before any
        state changes, so a record never reads back one way in memory
        and another after a restore or a trip through a slab.  Entries
        without a payload (count-only ``None``) are skipped.
        """
        width = (self.record_size - MIN_RECORD_SIZE
                 - (_WEIGHT.size if self.weighted else 0))
        for record in records:
            payload = getattr(record, "payload", None)
            if payload is not None and len(payload) > width:
                raise ValueError(
                    f"record {record.key}: its {len(payload)}-byte payload "
                    f"does not fit the {width}-byte payload slot of "
                    f"{self.record_size}-byte records")

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

    def encode(self, record: Record, weight: float | None = None) -> bytes:
        """Pack one record into exactly ``record_size`` bytes."""
        if self.weighted:
            w = 1.0 if weight is None else weight
            if self._padded:
                return self._codec.pack(w, record.key, record.value,
                                        record.timestamp, record.payload)
            return self._codec.pack(w, record.key, record.value,
                                    record.timestamp)
        if weight is not None:
            raise ValueError("schema is unweighted; cannot store a weight")
        if self._padded:
            return self._codec.pack(record.key, record.value,
                                    record.timestamp, record.payload)
        return self._codec.pack(record.key, record.value, record.timestamp)

    def decode(self, data: bytes) -> Record | WeightedRecord:
        """Unpack one record slot.

        Returns a :class:`WeightedRecord` for weighted schemas, a plain
        :class:`Record` otherwise.  Padding bytes are dropped.
        """
        if len(data) != self.record_size:
            raise ValueError(
                f"expected {self.record_size} bytes, got {len(data)}"
            )
        offset = 0
        weight = None
        if self.weighted:
            (weight,) = _WEIGHT.unpack_from(data, 0)
            offset = _WEIGHT.size
        key, value, timestamp = _HEADER.unpack_from(data, offset)
        payload = data[offset + _HEADER.size:].rstrip(b"\x00")
        record = Record(key=key, value=value, timestamp=timestamp,
                        payload=payload)
        if self.weighted:
            return WeightedRecord(record=record, weight=weight)
        return record

    def encode_batch(self, records: list[Record],
                     weights: list[float] | None = None) -> bytes:
        """Pack a list of records back-to-back.

        One preallocated output buffer and one compiled ``pack_into``
        per record -- no per-record bytes objects or generator join.
        """
        if weights is not None:
            if not self.weighted:
                raise ValueError(
                    "schema is unweighted; cannot store a weight")
            if len(weights) != len(records):
                raise ValueError("weights must match records one-to-one")
        size = self.record_size
        out = bytearray(len(records) * size)
        pack_into = self._codec.pack_into
        if self.weighted:
            if weights is None:
                weights = (1.0,) * len(records)
            if self._padded:
                for i, (r, w) in enumerate(zip(records, weights)):
                    pack_into(out, i * size, w, r.key, r.value,
                              r.timestamp, r.payload)
            else:
                for i, (r, w) in enumerate(zip(records, weights)):
                    pack_into(out, i * size, w, r.key, r.value, r.timestamp)
        elif self._padded:
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


def _rebuild_schema(record_size: int, weighted: bool) -> RecordSchema:
    """Pickle target for :class:`RecordSchema` (weighted is kw-only)."""
    return RecordSchema(record_size, weighted=weighted)
