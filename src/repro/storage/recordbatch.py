"""Columnar record batches: the zero-copy unit of the record engine.

A :class:`RecordBatch` wraps a 1-D numpy structured array whose packed
dtype (:attr:`~repro.storage.records.RecordSchema.dtype`) matches the
scalar codec's byte layout exactly.  That single fact buys the whole
columnar pipeline:

* ``RecordBatch.from_bytes`` is one ``np.frombuffer`` -- a zero-copy
  decode of any segment the scalar codec ever wrote;
* ``to_bytes`` is one ``tobytes`` -- a whole-segment encode with no
  per-record ``struct`` calls;
* column accessors (``keys`` / ``values`` / ``timestamps``) hand
  estimators and the zone map contiguous float/int vectors to reduce
  over, with no :class:`~repro.storage.records.Record` objects in
  sight.

The batch also keeps just enough of the ``list[Record]`` surface --
``len``, iteration, indexing, tail deletion, truthiness -- that the
:class:`~repro.core.subsample.SubsampleLedger` and the object-returning
query shims work on either representation unchanged.  Iterating or
integer-indexing decodes (that is the *shim*, deliberately scalar);
every hot path stays on the array.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .records import Record, RecordSchema, WeightedRecord


class RecordBatch:
    """A column-slab of records over one :class:`RecordSchema`.

    Args:
        schema: the fixed-size record schema; supplies the dtype.
        array: 1-D structured array of ``schema.dtype`` rows.  Views
            are fine (and common: ``from_bytes`` wraps the caller's
            buffer read-only); mutating methods require a writable
            array.
    """

    __slots__ = ("schema", "_array")

    def __init__(self, schema: RecordSchema, array: np.ndarray) -> None:
        if array.dtype != schema.dtype:
            raise ValueError(
                f"array dtype {array.dtype} does not match schema "
                f"dtype {schema.dtype}"
            )
        if array.ndim != 1:
            raise ValueError("a RecordBatch wraps a 1-D array")
        self.schema = schema
        self._array = array

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls, schema: RecordSchema, n: int = 0) -> "RecordBatch":
        """A writable batch of ``n`` zeroed rows."""
        return cls(schema, np.zeros(n, dtype=schema.dtype))

    @classmethod
    def from_bytes(cls, schema: RecordSchema, data: bytes,
                   n_records: int | None = None) -> "RecordBatch":
        """Zero-copy view over packed record bytes (read-only)."""
        if n_records is None:
            if len(data) % schema.record_size:
                raise ValueError(
                    f"{len(data)} bytes is not a whole number of "
                    f"{schema.record_size} B records"
                )
            n_records = len(data) // schema.record_size
        need = n_records * schema.record_size
        if len(data) < need:
            raise ValueError("not enough bytes for requested records")
        array = np.frombuffer(data, dtype=schema.dtype, count=n_records)
        return cls(schema, array)

    @classmethod
    def from_records(cls, schema: RecordSchema,
                     records: Sequence[Record],
                     weights: Sequence[float] | None = None
                     ) -> "RecordBatch":
        """Build a writable batch through the scalar codec.

        Round-tripping through :meth:`RecordSchema.encode_batch` makes
        byte-identity with the scalar path true by construction.
        """
        data = schema.encode_batch(list(records),
                                   list(weights) if weights is not None
                                   else None)
        array = np.frombuffer(data, dtype=schema.dtype).copy()
        return cls(schema, array)

    @classmethod
    def from_columns(cls, schema: RecordSchema, keys,
                     values=None, timestamps=None,
                     weights=None) -> "RecordBatch":
        """Assemble a batch from per-column vectors (payloads zeroed)."""
        keys = np.asarray(keys, dtype=np.int64)
        n = len(keys)
        array = np.zeros(n, dtype=schema.dtype)
        array["key"] = keys
        if values is not None:
            array["value"] = np.asarray(values, dtype=np.float64)
        if timestamps is not None:
            array["timestamp"] = np.asarray(timestamps, dtype=np.float64)
        if schema.weighted:
            array["weight"] = (np.asarray(weights, dtype=np.float64)
                               if weights is not None else 1.0)
        elif weights is not None:
            raise ValueError("schema is unweighted; cannot store weights")
        return cls(schema, array)

    @classmethod
    def concat(cls, schema: RecordSchema,
               batches: Iterable["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches into one newly-allocated batch."""
        arrays = [b._array for b in batches]
        if not arrays:
            return cls.empty(schema)
        return cls(schema, np.concatenate(arrays))

    @classmethod
    def from_shared(cls, schema: RecordSchema, buffer,
                    n_records: int) -> "RecordBatch":
        """Zero-copy view over a shared-memory buffer (IPC receive).

        ``buffer`` is typically a :class:`~repro.service.shm.Slab`
        payload view; the batch aliases it, so callers must
        :meth:`copy` (or fully absorb) the batch before the ring slot
        is released.
        """
        need = n_records * schema.record_size
        if len(buffer) < need:
            raise ValueError(
                f"shared buffer holds {len(buffer)} B, need {need} B "
                f"for {n_records} records")
        array = np.frombuffer(buffer, dtype=schema.dtype, count=n_records)
        return cls(schema, array)

    def into_shared(self, buffer) -> int:
        """Copy this batch's rows into a shared-memory buffer (IPC send).

        One vectorised structured-array assignment -- no ``tobytes``
        intermediate.  Returns the number of bytes written.
        """
        n = len(self._array)
        need = n * self.schema.record_size
        if len(buffer) < need:
            raise ValueError(
                f"shared buffer holds {len(buffer)} B, need {need} B")
        dest = np.frombuffer(buffer, dtype=self.schema.dtype, count=n)
        dest[:] = self._array
        return need

    def __reduce__(self):
        # Queue-fallback path: pickle as (schema, raw bytes).  The
        # contiguous copy keeps views (from_bytes / slices) picklable.
        return (_rebuild_batch,
                (self.schema, np.ascontiguousarray(self._array).tobytes(),
                 len(self._array)))

    # -- array access -----------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """The underlying structured array (may be a read-only view)."""
        return self._array

    def column(self, name: str) -> np.ndarray:
        """One field as a vector; a view, not a copy."""
        return self._array[name]

    @property
    def keys(self) -> np.ndarray:
        return self._array["key"]

    @property
    def values(self) -> np.ndarray:
        return self._array["value"]

    @property
    def timestamps(self) -> np.ndarray:
        return self._array["timestamp"]

    @property
    def weights(self) -> np.ndarray:
        if not self.schema.weighted:
            raise TypeError("schema is unweighted; batch holds no weights")
        return self._array["weight"]

    # -- whole-batch codec ------------------------------------------------

    def to_bytes(self) -> bytes:
        """One-call encode; byte-identical to the scalar codec."""
        return self.schema.encode_many(self._array)

    def to_records(self) -> list[Record] | list[WeightedRecord]:
        """Decode every row into record objects, as iteration does.

        One ``tolist()`` per column converts the numbers in C, so the
        only per-row Python work is building the record; checkpoint
        restore decodes whole ledgers through here.
        """
        array = self._array
        if "payload" in (array.dtype.names or ()):
            payloads = [p.rstrip(b"\x00") for p in array["payload"].tolist()]
        else:
            payloads = [b""] * len(array)
        records = [Record(key, value, timestamp, payload)
                   for key, value, timestamp, payload in zip(
                       array["key"].tolist(), array["value"].tolist(),
                       array["timestamp"].tolist(), payloads)]
        if self.schema.weighted:
            return [WeightedRecord(record, weight) for record, weight
                    in zip(records, array["weight"].tolist())]
        return records

    # -- copies and rearrangements ---------------------------------------

    def copy(self) -> "RecordBatch":
        """A writable deep copy (views from ``from_bytes`` are read-only)."""
        return RecordBatch(self.schema, self._array.copy())

    def take(self, indices) -> "RecordBatch":
        """Rows at ``indices`` as a new batch (fancy-index copy)."""
        return RecordBatch(self.schema, self._array[np.asarray(indices)])

    def shuffled(self, np_rng: np.random.Generator) -> "RecordBatch":
        """A uniformly permuted copy (the flush step's randomization)."""
        return RecordBatch(self.schema,
                           self._array[np_rng.permutation(len(self._array))])

    # -- list-compatible surface ------------------------------------------

    def __len__(self) -> int:
        return len(self._array)

    def __bool__(self) -> bool:
        return len(self._array) > 0

    def _decode_row(self, row) -> Record | WeightedRecord:
        payload = b""
        if "payload" in (self._array.dtype.names or ()):
            payload = bytes(row["payload"]).rstrip(b"\x00")
        record = Record(key=int(row["key"]), value=float(row["value"]),
                        timestamp=float(row["timestamp"]), payload=payload)
        if self.schema.weighted:
            return WeightedRecord(record=record, weight=float(row["weight"]))
        return record

    def __iter__(self) -> Iterator[Record | WeightedRecord]:
        decode = self._decode_row
        for row in self._array:
            yield decode(row)

    def _encode_row(self, record: Record, weight: float | None = None):
        # One scalar-codec pack; numpy unpacks the slot bytes into the
        # row, so row writes share the codec's pad/truncate contract.
        return np.frombuffer(self.schema.encode(record, weight),
                             dtype=self.schema.dtype)[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RecordBatch(self.schema, self._array[index])
        return self._decode_row(self._array[int(index)])

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            source = value._array if isinstance(value, RecordBatch) else value
            self._array[index] = source
            return
        if isinstance(value, WeightedRecord):
            self._array[int(index)] = self._encode_row(value.record,
                                                       value.weight)
            return
        self._array[int(index)] = self._encode_row(value)

    def __delitem__(self, index) -> None:
        """Tail deletion only: ``del batch[n - k:]`` truncates.

        That is the one deletion the ledger's pop-from-the-end eviction
        rule performs; anything else would need an O(n) compaction and
        is deliberately unsupported.
        """
        n = len(self._array)
        if not isinstance(index, slice):
            raise TypeError("RecordBatch only supports deleting a "
                            "tail slice")
        start, stop, step = index.indices(n)
        if step != 1 or stop != n:
            raise ValueError("RecordBatch only supports deleting a "
                             "tail slice (del batch[k:])")
        self._array = self._array[:start]

    def __repr__(self) -> str:
        return (f"RecordBatch({len(self._array)} x "
                f"{self.schema.record_size} B"
                f"{', weighted' if self.schema.weighted else ''})")


def _rebuild_batch(schema: RecordSchema, data: bytes,
                   n_records: int) -> RecordBatch:
    """Pickle target for :class:`RecordBatch` (writable on arrival)."""
    array = np.frombuffer(data, dtype=schema.dtype, count=n_records).copy()
    return RecordBatch(schema, array)
