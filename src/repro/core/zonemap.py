"""Zone-map indexing over a geometric file (paper Section 10).

"Another problem is efficient index maintenance for the geometric
file, so that samples with specific characteristics can be found
quickly" -- listed as future work.  This module implements the natural
first answer: *zone maps*.

The geometric file has a property that makes zone maps unusually cheap:
a subsample is immutable after creation except for deletions, and
deletions can only *narrow* a [min, max] envelope, never widen it.  So
one envelope per subsample (per indexed field), computed once at flush
time from the records already in memory, stays a valid over-
approximation for the subsample's whole life with zero maintenance
I/O.  A range query then touches only the subsamples whose envelope
intersects the predicate -- for time-correlated streams (the sensor
workload) that is a small suffix of the subsample list, because
subsample creation order *is* stream order.

Works on record-retaining files; :class:`ZoneMapStats` reports how many
subsamples the envelope check skipped, which the zone-map benchmark
turns into the headline speedup number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..storage.recordbatch import RecordBatch
from ..storage.records import Record
from .geometric_file import GeometricFile

FieldExtractor = Callable[[Record], float]

FIELDS: dict[str, FieldExtractor] = {
    "value": lambda r: r.value,
    "timestamp": lambda r: r.timestamp,
    "key": lambda r: float(r.key),
}


@dataclass
class _Envelope:
    low: float
    high: float

    def intersects(self, low: float, high: float) -> bool:
        return self.low <= high and low <= self.high


@dataclass
class ZoneMapStats:
    """Pruning effectiveness of the last query."""

    subsamples_total: int = 0
    subsamples_scanned: int = 0
    records_scanned: int = 0
    records_matched: int = 0

    @property
    def pruned_fraction(self) -> float:
        if self.subsamples_total == 0:
            return 0.0
        return 1.0 - self.subsamples_scanned / self.subsamples_total


class ZoneMapIndex:
    """Per-subsample [min, max] envelopes over one record field.

    Args:
        gf: a record-retaining geometric file.
        field: "value", "timestamp", or "key" -- or pass ``extractor``.
        extractor: custom field extractor (overrides ``field``).

    Call :meth:`refresh` after new flushes to index newly created
    subsamples (existing envelopes never need recomputation); or use
    :meth:`query` which refreshes automatically.
    """

    def __init__(self, gf: GeometricFile, field: str = "timestamp",
                 extractor: FieldExtractor | None = None) -> None:
        if not gf.config.retain_records:
            raise ValueError("zone maps need a record-retaining file")
        #: Structured-array column name, when the indexed field is one
        #: (enables the columnar fast paths); ``None`` for a custom
        #: extractor, which must see decoded records.
        self._field: str | None = None
        if extractor is None:
            if field not in FIELDS:
                raise ValueError(
                    f"unknown field {field!r}; expected one of "
                    f"{sorted(FIELDS)} or a custom extractor"
                )
            self._field = field
            extractor = FIELDS[field]
        self._gf = gf
        self._extract = extractor
        self._envelopes: dict[int, _Envelope] = {}
        self._last_stats = ZoneMapStats()
        self._obs_name = "zone map"
        self._registry = None
        self._trace = None
        self._query_counter = None
        self.refresh()

    # -- observability ------------------------------------------------------

    def stats(self) -> ZoneMapStats:
        """Pruning statistics of the most recent :meth:`query`."""
        return self._last_stats

    def instrument(self, registry, trace=None, *, name: str = "zone map") -> None:
        """Attach observers; each completed query emits ``zone_query``.

        Args:
            registry: a :class:`repro.obs.MetricsRegistry`.
            trace: optional :class:`repro.obs.TraceSink`.
            name: value of the ``structure`` label / trace source.
        """
        self._obs_name = name
        self._registry = registry
        self._trace = trace
        self._query_counter = registry.counter("events.zone_query",
                                               structure=name)

    def _emit_query(self, stats: ZoneMapStats) -> None:
        if self._query_counter is not None:
            self._query_counter.inc()
        if self._trace is not None:
            self._trace.emit(
                "zone_query", self._obs_name, self._gf._clock(),
                subsamples_total=stats.subsamples_total,
                subsamples_scanned=stats.subsamples_scanned,
                records_scanned=stats.records_scanned,
                records_matched=stats.records_matched,
            )

    def refresh(self) -> None:
        """Index subsamples created since the last refresh."""
        alive = set()
        for ledger in self._gf.subsamples:
            alive.add(ledger.ident)
            if ledger.ident in self._envelopes or not ledger.records:
                continue
            column = self._column_of(ledger.records)
            if column is not None:
                # Columnar slab + named field: the envelope is one
                # vectorised min/max over the value column.
                self._envelopes[ledger.ident] = _Envelope(
                    float(column.min()), float(column.max())
                )
                continue
            values = [self._extract(r) for r in ledger.records]
            self._envelopes[ledger.ident] = _Envelope(min(values),
                                                      max(values))
        for ident in list(self._envelopes):
            if ident not in alive:
                del self._envelopes[ident]

    def _column_of(self, records) -> np.ndarray | None:
        """The indexed column of a RecordBatch, or None for lists /
        custom extractors."""
        if self._field is None:
            return None
        array = getattr(records, "array", None)
        if array is None:
            return None
        return array[self._field]

    def query(self, low: float, high: float) -> Iterator[Record]:
        """Records with the indexed field in ``[low, high]``.

        Only scans subsamples whose envelope intersects the range;
        :meth:`stats` reports the pruning achieved.  The buffer's
        pending records are always scanned (they have no envelope yet).

        Note on snapshot semantics: between flushes the query sees the
        disk residents *and* the pending buffer, without applying the
        buffer's deferred disk evictions -- a superset of a strict
        snapshot sample by at most ``buffer.count`` records.  Queries
        needing the exact fixed-size sample should use
        :meth:`~repro.core.geometric_file.GeometricFile.sample` and
        filter it.
        """
        if high < low:
            raise ValueError("need low <= high")
        self.refresh()
        stats = ZoneMapStats()
        self._last_stats = stats
        for ledger in self._gf.subsamples:
            stats.subsamples_total += 1
            envelope = self._envelopes.get(ledger.ident)
            if envelope is None or not envelope.intersects(low, high):
                continue
            stats.subsamples_scanned += 1
            for record in ledger.records or ():
                stats.records_scanned += 1
                value = self._extract(record)
                if low <= value <= high:
                    stats.records_matched += 1
                    yield record
        if self._gf.buffer.retains_records:
            for record in self._gf.buffer:
                stats.records_scanned += 1
                value = self._extract(record)
                if low <= value <= high:
                    stats.records_matched += 1
                    yield record
        self._emit_query(stats)

    def query_batch(self, low: float, high: float) -> RecordBatch:
        """Columnar :meth:`query`: one :class:`RecordBatch` of matches.

        Envelope pruning, snapshot semantics, and the
        :class:`ZoneMapStats` accounting are identical to
        :meth:`query`; the per-record extractor loop is replaced by a
        vectorised compare-and-compress per scanned subsample.
        Requires a columnar file and a named (non-extractor) field.
        """
        gf = self._gf
        if not getattr(gf, "columnar", False):
            raise TypeError("query_batch needs a columnar geometric file")
        if self._field is None:
            raise TypeError(
                "query_batch needs a named field; custom extractors "
                "must see decoded records -- use query()"
            )
        if high < low:
            raise ValueError("need low <= high")
        self.refresh()
        stats = ZoneMapStats()
        self._last_stats = stats
        parts: list[np.ndarray] = []
        for ledger in gf.subsamples:
            stats.subsamples_total += 1
            envelope = self._envelopes.get(ledger.ident)
            if envelope is None or not envelope.intersects(low, high):
                continue
            stats.subsamples_scanned += 1
            array = ledger.records.array
            stats.records_scanned += len(array)
            column = array[self._field]
            mask = (column >= low) & (column <= high)
            matched = int(mask.sum())
            stats.records_matched += matched
            if matched:
                parts.append(array[mask])
        pending = gf.buffer.pending_view()
        if len(pending):
            stats.records_scanned += len(pending)
            column = pending[self._field]
            mask = (column >= low) & (column <= high)
            matched = int(mask.sum())
            stats.records_matched += matched
            if matched:
                parts.append(pending[mask])
        result = (np.concatenate(parts) if parts
                  else np.empty(0, dtype=gf.schema.dtype))
        self._emit_query(stats)
        return RecordBatch(gf.schema, result)
