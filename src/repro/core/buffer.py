"""The in-memory buffer of newly captured samples (Algorithm 2).

Between flushes, admitted records accumulate here.  Algorithm 2's key
subtlety (lines 6-8) is that a newly admitted record must evict a
uniformly random member of the *whole* current reservoir -- and with
probability ``count(B)/|R|`` that member is itself a buffered record
that has not reached disk yet.  In that case the replacement happens in
memory and the buffer count stays put; otherwise the new record joins
the buffer and one disk-resident record is doomed (which one is decided
collectively at flush time by Algorithm 3's randomized partitioning).

The buffer also supports the weighted variant: each slot can carry an
effective weight, and Section 7.3.2's overflow events scale every
buffered weight -- implemented with an epoch factor instead of an O(B)
sweep, exactly as in
:class:`~repro.sampling.biased_reservoir.BiasedReservoir`.

Storage comes in three modes:

* *object* (``retain_records=True``): a Python list of
  :class:`~repro.storage.records.Record`;
* *count-only* (``retain_records=False``): no storage at all;
* *columnar* (``schema=...``): a preallocated structured-array slab of
  ``capacity`` rows (:attr:`RecordSchema.dtype`).  Joins are row (or
  slice) writes into the slab, :meth:`drain` hands back one
  :class:`~repro.storage.recordbatch.RecordBatch`, and the batch entry
  points (:meth:`extend_batch` / :meth:`absorb_batch`) absorb whole
  column slices without materialising a single record object.  The
  admission law is shared with the object mode -- the same decision
  kernel runs against either storage -- so the two are
  distributionally identical (tested).  Columnar buffers are
  uniform-only; weighted sampling stays on the object path.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

import numpy as np

from ..storage.recordbatch import RecordBatch
from ..storage.records import Record, RecordSchema

_RENORMALIZE_ABOVE = 1e100


class SampleBuffer:
    """Fixed-capacity staging area for admitted records.

    Args:
        capacity: maximum records held (``|B|`` in the paper).
        rng: randomness for the in-buffer replacement draw.
        retain_records: keep the actual record objects.  Count-only
            mode (``False``) powers the large benchmark runs, where
            per-record Python objects would dominate the cost of the
            experiment without affecting any I/O behaviour.
        np_rng: numpy generator for the batched coin flips of
            :meth:`absorb_many`; derived deterministically from ``rng``
            when not supplied.
        schema: switch to columnar slab storage over this record
            schema (implies record retention; uniform-only).
        aux_width: float64 auxiliary columns carried per record for
            non-uniform sampling laws (keys, stream positions).  Aux
            rows ride :meth:`append` / :meth:`replace` in lock-step
            with the records and come back permuted identically by
            :meth:`drain` (via :meth:`take_aux`); the Algorithm 2
            replacement verbs are uniform-law-only and refuse an
            aux-carrying buffer.
    """

    def __init__(self, capacity: int, rng: random.Random,
                 *, retain_records: bool = True,
                 np_rng: np.random.Generator | None = None,
                 schema: RecordSchema | None = None,
                 aux_width: int = 0) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        if schema is not None and schema.weighted:
            raise ValueError("columnar buffers are uniform-only; weighted "
                             "sampling stays on the object path")
        if aux_width < 0:
            raise ValueError("aux_width cannot be negative")
        if aux_width and not (retain_records or schema is not None):
            raise ValueError("aux columns require record retention")
        self.capacity = capacity
        self._rng = rng
        self._np_rng = np_rng
        self._schema = schema
        self._slab: np.ndarray | None = (
            np.zeros(capacity, dtype=schema.dtype)
            if schema is not None else None
        )
        self._retain = retain_records or schema is not None
        self._records: list[Record] | None = (
            [] if self._retain and schema is None else None
        )
        self._weights: list[float] | None = None
        self._aux: np.ndarray | None = (
            np.zeros((capacity, aux_width)) if aux_width else None
        )
        self._drained_aux: np.ndarray | None = None
        self._count = 0
        self._scale = 1.0

    # -- observers --------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count >= self.capacity

    @property
    def retains_records(self) -> bool:
        return self._retain

    @property
    def columnar(self) -> bool:
        return self._slab is not None

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Record]:
        if self._slab is not None:
            return iter(RecordBatch(self._schema,
                                    self._slab[:self._count]))
        if self._records is None:
            raise TypeError("buffer is running in count-only mode")
        return iter(self._records)

    def pending_view(self) -> np.ndarray:
        """The live slab rows (columnar mode): a view, not a copy.

        The query path concatenates this straight into its combined
        array; callers must not hold the view across a mutation.
        """
        if self._slab is None:
            raise TypeError("buffer is not columnar")
        return self._slab[:self._count]

    def weights(self) -> list[float]:
        """Current effective weights (scaled), weighted buffers only."""
        if self._weights is None:
            raise TypeError("buffer holds no weights")
        return [w * self._scale for w in self._weights]

    @property
    def aux_width(self) -> int:
        return 0 if self._aux is None else self._aux.shape[1]

    def aux_view(self) -> np.ndarray:
        """The live aux rows: a view, not a copy (see pending_view)."""
        if self._aux is None:
            raise TypeError("buffer carries no aux columns")
        return self._aux[:self._count]

    # -- mutation ---------------------------------------------------------

    def append(self, record: Record | None, weight: float | None = None,
               *, aux=None) -> None:
        """Add one record unconditionally (start-up phase).

        While the reservoir is still filling nothing is ever evicted, so
        admitted records simply join the buffer; the in-buffer
        replacement branch only exists once the reservoir is full.

        ``aux`` is the record's auxiliary row when the buffer carries
        aux columns (non-uniform laws stage *every* admitted record
        through this verb, startup and steady alike).
        """
        if self.is_full:
            raise ValueError("buffer full; flush before appending more")
        if (aux is None) != (self._aux is None):
            raise TypeError("aux row and buffer aux_width must agree")
        if aux is not None:
            self._aux[self._count] = aux
        if self._slab is not None:
            if weight is not None:
                raise TypeError("columnar buffers are uniform-only")
            if record is None:
                raise ValueError("record-retaining buffer needs the record")
            self._slab[self._count] = self._encode_row(record)
            self._count += 1
            return
        if weight is not None and self._weights is None:
            if self._count > 0:
                raise ValueError("cannot switch to weighted mode mid-fill")
            self._weights = []
        if self._records is not None:
            if record is None:
                raise ValueError("record-retaining buffer needs the record")
            self._records.append(record)
        if self._weights is not None:
            if weight is None:
                raise ValueError("weighted buffer requires a weight")
            self._weights.append(weight / self._scale)
        self._count += 1

    def append_count(self, n: int) -> None:
        """Add ``n`` anonymous records (count-only fast path)."""
        if n < 0:
            raise ValueError("cannot append a negative count")
        if self._retain:
            raise TypeError("buffer retains records; use append instead")
        if self._count + n > self.capacity:
            raise ValueError("append_count would overfill the buffer")
        self._count += n

    def replace(self, slot: int, record: Record) -> None:
        """Overwrite a buffered record in place (with-replacement laws).

        The slot's identity changes but the buffer count does not --
        the overwritten record's deferred disk eviction (if any) now
        belongs to the new occupant.  Aux-carrying buffers refuse:
        their laws never overwrite staged candidates.
        """
        if not 0 <= slot < self._count:
            raise IndexError(f"slot {slot} outside the {self._count} "
                             "buffered records")
        if self._aux is not None:
            raise TypeError("aux-carrying buffers do not replace in place")
        if record is None:
            raise ValueError("record-retaining buffer needs the record")
        if self._slab is not None:
            self._slab[slot] = self._encode_row(record)
            return
        if self._records is None:
            raise TypeError("buffer is running in count-only mode")
        if self._weights is not None:
            raise TypeError("weighted buffers replace via add_admitted")
        self._records[slot] = record

    def add_admitted(self, record: Record | None, reservoir_size: int,
                     weight: float | None = None) -> bool:
        """Place one admitted record (Algorithm 2, lines 6-10).

        Args:
            record: the record, or ``None`` in count-only mode.
            reservoir_size: ``|R|``, the fixed reservoir capacity.
            weight: effective weight for weighted operation; the first
                weighted add switches the buffer into weighted mode.

        Returns:
            True if the record *joined* the buffer (deferring one disk
            eviction), False if it replaced an already-buffered record.

        Raises:
            ValueError: if called on a full buffer -- the caller must
                flush first, mirroring Algorithm 2's line 12 check.
        """
        if self.is_full:
            raise ValueError("buffer full; flush before admitting more")
        if self._aux is not None:
            raise TypeError("Algorithm 2 replacement is uniform-law-only; "
                            "aux-carrying buffers stage via append")
        if self._slab is not None:
            if weight is not None:
                raise TypeError("columnar buffers are uniform-only")
            if record is None:
                raise ValueError("record-retaining buffer needs the record")
            # Same two draws, same order, as the object path below.
            if (self._count > 0
                    and self._rng.random() * reservoir_size < self._count):
                self._slab[self._rng.randrange(self._count)] = (
                    self._encode_row(record))
                return False
            self._slab[self._count] = self._encode_row(record)
            self._count += 1
            return True
        if weight is not None and self._weights is None:
            if self._count > 0:
                raise ValueError("cannot switch to weighted mode mid-fill")
            self._weights = []
        # In-buffer replacement with probability count / |R|.
        if self._count > 0 and self._rng.random() * reservoir_size < self._count:
            slot = self._rng.randrange(self._count)
            if self._records is not None and record is not None:
                self._records[slot] = record
            if self._weights is not None:
                if weight is None:
                    raise ValueError("weighted buffer requires a weight")
                self._weights[slot] = weight / self._scale
            return False
        if self._records is not None:
            if record is None:
                raise ValueError("record-retaining buffer needs the record")
            self._records.append(record)
        if self._weights is not None:
            if weight is None:
                raise ValueError("weighted buffer requires a weight")
            self._weights.append(weight / self._scale)
        self._count += 1
        return True

    def extend(self, records: Sequence[Record | None]) -> None:
        """Batch :meth:`append` for the start-up phase.

        No eviction branch exists while the reservoir is filling, so a
        whole slice of admitted records joins in one list extension.
        Weighted buffers append per record (weights are per-record
        state).
        """
        n = len(records)
        if n == 0:
            return
        if self._count + n > self.capacity:
            raise ValueError("extend would overfill the buffer")
        if self._weights is not None:
            raise TypeError("weighted buffers append per record")
        if self._aux is not None:
            raise TypeError("aux-carrying buffers append per record")
        if self._slab is not None:
            raise TypeError("buffer is columnar; use extend_batch")
        if self._records is not None:
            if any(record is None for record in records):
                raise ValueError("record-retaining buffer needs the record")
            self._records.extend(records)
        self._count += n

    def extend_batch(self, batch: RecordBatch) -> None:
        """Columnar :meth:`extend`: one slab slice copy (start-up phase)."""
        if self._slab is None:
            raise TypeError("buffer is not columnar; use extend")
        if self._aux is not None:
            raise TypeError("aux-carrying buffers append per record")
        n = len(batch)
        if n == 0:
            return
        if self._count + n > self.capacity:
            raise ValueError("extend would overfill the buffer")
        self._slab[self._count:self._count + n] = batch.array
        self._count += n

    def absorb_many(self, records: Sequence[Record | None],
                    reservoir_size: int, *, start: int = 0) -> int:
        """Batch :meth:`add_admitted`: one vectorised coin-flip draw.

        Processes ``records[start:]`` until the buffer fills or the
        batch is exhausted, and returns how many records were consumed
        -- the caller flushes on ``is_full`` and re-enters with the
        remainder, mirroring Algorithm 2's per-record flush check.

        The in-buffer replacement probability ``count/|R|`` depends on
        the running join count, so the decisions are not i.i.d.; the
        batch draw exploits that the count assuming *all* prior records
        joined is an upper bound on the true count.  Records whose
        uniform exceeds even that bound are certain joins (the vast
        majority, since ``count/|R| <= B/N``); only the rare candidates
        below the bound are resolved sequentially.  Identical output
        distribution to a loop of :meth:`add_admitted` calls (tested).
        """
        if self.is_full:
            raise ValueError("buffer full; flush before admitting more")
        if self._weights is not None:
            raise TypeError("weighted buffers admit per record; "
                            "use add_admitted")
        if self._aux is not None:
            raise TypeError("Algorithm 2 replacement is uniform-law-only; "
                            "aux-carrying buffers stage via append")
        n = len(records)
        if not 0 <= start <= n:
            raise ValueError(f"start {start} outside the batch of {n}")
        consumed = 0
        while start + consumed < n and not self.is_full:
            room = self.capacity - self._count
            chunk = min(n - start - consumed, max(2 * room, 64))
            consumed += self._absorb_chunk(records, start + consumed,
                                           chunk, reservoir_size)
        return consumed

    def absorb_batch(self, batch: RecordBatch, reservoir_size: int,
                     *, start: int = 0) -> int:
        """Columnar :meth:`absorb_many`: joins land as slab slice copies.

        Runs the identical decision kernel (same RNG stream, same
        admission law), then applies the joins as one fancy-index copy
        from the batch's array per chunk instead of per-record
        appends.  Returns the records consumed, like
        :meth:`absorb_many`.
        """
        if self._slab is None:
            raise TypeError("buffer is not columnar; use absorb_many")
        if self._aux is not None:
            raise TypeError("Algorithm 2 replacement is uniform-law-only; "
                            "aux-carrying buffers stage via append")
        if self.is_full:
            raise ValueError("buffer full; flush before admitting more")
        n = len(batch)
        if not 0 <= start <= n:
            raise ValueError(f"start {start} outside the batch of {n}")
        array = batch.array
        consumed = 0
        while start + consumed < n and not self.is_full:
            room = self.capacity - self._count
            chunk = min(n - start - consumed, max(2 * room, 64))
            base = start + consumed
            took, count, replaces = self._absorb_decisions(
                chunk, reservoir_size)
            self._apply_absorb_array(array, base, took, replaces)
            self._count = count
            consumed += took
        return consumed

    def _absorb_chunk(self, records: Sequence[Record | None], base: int,
                      m: int, reservoir_size: int) -> int:
        consumed, count, replaces = self._absorb_decisions(m, reservoir_size)
        if self._slab is not None:
            self._apply_absorb_rows(records, base, consumed, replaces)
        elif self._records is not None:
            self._apply_absorb_list(records, base, consumed, replaces)
        self._count = count
        return consumed

    def _absorb_decisions(self, m: int, reservoir_size: int
                          ) -> tuple[int, int, list[tuple[int, int]]]:
        """The storage-independent half of a chunk absorb.

        Returns ``(consumed, count_after, replaces)`` where
        ``replaces`` lists confirmed in-buffer replacements as
        ``(batch index, buffer count at that moment)``; every other
        consumed index is a join.  Consumes exactly the RNG stream the
        original fused kernel did, so object and columnar storage see
        identical decisions for identical seeds.
        """
        if self._np_rng is None:
            self._np_rng = np.random.default_rng(self._rng.getrandbits(64))
        w = self._np_rng.random(m) * reservoir_size
        # Count upper bound at each index: every prior record joined.
        candidates = np.flatnonzero(w < self._count + np.arange(m))
        count = self._count
        cap = self.capacity
        #: Confirmed replacements as (batch index, count at that moment).
        replaces: list[tuple[int, int]] = []
        consumed = m
        prev = -1
        for j in candidates:
            j = int(j)
            gap = j - prev - 1  # certain joins between candidates
            if count + gap >= cap:
                consumed = prev + 1 + (cap - count)
                count = cap
                break
            count += gap
            if w[j] < count:
                replaces.append((j, count))
            else:
                count += 1
                if count >= cap:
                    consumed = j + 1
                    prev = j
                    break
            prev = j
        else:
            tail = m - prev - 1
            if count + tail >= cap:
                consumed = prev + 1 + (cap - count)
                count = cap
            else:
                count += tail
        return consumed, count, replaces

    def _apply_absorb_list(self, records: Sequence[Record | None],
                           base: int, consumed: int,
                           replaces: list[tuple[int, int]]) -> None:
        if any(records[base + j] is None for j in range(consumed)):
            raise ValueError("record-retaining buffer needs the record")
        recs = self._records
        position = 0
        for j, _count_at in replaces:
            recs.extend(records[base + position:base + j])
            position = j + 1
        recs.extend(records[base + position:base + consumed])
        # Replaying the replacements after the joins is equivalent
        # to interleaving: joins only append, and each replacement
        # slot draw uses the buffer size of its own moment.
        randrange = self._rng.randrange
        for j, count_at in replaces:
            recs[randrange(count_at)] = records[base + j]

    def _apply_absorb_rows(self, records: Sequence[Record | None],
                           base: int, consumed: int,
                           replaces: list[tuple[int, int]]) -> None:
        """Object-record application against the slab (the shim path)."""
        slab = self._slab
        encode = self._encode_row
        position = 0
        pos = self._count
        for j, _count_at in replaces:
            for i in range(position, j):
                record = records[base + i]
                if record is None:
                    raise ValueError(
                        "record-retaining buffer needs the record")
                slab[pos] = encode(record)
                pos += 1
            position = j + 1
        for i in range(position, consumed):
            record = records[base + i]
            if record is None:
                raise ValueError("record-retaining buffer needs the record")
            slab[pos] = encode(record)
            pos += 1
        randrange = self._rng.randrange
        for j, count_at in replaces:
            record = records[base + j]
            if record is None:
                raise ValueError("record-retaining buffer needs the record")
            slab[randrange(count_at)] = encode(record)

    def _apply_absorb_array(self, array: np.ndarray, base: int,
                            consumed: int,
                            replaces: list[tuple[int, int]]) -> None:
        """Columnar application: joins as one fancy-index slice copy."""
        slab = self._slab
        if not replaces:
            slab[self._count:self._count + consumed] = (
                array[base:base + consumed])
            return
        join_mask = np.ones(consumed, dtype=bool)
        for j, _count_at in replaces:
            join_mask[j] = False
        joins = base + np.flatnonzero(join_mask)
        slab[self._count:self._count + joins.shape[0]] = array[joins]
        randrange = self._rng.randrange
        for j, count_at in replaces:
            slab[randrange(count_at)] = array[base + j]

    def _encode_row(self, record: Record):
        # One scalar-codec pack per row keeps slab bytes identical to
        # what the object path would eventually encode.
        return np.frombuffer(self._schema.encode(record),
                             dtype=self._schema.dtype)[0]

    def scale_weights(self, factor: float) -> None:
        """Section 7.3.2 step (2): scale every buffered effective weight."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        if self._weights is None:
            raise TypeError("buffer holds no weights")
        self._scale *= factor
        if self._scale > _RENORMALIZE_ABOVE:
            self._weights = [w * self._scale for w in self._weights]
            self._scale = 1.0

    def drain(self) -> tuple[list[Record] | None, list[float] | None, int]:
        """Empty the buffer, returning (records, weights, count).

        Records come back *shuffled* -- the paper's flush step begins
        "first randomize the ordering of the sampled records in the
        buffer" (Section 4.3), and the ledger's pop-from-the-end
        eviction rule depends on it.

        Columnar buffers return a freshly-permuted
        :class:`~repro.storage.recordbatch.RecordBatch` (the slab is
        reused for the next fill) with ``weights`` always ``None``.

        Double-buffering contract (:mod:`repro.pipeline`): the return
        value never aliases live buffer storage -- the object path
        copies the record list, and the columnar path's permutation is
        a fancy-index *copy* of the slab, not a view.  The drained
        result is therefore a *sealed* buffer: the ingest thread keeps
        admitting into this (now empty) buffer while the background
        writer drains the sealed one, with no shared mutable state.
        """
        if self._slab is not None:
            count = self._count
            # Shuffle an index list through the *same* random.Random
            # the object path shuffles its record list with: both modes
            # consume identical RNG streams, so flush cadence and every
            # downstream draw stay bit-exact between them.
            order = list(range(count))
            self._rng.shuffle(order)
            index = np.asarray(order, dtype=np.intp)
            batch = RecordBatch(self._schema, self._slab[:count][index])
            if self._aux is not None:
                self._drained_aux = self._aux[:count][index]
            self._count = 0
            return batch, None, count
        count = self._count
        records = self._records
        weights = None
        if self._weights is not None:
            weights = [w * self._scale for w in self._weights]
        if records is not None:
            paired = (list(zip(records, weights)) if weights is not None
                      else None)
            if paired is not None:
                self._rng.shuffle(paired)
                records = [r for r, _ in paired]
                weights = [w for _, w in paired]
            elif self._aux is not None:
                # Index-order shuffle: Fisher-Yates over an index list
                # applies the same permutation (and consumes the same
                # RNG stream) as shuffling the record list directly,
                # and lets the aux rows ride along in lock-step.
                order = list(range(count))
                self._rng.shuffle(order)
                records = [records[i] for i in order]
                self._drained_aux = (
                    self._aux[:count][np.asarray(order, dtype=np.intp)])
            else:
                records = list(records)
                self._rng.shuffle(records)
        self._count = 0
        self._records = [] if self._retain else None
        self._weights = [] if self._weights is not None else None
        self._scale = 1.0
        return records, weights, count

    def restore_batch(self, batch: RecordBatch,
                      aux: np.ndarray | None = None) -> None:
        """Refill an empty slab buffer with saved rows (checkpoint
        restore): one slice copy of the rows and of their aux rows."""
        if self._slab is None:
            raise TypeError("buffer is not columnar; use append")
        if self._count:
            raise ValueError("restore_batch needs an empty buffer")
        if (aux is None) != (self._aux is None):
            raise TypeError("aux rows and buffer aux_width must agree")
        n = len(batch)
        if n > self.capacity:
            raise ValueError("restore_batch would overfill the buffer")
        self._slab[:n] = batch.array
        if aux is not None:
            self._aux[:n] = aux
        self._count = n

    def take_aux(self) -> np.ndarray | None:
        """Claim the aux rows of the last :meth:`drain` (one shot).

        Returns ``None`` for aux-free buffers; otherwise the aux rows
        permuted identically to the drained records.  Consumes no
        randomness either way, so uniform-law flush cadence is
        untouched by the aux machinery.
        """
        if self._aux is None:
            return None
        drained = self._drained_aux
        if drained is None:
            raise ValueError("no drained aux rows pending; call drain first")
        self._drained_aux = None
        return drained
