"""The in-memory buffer of newly captured samples (Algorithm 2).

Between flushes, admitted records accumulate here.  Algorithm 2's key
subtlety (lines 6-8) is that a newly admitted record must evict a
uniformly random member of the *whole* current reservoir -- and with
probability ``count(B)/|R|`` that member is itself a buffered record
that has not reached disk yet.  In that case the replacement happens in
memory and the buffer count stays put; otherwise the new record joins
the buffer and one disk-resident record is doomed (which one is decided
collectively at flush time by Algorithm 3's randomized partitioning).

Storage comes in two modes:

* *slab* (``schema=...``): a preallocated structured-array slab of
  ``capacity`` rows (:attr:`RecordSchema.dtype`).  Joins are row (or
  slice) writes into the slab, :meth:`drain` hands back one
  :class:`~repro.storage.recordbatch.RecordBatch`, and the batch entry
  points (:meth:`extend_batch` / :meth:`absorb_batch`) absorb whole
  column slices without materialising a single record object.  A
  per-record float the structure keeps (a sampling law's key, the
  biased file's effective weight) rides an aux column beside the row;
* *count-only* (no schema): no storage at all, only the count and the
  admission draws -- the paper-scale benchmark mode.
"""

from __future__ import annotations

import random
from typing import Iterator

import numpy as np

from ..reservoir import bulk_generator
from ..storage.recordbatch import RecordBatch
from ..storage.records import Record, RecordSchema


class SampleBuffer:
    """Fixed-capacity staging area for admitted records.

    Args:
        capacity: maximum records held (``|B|`` in the paper).
        rng: randomness for the in-buffer replacement draw.
        np_rng: numpy generator for the batched coin flips of
            :meth:`absorb_batch`; derived deterministically from ``rng``
            when not supplied.
        schema: keep records in a slab of this record schema; ``None``
            runs count-only, which powers the large benchmark runs,
            where per-record state would dominate the cost of the
            experiment without affecting any I/O behaviour.
        aux_width: float64 auxiliary columns carried per record (a
            sampling law's keys and stream positions, the biased file's
            effective weight).  Aux rows ride :meth:`append` /
            :meth:`add_admitted` in lock-step with the records and come
            back permuted identically by :meth:`drain` (via
            :meth:`take_aux`).
    """

    def __init__(self, capacity: int, rng: random.Random,
                 *, np_rng: np.random.Generator | None = None,
                 schema: RecordSchema | None = None,
                 aux_width: int = 0) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        if aux_width < 0:
            raise ValueError("aux_width cannot be negative")
        if aux_width and schema is None:
            raise ValueError("aux columns require record retention")
        self.capacity = capacity
        self._rng = rng
        self._np_rng = np_rng
        self._schema = schema
        self._slab: np.ndarray | None = (
            np.zeros(capacity, dtype=schema.dtype)
            if schema is not None else None
        )
        self._aux: np.ndarray | None = (
            np.zeros((capacity, aux_width)) if aux_width else None
        )
        self._drained_aux: np.ndarray | None = None
        self._count = 0

    # -- observers --------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count >= self.capacity

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Record]:
        return iter(RecordBatch(self._schema, self.pending_view()))

    def pending_view(self) -> np.ndarray:
        """The live slab rows: a view, not a copy.

        The query path concatenates this straight into its combined
        array; callers must not hold the view across a mutation.
        """
        if self._slab is None:
            raise TypeError("buffer is running in count-only mode")
        return self._slab[:self._count]

    @property
    def aux_width(self) -> int:
        return 0 if self._aux is None else self._aux.shape[1]

    def aux_view(self) -> np.ndarray:
        """The live aux rows: a view, not a copy (see pending_view)."""
        if self._aux is None:
            raise TypeError("buffer carries no aux columns")
        return self._aux[:self._count]

    # -- mutation ---------------------------------------------------------

    def append(self, record: Record | None, *, aux=None) -> None:
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
        self._check_aux(aux)
        self._write(self._count, record, aux)
        self._count += 1

    def append_count(self, n: int) -> None:
        """Add ``n`` anonymous records (count-only fast path)."""
        if n < 0:
            raise ValueError("cannot append a negative count")
        if self._slab is not None:
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
        if self._slab is None:
            raise TypeError("buffer is running in count-only mode")
        self._write(slot, record, None)

    def add_admitted(self, record: Record | None, reservoir_size: int,
                     *, aux=None) -> bool:
        """Place one admitted record (Algorithm 2, lines 6-10).

        Args:
            record: the record, or ``None`` in count-only mode.
            reservoir_size: ``|R|``, the fixed reservoir capacity.
            aux: the record's aux row, when the buffer carries aux
                columns; an in-buffer replacement overwrites the
                replaced slot's aux row too.

        Returns:
            True if the record *joined* the buffer (deferring one disk
            eviction), False if it replaced an already-buffered record.

        Raises:
            ValueError: if called on a full buffer -- the caller must
                flush first, mirroring Algorithm 2's line 12 check.
        """
        if self.is_full:
            raise ValueError("buffer full; flush before admitting more")
        self._check_aux(aux)
        if self._slab is not None and record is None:
            raise ValueError("record-retaining buffer needs the record")
        # In-buffer replacement with probability count / |R|.
        if (self._count > 0
                and self._rng.random() * reservoir_size < self._count):
            slot = self._rng.randrange(self._count)
            joined = False
        else:
            slot = self._count
            joined = True
        self._write(slot, record, aux)
        self._count += joined
        return joined

    def extend_batch(self, batch: RecordBatch) -> None:
        """Batch :meth:`append`: one slab slice copy (start-up phase)."""
        if self._slab is None:
            raise TypeError("buffer is running in count-only mode")
        if self._aux is not None:
            raise TypeError("aux-carrying buffers append per record")
        n = len(batch)
        if n == 0:
            return
        if self._count + n > self.capacity:
            raise ValueError("extend would overfill the buffer")
        self._slab[self._count:self._count + n] = batch.array
        self._count += n

    def absorb_batch(self, batch: RecordBatch, reservoir_size: int,
                     *, start: int = 0) -> int:
        """Batch :meth:`add_admitted`: one vectorised coin-flip draw.

        Processes ``batch[start:]`` until the buffer fills or the batch
        is exhausted, and returns how many records were consumed -- the
        caller flushes on ``is_full`` and re-enters with the remainder,
        mirroring Algorithm 2's per-record flush check.  Joins land as
        one slab slice copy per chunk.

        The in-buffer replacement probability ``count/|R|`` depends on
        the running join count, so the decisions are not i.i.d.; the
        batch draw exploits that the count assuming *all* prior records
        joined is an upper bound on the true count.  Records whose
        uniform exceeds even that bound are certain joins (the vast
        majority, since ``count/|R| <= B/N``); only the rare candidates
        below the bound are resolved sequentially.  Identical output
        distribution to a loop of :meth:`add_admitted` calls (tested).
        """
        if self._slab is None:
            raise TypeError("buffer is running in count-only mode")
        return self._absorb(len(batch), reservoir_size, batch.array, start)

    def absorb_count(self, n: int, reservoir_size: int) -> int:
        """Count-only :meth:`absorb_batch`: the same decision kernel over
        ``n`` anonymous records, returning how many it consumed."""
        if self._slab is not None:
            raise TypeError("buffer retains records; use absorb_batch")
        return self._absorb(n, reservoir_size, None, 0)

    def _absorb(self, n: int, reservoir_size: int,
                array: np.ndarray | None, start: int) -> int:
        if self._aux is not None:
            raise TypeError("aux-carrying buffers admit per record")
        if self.is_full:
            raise ValueError("buffer full; flush before admitting more")
        if not 0 <= start <= n:
            raise ValueError(f"start {start} outside the batch of {n}")
        consumed = 0
        while start + consumed < n and not self.is_full:
            room = self.capacity - self._count
            chunk = min(n - start - consumed, max(2 * room, 64))
            took, count, replaces = self._absorb_decisions(
                chunk, reservoir_size)
            if array is not None:
                self._apply_absorb(array, start + consumed, took, replaces)
            self._count = count
            consumed += took
        return consumed

    def _absorb_decisions(self, m: int, reservoir_size: int
                          ) -> tuple[int, int, list[tuple[int, int]]]:
        """The storage-independent half of a chunk absorb.

        Returns ``(consumed, count_after, replaces)`` where
        ``replaces`` lists confirmed in-buffer replacements as
        ``(batch index, buffer count at that moment)``; every other
        consumed index is a join.
        """
        if self._np_rng is None:
            self._np_rng = bulk_generator(self._rng)
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

    def _apply_absorb(self, array: np.ndarray, base: int, consumed: int,
                      replaces: list[tuple[int, int]]) -> None:
        """Joins as one fancy-index slice copy, then the replacements.

        Replaying the replacements after the joins is equivalent to
        interleaving: joins only append, and each replacement slot draw
        uses the buffer size of its own moment.
        """
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

    def _check_aux(self, aux) -> None:
        if (aux is None) != (self._aux is None):
            raise TypeError("aux row and buffer aux_width must agree")

    def _write(self, slot: int, record: Record | None, aux) -> None:
        """Store ``record`` (and its aux row) in ``slot``; count-only
        buffers store nothing."""
        if self._slab is None:
            return
        if record is None:
            raise ValueError("record-retaining buffer needs the record")
        # One scalar-codec pack per row keeps slab bytes identical to
        # what a whole-batch encode of the same records produces.
        self._slab[slot] = np.frombuffer(self._schema.encode(record),
                                         dtype=self._schema.dtype)[0]
        if aux is not None:
            self._aux[slot] = aux

    def drain(self) -> tuple[RecordBatch | None, int]:
        """Empty the buffer, returning ``(records, count)``.

        Records come back *shuffled* -- the paper's flush step begins
        "first randomize the ordering of the sampled records in the
        buffer" (Section 4.3), and the ledger's pop-from-the-end
        eviction rule depends on it -- as a freshly permuted
        :class:`~repro.storage.recordbatch.RecordBatch`; the aux rows,
        permuted identically, wait for :meth:`take_aux`.  The
        permutation is one numpy ``permutation(count)`` seeded by one
        64-bit word of the ``random.Random``
        (:func:`~repro.reservoir.bulk_generator`).  A count-only buffer
        returns ``(None, count)`` and draws nothing.

        Double-buffering contract (:mod:`repro.pipeline`): the return
        value never aliases live buffer storage -- the permutation is a
        fancy-index *copy* of the slab, not a view.  The drained result
        is therefore a *sealed* buffer: the ingest thread keeps
        admitting into this (now empty) buffer while the background
        writer drains the sealed one, with no shared mutable state.
        """
        count = self._count
        self._count = 0
        if self._slab is None:
            return None, count
        index = bulk_generator(self._rng).permutation(count)
        batch = RecordBatch(self._schema, self._slab[:count][index])
        if self._aux is not None:
            self._drained_aux = self._aux[:count][index]
        return batch, count

    def restore_batch(self, batch: RecordBatch,
                      aux: np.ndarray | None = None) -> None:
        """Refill an empty slab buffer with saved rows (checkpoint
        restore): one slice copy of the rows and of their aux rows."""
        if self._slab is None:
            raise TypeError("buffer is running in count-only mode")
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
