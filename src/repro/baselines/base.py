"""Shared plumbing for the Section 3 baseline alternatives.

All three baselines (and the geometric file) share the same outer loop:
an initial *fill* phase that streams the first ``N`` admitted records
"more or less directly to disk" (Section 8's observation that every
option writes the first 50 GB at sequential speed), followed by a
steady state in which new admissions displace old residents.  The scan
and localized-overwrite baselines additionally share the geometric
file's in-memory buffer of new samples (Algorithm 2).

:class:`DiskReservoirConfig` carries the sizing every baseline needs;
:class:`BufferedDiskReservoir` implements the fill phase, buffer
management, and count-only fast path once, leaving each baseline a
single ``_steady_flush`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.buffer import SampleBuffer
from ..pipeline import SCHEDULER_NAMES, FlushEngine, FlushPlan
from ..reservoir import AdmissionMode, StreamReservoir
from ..storage.device import BlockDevice, write_zeros
from ..storage.recordbatch import RecordBatch
from ..storage.records import Record, RecordSchema


@dataclass(frozen=True)
class DiskReservoirConfig:
    """Sizing shared by the baseline reservoir maintainers.

    Attributes:
        capacity: reservoir size ``N`` in records.
        buffer_capacity: new-sample buffer ``B`` in records (unused by
            the virtual-memory baseline, which spends all its memory on
            the LRU pool instead).
        record_size: bytes per record.
        pool_blocks: LRU buffer-pool capacity in blocks (the paper's
            100 MB read/write cache).
        retain_records: keep record payloads (tests / small runs), as
            :class:`~repro.storage.recordbatch.RecordBatch` slabs: the
            new-sample buffer is a structured-array slab and so is
            every resident set.  I/O charges are identical either way.
        admission: see :class:`~repro.reservoir.StreamReservoir`.
        pipeline: run steady-state flushes on a background writer
            thread; see
            :class:`~repro.core.geometric_file.GeometricFileConfig`.
        io_scheduler: ``"fifo"`` (recorded order) or ``"elevator"``
            (address-sorted, coalesced bursts); see :mod:`repro.pipeline`.
        stream_rate: records/second the ingest side produces, for the
            simulated overlap timeline; ``None`` = instantaneous.
    """

    capacity: int
    buffer_capacity: int
    record_size: int = 100
    pool_blocks: int = 64
    retain_records: bool = False
    admission: AdmissionMode = "always"
    pipeline: bool = False
    io_scheduler: str = "fifo"
    stream_rate: float | None = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if self.buffer_capacity < 1:
            raise ValueError("buffer must hold at least one record")
        if self.buffer_capacity >= self.capacity:
            raise ValueError("buffer must be smaller than the reservoir")
        if self.record_size < 1:
            raise ValueError("record_size must be positive")
        if self.pool_blocks < 1:
            raise ValueError("pool needs at least one block")
        if self.io_scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown io_scheduler {self.io_scheduler!r}; expected "
                f"one of {SCHEDULER_NAMES}"
            )
        if self.stream_rate is not None and self.stream_rate <= 0:
            raise ValueError("stream_rate must be positive")


class SequentialAppender:
    """Charges sequential block writes for a stream of appended records.

    Used by the fill phase: records are packed into blocks and written
    in large sequential bursts, so the simulated disk sees exactly the
    append pattern a real implementation would produce.  Only whole
    blocks are charged as they complete; the final partial block is
    flushed by :meth:`finish`.
    """

    def __init__(self, device: BlockDevice, schema: RecordSchema,
                 first_block: int = 0, *, burst_blocks: int = 256) -> None:
        self.device = device
        self.schema = schema
        self.records_per_block = schema.records_per_block(device.block_size)
        self._next_block = first_block
        self._partial = 0  # records in the currently-filling block
        self._burst = burst_blocks

    @property
    def next_block(self) -> int:
        return self._next_block

    def append(self, n_records: int) -> None:
        """Account for ``n_records`` more records appended."""
        if n_records < 0:
            raise ValueError("cannot append a negative count")
        total = self._partial + n_records
        whole_blocks = total // self.records_per_block
        self._partial = total % self.records_per_block
        if whole_blocks > 0:
            write_zeros(self.device, self._next_block, whole_blocks)
            self._next_block += whole_blocks

    def finish(self) -> None:
        """Flush the trailing partial block, if any."""
        if self._partial > 0:
            write_zeros(self.device, self._next_block, 1)
            self._next_block += 1
            self._partial = 0


@dataclass
class Cohort:
    """Resident records written together, as a read sees them: the fill,
    or one local-overwrite flush.  ``records`` is their slab (``None``
    when count-only), in random order, ``live`` long."""

    live: int
    region_block: int = 0
    records: RecordBatch | None = None


class BufferedDiskReservoir(StreamReservoir):
    """Base for alternatives that buffer new samples then flush in bulk.

    Subclasses implement:

    * :meth:`_finish_fill` -- called once, when the reservoir has just
      filled (with the fill's slab when record-keeping, else ``None``);
    * :meth:`_steady_flush` -- called per buffer flush with the drained
      (shuffled) slab, or ``None`` with a count in count-only mode.

    Reads are the geometric file's (:meth:`StreamReservoir.sample_batch`):
    while the reservoir fills they see the fill so far, afterwards the
    subclass's resident :attr:`_cohorts` with each pending buffered row
    displacing a uniform resident.
    """

    def __init__(self, device: BlockDevice, config: DiskReservoirConfig,
                 *, seed: int | None = 0) -> None:
        super().__init__(config.capacity, admission=config.admission,
                         seed=seed)
        self.device = device
        self.config = config
        self.schema = RecordSchema(config.record_size)
        retain = config.retain_records
        if retain:
            self._payload_schema = self.schema
        self.buffer = SampleBuffer(config.buffer_capacity, self._rng,
                                   np_rng=self._np_rng,
                                   schema=self.schema if retain else None)
        self._engine = FlushEngine.for_config(device, config)
        self._fill_appender = SequentialAppender(device, self.schema)
        self._filled = 0
        #: The fill's rows, written in place until the reservoir fills.
        self._fill: RecordBatch | None = (
            RecordBatch.empty(self.schema, config.capacity)
            if retain else None)
        #: The resident records once filled, for reads (set by
        #: :meth:`_finish_fill`).
        self._cohorts: list[Cohort] = []
        self.flushes = 0
        self.chunk_floor = config.buffer_capacity

    # -- hooks ---------------------------------------------------------------

    def _finish_fill(self, records: RecordBatch | None) -> None:
        raise NotImplementedError

    def _steady_flush(self, records: RecordBatch | None,
                      count: int, plan: FlushPlan) -> None:
        """Record one steady-state flush's device ops into ``plan``.

        Called on the ingest thread; all RNG draws and in-memory record
        splicing must happen here.  The recorded plan executes inline
        (``pipeline=False``) or on the writer thread afterwards.
        """
        raise NotImplementedError

    def _flush_buffer(self) -> None:
        """Drain the buffer and drive it through plan build, submit,
        and emit."""
        records, count = self.buffer.drain()
        plan = FlushPlan()
        self._steady_flush(records, count, plan)
        self._submit_plan(plan, count)
        self.flushes += 1
        self._emit("flush", index=self.flushes, records=count,
                   phase="steady")

    # -- observers -------------------------------------------------------------

    def _clock(self) -> float:
        # Duck-typed: any cost-modelled device (simulated, striped)
        # exposes a simulated clock; byte-only backends do not.
        return getattr(self.device, "clock", 0.0)

    @property
    def in_startup(self) -> bool:
        """True until the reservoir has filled."""
        return self._filled < self.capacity

    def iter_ledgers(self):
        """The resident records a read gathers from (law hook)."""
        if self.in_startup:
            fill = (None if self._fill is None
                    else self._fill[:self._filled])
            return iter((Cohort(self._filled, records=fill),))
        return iter(self._cohorts)

    # -- StreamReservoir hooks ---------------------------------------------------

    def _admit(self, record: Record | None) -> None:
        if self.in_startup:
            self._fill_one(record)
            return
        self.buffer.add_admitted(record, self.capacity)
        if self.buffer.is_full:
            self._flush_buffer()

    def _admit_many(self, records: list[Record | None]) -> None:
        # A record list reaches the slabs encoded once.
        if not self.config.retain_records:
            self._admit_anonymous(len(records))
            return
        if any(record is None for record in records):
            raise ValueError("record-retaining mode needs the record")
        self._admit_batch(RecordBatch.from_records(self.schema, records))

    def _admit_batch(self, batch: RecordBatch) -> None:
        # Batch form of _admit: the fill-phase prefix goes out as one
        # sequential append, the rest through the buffer's vectorised
        # absorb, flushing at the same boundaries as the scalar loop.
        if not self.config.retain_records:
            self._admit_anonymous(len(batch))
            return
        n = len(batch)
        i = self._fill_rows(n, batch.array)
        while i < n:
            i += self.buffer.absorb_batch(batch, self.capacity, start=i)
            if self.buffer.is_full:
                self._flush_buffer()

    def _admit_anonymous(self, n: int) -> None:
        """Count-only :meth:`_admit_batch`: the same draws, no rows."""
        i = self._fill_rows(n)
        while i < n:
            i += self.buffer.absorb_count(n - i, self.capacity)
            if self.buffer.is_full:
                self._flush_buffer()

    def _admit_count(self, n: int) -> None:
        n -= self._fill_rows(n)
        while n > 0:
            take = min(n, self.buffer.capacity - self.buffer.count)
            self.buffer.append_count(take)
            n -= take
            if self.buffer.is_full:
                self._flush_buffer()

    # -- fill phase ----------------------------------------------------------------

    def _fill_one(self, record: Record | None) -> None:
        self._fill_appender.append(1)
        if self._fill is not None:
            if record is None:
                raise ValueError("record-retaining mode needs the record")
            self._fill[self._filled] = record
        self._filled += 1
        if not self.in_startup:
            self._complete_fill()

    def _fill_rows(self, n: int, rows: np.ndarray | None = None) -> int:
        """Consume the fill-phase prefix of ``n`` admitted records
        (``rows`` holds their slab rows when record-keeping); returns
        how many it took."""
        if not self.in_startup:
            return 0
        if self._fill is not None and rows is None:
            raise TypeError("reservoir retains records; use offer()")
        take = min(n, self.capacity - self._filled)
        self._fill_appender.append(take)
        if self._fill is not None:
            self._fill.array[self._filled:self._filled + take] = rows[:take]
        self._filled += take
        if not self.in_startup:
            self._complete_fill()
        return take

    def _complete_fill(self) -> None:
        self._fill_appender.finish()
        fill, self._fill = self._fill, None
        self._finish_fill(fill)
