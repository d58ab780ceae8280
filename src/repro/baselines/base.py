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

from ..core.buffer import SampleBuffer
from ..pipeline import SCHEDULER_NAMES, FlushEngine, FlushPlan
from ..reservoir import AdmissionMode, StreamReservoir
from ..storage.device import BlockDevice, SimulatedBlockDevice, write_zeros
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
        retain_records: keep record payloads (tests / small runs).
        admission: see :class:`~repro.reservoir.StreamReservoir`.
        columnar: run the columnar record engine -- the new-sample
            buffer becomes a structured-array slab and retained state is
            held as :class:`~repro.storage.recordbatch.RecordBatch`
            slabs instead of record-object lists.  Implies
            ``retain_records``.  I/O charges are identical to the
            scalar path.
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
    columnar: bool = False
    pipeline: bool = False
    io_scheduler: str = "fifo"
    stream_rate: float | None = None

    def __post_init__(self) -> None:
        if self.columnar and not self.retain_records:
            object.__setattr__(self, "retain_records", True)
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


class BufferedDiskReservoir(StreamReservoir):
    """Base for alternatives that buffer new samples then flush in bulk.

    Subclasses implement:

    * :meth:`_finish_fill` -- called once, when the reservoir has just
      filled (record mode receives the full record list);
    * :meth:`_steady_flush` -- called per buffer flush with the drained
      (shuffled) records, or ``None`` with a count in count-only mode.
    """

    def __init__(self, device: BlockDevice, config: DiskReservoirConfig,
                 *, seed: int | None = 0) -> None:
        super().__init__(config.capacity, admission=config.admission,
                         seed=seed)
        self.device = device
        self.config = config
        self.schema = RecordSchema(config.record_size)
        if config.retain_records:
            self._payload_schema = self.schema
        self.buffer = SampleBuffer(config.buffer_capacity, self._rng,
                                   retain_records=config.retain_records,
                                   np_rng=self._np_rng,
                                   schema=(self.schema if config.columnar
                                           else None))
        self._engine = FlushEngine.for_config(device, config)
        self._fill_appender = SequentialAppender(device, self.schema)
        self._filled = 0
        self._fill_records: list[Record] | None = (
            [] if config.retain_records else None
        )
        self.flushes = 0
        self.chunk_floor = config.buffer_capacity

    # -- hooks ---------------------------------------------------------------

    def _finish_fill(
            self, records: list[Record] | RecordBatch | None) -> None:
        raise NotImplementedError

    def _steady_flush(self, records: list[Record] | RecordBatch | None,
                      count: int, plan: FlushPlan) -> None:
        """Record one steady-state flush's device ops into ``plan``.

        Called on the ingest thread; all RNG draws and in-memory record
        splicing must happen here.  The recorded plan executes inline
        (``pipeline=False``) or on the writer thread afterwards.
        """
        raise NotImplementedError

    def _flush_buffer(self, records: list[Record] | RecordBatch | None,
                      count: int) -> None:
        """Drive one drained buffer through plan build, submit, and emit."""
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
    def in_fill_phase(self) -> bool:
        return self._filled < self.capacity

    @property
    def columnar(self) -> bool:
        """True when the columnar record engine is active."""
        return self.config.columnar

    # -- StreamReservoir hooks ---------------------------------------------------

    def _admit(self, record: Record | None) -> None:
        if self.in_fill_phase:
            self._fill_one(record)
            return
        self.buffer.add_admitted(record, self.capacity)
        if self.buffer.is_full:
            records, _, count = self.buffer.drain()
            self._flush_buffer(records, count)

    def _admit_many(self, records: list[Record | None]) -> None:
        # Batch form of _admit: the fill-phase prefix goes out as one
        # sequential append, the rest through the buffer's vectorised
        # absorb, flushing at the same boundaries as the scalar loop.
        i = self._fill_from_batch(records)
        n = len(records)
        while i < n:
            i += self.buffer.absorb_many(records, self.capacity, start=i)
            if self.buffer.is_full:
                drained, _, count = self.buffer.drain()
                self._flush_buffer(drained, count)

    def _admit_batch(self, batch: RecordBatch) -> None:
        # Columnar twin of _admit_many: the fill-phase prefix is decoded
        # once (the fill happens exactly once per reservoir), the steady
        # suffix goes through the buffer's slab absorb.
        if not self.columnar:
            super()._admit_batch(batch)
            return
        i = 0
        n = len(batch)
        if self.in_fill_phase:
            take = min(n, self.capacity - self._filled)
            i = self._fill_from_batch(list(batch[:take]))
        while i < n:
            i += self.buffer.absorb_batch(batch, self.capacity, start=i)
            if self.buffer.is_full:
                drained, _, count = self.buffer.drain()
                self._flush_buffer(drained, count)

    def _admit_count(self, n: int) -> None:
        if self.in_fill_phase:
            take = min(n, self.capacity - self._filled)
            self._fill_appender.append(take)
            self._filled += take
            n -= take
            if not self.in_fill_phase:
                self._complete_fill()
        while n > 0:
            take = min(n, self.buffer.capacity - self.buffer.count)
            self.buffer.append_count(take)
            n -= take
            if self.buffer.is_full:
                _, __, count = self.buffer.drain()
                self._flush_buffer(None, count)

    # -- fill phase ----------------------------------------------------------------

    def _fill_one(self, record: Record | None) -> None:
        self._fill_appender.append(1)
        self._filled += 1
        if self._fill_records is not None:
            if record is None:
                raise ValueError("record-retaining mode needs the record")
            self._fill_records.append(record)
        if not self.in_fill_phase:
            self._complete_fill()

    def _fill_from_batch(self, records: list[Record | None]) -> int:
        """Consume a batch's fill-phase prefix; returns records taken."""
        if not self.in_fill_phase:
            return 0
        take = min(len(records), self.capacity - self._filled)
        self._fill_appender.append(take)
        self._filled += take
        if self._fill_records is not None:
            chunk = records[:take]
            if any(r is None for r in chunk):
                raise ValueError("record-retaining mode needs the record")
            self._fill_records.extend(chunk)
        if not self.in_fill_phase:
            self._complete_fill()
        return take

    def _complete_fill(self) -> None:
        self._fill_appender.finish()
        records = self._fill_records
        self._fill_records = None
        if records is not None and self.columnar:
            # The fill list physicalises as one slab; from here on the
            # steady state works purely on structured rows.
            records = RecordBatch.from_records(self.schema, records)
        self._finish_fill(records)
