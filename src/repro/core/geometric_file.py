"""The geometric file (paper Sections 4 and 5).

A single geometric file maintains a disk-resident reservoir of ``N``
records fed by buffer flushes of ``B`` records each.  Lemma 1 fixes the
decay rate at ``alpha = 1 - B/N``; each flush's records are partitioned
into a ladder of segments sized ``n, n*alpha, n*alpha**2, ...``
(``n = B*(1-alpha)``) plus an in-memory tail of about ``beta`` records,
and those segments overwrite the largest remaining segment of every
existing subsample.  All data I/O is sequential segment writes; random
head movements are limited to one-ish per segment plus stack
maintenance -- the property the whole paper is about.

Layout (Figure 2): level-``l`` slots live together in one extent
("all segment l's"), each level holding ``l + 2`` slots (``l + 1``
occupied in steady state plus one slack slot that simplifies the
start-up / steady-state hand-over).  Stack regions of
``stack_multiplier * sqrt(B)`` records (Section 4.5.1) are pre-allocated
and assigned to disk-holding subsamples round-robin.

Correctness model: victim counts per flush are a multivariate
hypergeometric draw over subsample sizes -- Algorithm 3's randomized
partitioning -- and evictions within a subsample pop from a pre-shuffled
record list, which is uniform by exchangeability.  See DESIGN.md design
decisions 1-3 for why this is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..pipeline import SCHEDULER_NAMES, FlushEngine, FlushPlan
from ..reservoir import (
    AdmissionMode,
    StreamReservoir,
    VictimScratch,
    draw_victim_counts_array,
)
from ..sampling.laws import LAW_NAMES, make_law
from ..storage.device import BlockDevice, device_stores_bytes
from ..storage.extents import Extent, ExtentAllocator
from ..storage.recordbatch import RecordBatch
from ..storage.records import Record, RecordSchema
from .buffer import SampleBuffer
from .geometry import SegmentLadder, alpha_for, build_ladder, startup_fill_sizes
from .subsample import SubsampleLedger


@dataclass(frozen=True)
class GeometricFileConfig:
    """Sizing knobs for a geometric file.

    Attributes:
        capacity: reservoir size ``N`` in records.
        buffer_capacity: new-sample buffer size ``B`` in records.
        record_size: bytes per record (50 B / 1 KB in the experiments).
        beta_records: in-memory tail group size per subsample; defaults
            to one device block's worth of records, the paper's choice
            ("we will fix beta to hold a set of samples equivalent to
            the system block size", Section 5.2).
        stack_multiplier: stack region size as a multiple of
            ``sqrt(B)``; the paper picks 3 for a ~1e-9 overflow chance.
        retain_records: keep actual record payloads in memory ledgers
            (tests / small runs).  The buffer is then a structured-array
            slab and every ledger a
            :class:`~repro.storage.recordbatch.RecordBatch`; flushes
            encode whole segments in one call (real bytes on
            byte-storing devices) and reads gather rows, so records
            exist as objects only at the API edge.  Count-only mode
            powers paper-scale benchmarks.
        admission: see :class:`~repro.reservoir.StreamReservoir`.
        extra_seeks_per_segment: additional random head movements
            charged per segment write, covering unaligned-boundary
            read-modify-write and the far side of stack adjustments.
            The default of 2 lands the total at the paper's "around
            four disk seeks to write" per segment (Section 5.1);
            set to 0 to model perfectly aligned segments.
        pipeline: run flushes on a background writer thread (double
            buffering: ingestion refills a fresh buffer while the
            writer drains the sealed one).  Off by default; the
            synchronous path executes the identical flush plan inline,
            so both modes are bit-exact on samples, clock, and
            :class:`~repro.storage.disk_model.DiskStats`.  See
            :mod:`repro.pipeline`.
        io_scheduler: flush-plan ordering -- ``"fifo"`` replays the
            recorded op order (the legacy behaviour), ``"elevator"``
            sorts segment writes by block address and coalesces
            adjacent extents into single bursts.
        stream_rate: records/second the ingest side produces, used to
            model the CPU fill time a pipelined flush can hide on the
            simulated timeline; ``None`` models an instantaneous
            stream (no overlap credit).
        law: the sampling law maintained over the file -- one of
            :data:`~repro.sampling.laws.LAW_NAMES` (``"uniform"``,
            ``"aexpj"``, ``"wr"``, ``"window"``).  Non-uniform laws
            supersede ``admission`` and require record retention (the
            victims are chosen by content).  See docs/SAMPLING_LAWS.md.
        law_params: plain ``(key, value)`` pairs parameterising the
            law (e.g. ``(("window", 50_000),)`` or
            ``(("weight", "value"),)``); kept as data so configs
            survive ``asdict`` / JSON / pickle round trips.
    """

    capacity: int
    buffer_capacity: int
    record_size: int = 100
    beta_records: int | None = None
    stack_multiplier: float = 3.0
    retain_records: bool = False
    admission: AdmissionMode = "always"
    extra_seeks_per_segment: int = 2
    pipeline: bool = False
    io_scheduler: str = "fifo"
    stream_rate: float | None = None
    law: str = "uniform"
    law_params: tuple = ()

    def __post_init__(self) -> None:
        if self.law not in LAW_NAMES:
            raise ValueError(f"unknown sampling law {self.law!r}; "
                             f"expected one of {LAW_NAMES}")
        # JSON/asdict round trips turn the pairs into nested lists;
        # normalise back to hashable tuple-of-tuples.
        if not isinstance(self.law_params, tuple) or any(
                not isinstance(pair, tuple) for pair in self.law_params):
            object.__setattr__(
                self, "law_params",
                tuple(tuple(pair) for pair in self.law_params))
        if self.law != "uniform" and not self.retain_records:
            raise ValueError(
                f"law {self.law!r} picks victims by record content; "
                "set retain_records=True")
        if self.buffer_capacity < 2:
            raise ValueError("buffer must hold at least two records")
        if self.capacity <= self.buffer_capacity:
            raise ValueError("capacity must exceed the buffer (N >> B)")
        if self.record_size < 1:
            raise ValueError("record_size must be positive")
        if self.beta_records is not None and self.beta_records < 1:
            raise ValueError("beta_records must be positive")
        if self.stack_multiplier <= 0:
            raise ValueError("stack_multiplier must be positive")
        if self.extra_seeks_per_segment < 0:
            raise ValueError("extra seeks cannot be negative")
        if self.io_scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown io_scheduler {self.io_scheduler!r}; expected "
                f"one of {SCHEDULER_NAMES}"
            )
        if self.stream_rate is not None and self.stream_rate <= 0:
            raise ValueError("stream_rate must be positive")

    def resolve_beta(self, block_size: int) -> int:
        """The tail group size actually used, in records."""
        if self.beta_records is not None:
            return self.beta_records
        return max(1, block_size // self.record_size)

    def stack_records(self) -> int:
        """Pre-allocated stack capacity per subsample, in records."""
        return max(1, math.ceil(
            self.stack_multiplier * math.sqrt(self.buffer_capacity)
        ))


class GeometricFile(StreamReservoir):
    """A single geometric file over a block device.

    Args:
        device: backing store; must be at least
            :meth:`required_blocks` big.
        config: sizing; ``alpha`` is derived via Lemma 1.
        seed: RNG seed for all randomized steps.
        weight_fn: optional weight callable for the weighted laws,
            overriding the picklable ``("weight", ...)`` spec in
            ``config.law_params``.  Ignored by the uniform law.
    """

    name = "geo file"
    #: Aux columns the structure keeps per record beside its law's (the
    #: biased subclass keeps Section 7.3.1's effective weight in one).
    _structure_aux = 0

    def __init__(self, device: BlockDevice, config: GeometricFileConfig,
                 *, seed: int | None = 0, weight_fn=None) -> None:
        law = make_law(config.law, config.law_params, weight_fn=weight_fn)
        law.validate_config(config)
        super().__init__(config.capacity, admission=config.admission,
                         seed=seed, law=law)
        self.device = device
        self.config = config
        self.schema = RecordSchema(config.record_size)
        if config.retain_records:
            self._payload_schema = self.schema
        self.alpha = alpha_for(config.capacity, config.buffer_capacity)
        self.beta = config.resolve_beta(device.block_size)
        self.ladder = build_ladder(config.buffer_capacity, self.alpha,
                                   self.beta)
        self._records_per_block = self.schema.records_per_block(
            device.block_size
        )
        self._layout = FileLayout.build(
            device, self.ladder, self.schema,
            stack_records=config.stack_records(),
            n_stack_regions=self.ladder.n_disk_segments + 2,
        )
        self._engine = FlushEngine.for_config(device, config)
        # Per-level block counts, precomputed once: the flush hot loop
        # writes the same ladder of segment sizes every time, so the
        # per-segment ceil-division is pure overhead.
        self._segment_blocks = [self._blocks_for(size)
                                for size in self.ladder.segment_sizes]
        self.buffer = SampleBuffer(
            config.buffer_capacity, self._rng, np_rng=self._np_rng,
            schema=self.schema if config.retain_records else None,
            aux_width=law.aux_width + self._structure_aux)
        #: Encode real segment payloads only when the device can hand
        #: them back; cost-only devices keep the write_zeros charge.
        self._store_bytes = (config.retain_records
                             and device_stores_bytes(device))
        self.subsamples: list[SubsampleLedger] = []
        self._victim_scratch = VictimScratch()
        self._startup_sizes = startup_fill_sizes(
            config.capacity, config.buffer_capacity, self.alpha
        )
        self._startup_index = 0
        self._next_ident = 0
        self.flushes = 0
        self.stack_overflows = 0
        self.chunk_floor = config.buffer_capacity

    # -- public observers ---------------------------------------------------

    @classmethod
    def required_blocks(cls, config: GeometricFileConfig,
                        block_size: int) -> int:
        """Device size needed for this configuration."""
        alpha = alpha_for(config.capacity, config.buffer_capacity)
        beta = config.resolve_beta(block_size)
        ladder = build_ladder(config.buffer_capacity, alpha, beta)
        schema = RecordSchema(config.record_size)
        return FileLayout.blocks_needed(
            block_size, ladder, schema,
            stack_records=config.stack_records(),
            n_stack_regions=ladder.n_disk_segments + 2,
        )

    def _clock(self) -> float:
        # Duck-typed: any cost-modelled device (simulated, striped)
        # exposes a simulated clock; byte-only backends do not.
        return getattr(self.device, "clock", 0.0)

    def _stats_extra(self) -> dict:
        extra = {
            "alpha": self.alpha,
            "n_subsamples": self.n_subsamples,
            "stack_overflows": self.stack_overflows,
        }
        if not self._law.is_uniform:
            extra["law"] = {"name": self._law.name,
                            **self._law.stats_extra()}
        return extra

    def iter_ledgers(self):
        """All live subsample ledgers, materialisation order (law hook)."""
        return iter(self.subsamples)

    @property
    def in_startup(self) -> bool:
        """True until the reservoir has filled for the first time."""
        return self._startup_index < len(self._startup_sizes)

    @property
    def disk_size(self) -> int:
        """Live records across all subsamples (``N`` once filled)."""
        return sum(ledger.live for ledger in self.subsamples)

    @property
    def n_subsamples(self) -> int:
        return len(self.subsamples)

    def check_invariants(self) -> None:
        """Assert every ledger's conservation law; used heavily by tests."""
        held: dict[int, list[int]] = {}
        for ledger in self.subsamples:
            ledger.check_invariant()
            level = ledger.current_level
            for slot in ledger.slots:
                held.setdefault(level, []).append(slot)
                level += 1
        self._layout.verify_slots(held)
        if not self.in_startup:
            if self.disk_size != self.capacity:
                raise AssertionError(
                    f"disk holds {self.disk_size} live records, "
                    f"expected {self.capacity}"
                )

    # -- StreamReservoir hooks ------------------------------------------------

    # The law owns placement (startup joins, Algorithm 2 replacement,
    # multiplicity fan-out, aux staging); these hooks only route.  The
    # uniform law's place* bodies are the pre-refactor code verbatim.

    def _admit(self, record: Record | None) -> None:
        self._law.place(self, record)

    def _admit_many(self, records: list[Record | None]) -> None:
        self._law.place_many(self, records)

    def _admit_batch(self, batch: RecordBatch) -> None:
        if self.config.retain_records:
            self._law.place_batch(self, batch)
        else:
            # Count-only: the rows carry nothing to keep.
            self._law.place_many(self, [None] * len(batch))

    def _admit_count(self, n: int) -> None:
        # Count-only fast path (uniform law only): the in-buffer
        # replacement branch (probability <= B/N per admission) is
        # folded into joins; this shifts flush cadence by under B/(2N)
        # and leaves every I/O pattern untouched.  The record-level
        # path models it exactly.
        self._law.place_count(self, n)

    # -- flush machinery -------------------------------------------------------

    def _startup_flush(self) -> None:
        """Write one initial subsample (Figure 3 a-c)."""
        level = self._startup_index
        records, count = self.buffer.drain()
        aux = self.buffer.take_aux()
        sizes = list(self.ladder.segment_sizes[level:])
        while sizes and sum(sizes) > count:
            sizes.pop()
        tail = count - sum(sizes)
        ledger = self._new_ledger(sizes, level, tail, records, aux)
        self.subsamples.insert(0, ledger)
        for offset in range(len(sizes)):
            ledger.push_slot(self._layout.take_slot(level + offset))
        # The whole initial subsample goes out as one contiguous write;
        # see FileLayout.append_startup.
        disk_records = count - tail
        data = None
        if self._store_bytes and disk_records > 0:
            data = records[:disk_records].to_bytes()
        plan = FlushPlan()
        self._layout.append_startup(plan, self._blocks_for(disk_records),
                                    data)
        # In-memory transition completes before the submit: if a
        # pipelined writer fault surfaces here, the ledger and index
        # are already consistent and clear_fault() resumes cleanly.
        self._startup_index += 1
        self._submit_plan(plan, count)
        self.flushes += 1
        self._emit("flush", index=self.flushes, records=count,
                   phase="startup", level=level)

    def _flush(self) -> None:
        """Steady-state flush: Algorithm 3 plus the Section 4.5 mechanics."""
        records, count = self.buffer.drain()
        aux = self.buffer.take_aux()
        if self._law.uniform_victims:
            self._evict_victims(count)
            new_victims = None
        else:
            # The law names the dead by content (keys/positions); it
            # evicts from old ledgers itself and returns which of the
            # drained records die -- they are still written physically
            # (every segment holds its full quota) and booked as ghost
            # stack debt on the new ledger, exactly like a uniform
            # eviction outrunning the segment cascade.
            new_victims = self._law.plan_victims(self, records, aux, count)
        plan = FlushPlan()
        freed_slots = self._release_all_segments(plan)
        ledger = self._new_ledger(
            list(self.ladder.segment_sizes), 0, self.ladder.tail_size,
            records, aux,
        )
        self.subsamples.insert(0, ledger)
        offset = 0
        for level, size in enumerate(self.ladder.segment_sizes):
            slot = freed_slots.get(level)
            if slot is None:
                slot = self._layout.take_slot(level)
            ledger.push_slot(slot)
            data = None
            if self._store_bytes:
                # Segment l physicalises the ledger's matching record
                # slice: one whole-segment encode, one device write.
                data = records[offset:offset + size].to_bytes()
            self._write_slot(level, slot, size, data, plan)
            offset += size
        if new_victims is not None and len(new_victims):
            ledger.evict_indices(new_victims)
        self._drop_dead_subsamples()
        self._submit_plan(plan, count)
        self.flushes += 1
        self._emit("flush", index=self.flushes, records=count,
                   phase="steady")

    def _new_ledger(self, sizes: list[int], first_level: int, tail: int,
                    records: RecordBatch | None, aux
                    ) -> SubsampleLedger:
        ledger = SubsampleLedger(
            self._next_ident, sizes, first_level, tail, records,
            stack_capacity=self.config.stack_records(),
        )
        ledger.aux = aux
        ledger.stack_region = self._next_ident % self._layout.n_stack_regions
        self._next_ident += 1
        return ledger

    def _drop_dead_subsamples(self) -> None:
        """Drop fully-evicted ledgers, returning their slots to the pool.

        A subsample can reach ``live == 0`` while still holding disk
        segments (evictions are booked as ghost stack debt while the
        cascade runs, Section 4.5); its remaining slots then never pass
        through the flush hand-over, so they are reclaimed here.
        Without this, small-segment configurations exhaust a level's
        free list within a few dozen flushes.
        """
        survivors = []
        for ledger in self.subsamples:
            if not ledger.is_dead:
                survivors.append(ledger)
                continue
            level = ledger.current_level
            for slot in ledger.slots:
                self._layout.release_slot(level, slot)
                level += 1
        self.subsamples = survivors

    def _evict_victims(self, count: int) -> None:
        """Algorithm 3: distribute ``count`` evictions over subsamples.

        Sequential multivariate-hypergeometric draw: victim counts are
        exactly the counts of a uniform random ``count``-subset of the
        ``N`` live disk records.
        """
        lives = self._victim_scratch.view(len(self.subsamples))
        for i, ledger in enumerate(self.subsamples):
            lives[i] = ledger.live
        counts = draw_victim_counts_array(self._np_rng, lives, count)
        for ledger, k in zip(self.subsamples, counts.tolist()):
            if k:
                ledger.evict(k)

    def _release_all_segments(self, plan: FlushPlan) -> dict[int, int]:
        """Every disk-holding subsample surrenders its largest segment.

        Returns {level: freed slot index} for the new subsample to
        reuse, and records stack reconciliation I/O into ``plan``.
        """
        freed: dict[int, int] = {}
        for ledger in self.subsamples:
            if not ledger.has_disk_segments:
                continue
            level = ledger.current_level
            slot = ledger.pop_slot()
            ledger.release_segment()
            if slot is not None:
                freed[level] = slot
            self._reconcile_stack(ledger, plan)
            if not ledger.has_disk_segments:
                self._retire_stack(ledger, plan)
        return freed

    def _reconcile_stack(self, ledger: SubsampleLedger,
                         plan: FlushPlan) -> None:
        event = ledger.reconcile_stack()
        if ledger.overflowed:
            self.stack_overflows += 1
            ledger.overflowed = False
            self._emit("overflow", what="stack", subsample=ledger.ident)
        if not event.touched:
            return
        # One head movement to the subsample's stack region, then a
        # sequential write of whatever was pushed (a pop only rewinds
        # the stack pointer but still costs the bookkeeping write).
        blocks = max(1, self._blocks_for(event.pushed))
        self._layout.write_stack(plan, ledger.stack_region, blocks)

    def _retire_stack(self, ledger: SubsampleLedger,
                      plan: FlushPlan) -> None:
        """Fold a now-tail-only subsample's stack into memory.

        Frees the stack region for reuse by younger subsamples; costs
        one read of the folded records.
        """
        folded = ledger.fold_stack_into_tail()
        if folded > 0:
            self._layout.read_stack(plan, ledger.stack_region,
                                    self._blocks_for(folded))

    # -- I/O helpers -------------------------------------------------------------

    def _blocks_for(self, n_records: int) -> int:
        if n_records <= 0:
            return 0
        return -(-n_records // self._records_per_block)

    def _write_slot(self, level: int, slot: int, size: int,
                    data: bytes | None, plan: FlushPlan) -> None:
        """Record one segment write (sequential) plus modelled overhead."""
        self._layout.write_slot(
            plan, level, slot, self._segment_blocks[level], data,
            overhead=self.config.extra_seeks_per_segment,
        )
        self._emit("segment_overwrite", level=level, slot=slot,
                   records=size)


class FileLayout:
    """Block addresses for levels, slots, and stacks (Figure 2).

    Level ``l`` owns an extent of ``l + 2`` slots -- steady-state
    occupancy ``l + 1`` plus one slack slot that simplifies the
    start-up / steady-state hand-over -- or ``l + 3`` when the layout
    reserves a *dummy* slot per level (the Section 6 multi-file
    construction).  Stack regions follow.  Slot hand-over between
    subsamples is tracked with per-level free lists.
    """

    def __init__(self, device: BlockDevice, level_extents: list[Extent],
                 slot_records: list[int], record_size: int,
                 stack_extent: Extent, stack_blocks: int,
                 n_stack_regions: int, dummy: bool) -> None:
        self.device = device
        self.level_extents = level_extents
        self.slot_records = slot_records
        self.record_size = record_size
        self.stack_extent = stack_extent
        self.stack_blocks = stack_blocks
        self.n_stack_regions = n_stack_regions
        self.dummy = dummy
        self._free_slots: list[list[int]] = [
            list(range(self._slots_for_level(level, dummy)))
            for level in range(len(level_extents))
        ]

    @staticmethod
    def _slots_for_level(level: int, dummy: bool) -> int:
        return level + 2 + (1 if dummy else 0)

    @classmethod
    def _level_blocks(cls, level: int, segment_records: int,
                      record_size: int, block_size: int,
                      dummy: bool) -> int:
        """Blocks for one level region: slots packed at record
        granularity (the paper's segments are not block-aligned; the
        boundary read-modify-write is charged separately)."""
        slots = cls._slots_for_level(level, dummy)
        level_bytes = slots * segment_records * record_size
        return -(-level_bytes // block_size)

    @classmethod
    def blocks_needed(cls, block_size: int, ladder: SegmentLadder,
                      schema: RecordSchema, *, stack_records: int,
                      n_stack_regions: int, dummy: bool = False) -> int:
        total = 0
        for level, size in enumerate(ladder.segment_sizes):
            total += cls._level_blocks(level, size, schema.record_size,
                                       block_size, dummy)
        stack_blocks = schema.blocks_for_records(stack_records, block_size)
        total += stack_blocks * n_stack_regions
        return max(1, total)

    @classmethod
    def build(cls, device: BlockDevice, ladder: SegmentLadder,
              schema: RecordSchema, *, stack_records: int,
              n_stack_regions: int, first_block: int = 0,
              n_blocks: int | None = None,
              dummy: bool = False) -> "FileLayout":
        """Lay the file out over ``[first_block, first_block + n_blocks)``.

        ``n_blocks`` defaults to the rest of the device; the multi-file
        variant packs one layout per sub-file back to back.
        """
        if n_blocks is None:
            n_blocks = device.n_blocks - first_block
        needed = cls.blocks_needed(device.block_size, ladder, schema,
                                   stack_records=stack_records,
                                   n_stack_regions=n_stack_regions,
                                   dummy=dummy)
        if n_blocks < needed:
            raise ValueError(
                f"{n_blocks} blocks too small; layout needs {needed}"
            )
        if first_block + n_blocks > device.n_blocks:
            raise ValueError("layout range extends past the device")
        allocator = ExtentAllocator(n_blocks, first_block=first_block)
        level_extents: list[Extent] = []
        slot_records: list[int] = []
        for level, size in enumerate(ladder.segment_sizes):
            slot_records.append(size)
            level_extents.append(allocator.allocate(
                cls._level_blocks(level, size, schema.record_size,
                                  device.block_size, dummy),
                label=f"all segment {level}'s",
            ))
        stack_blocks = schema.blocks_for_records(stack_records,
                                                 device.block_size)
        stack_extent = allocator.allocate(
            stack_blocks * n_stack_regions, label="LIFO stacks",
        )
        allocator.verify_disjoint()
        return cls(device, level_extents, slot_records, schema.record_size,
                   stack_extent, stack_blocks, n_stack_regions, dummy)

    # -- start-up appends ------------------------------------------------------

    def append_startup(self, plan: FlushPlan, blocks: int,
                       data: bytes | None = None) -> None:
        """Record one initial subsample's contiguous write.

        Figure 2's "all segment l's together" picture is a *logical*
        map: a slot only needs to be contiguous in itself, because
        steady-state overwrites pay one head movement per slot wherever
        it lies.  The build therefore lays each initial subsample's
        slots adjacently in arrival order -- one seek plus a sequential
        transfer per start-up flush -- which is how "each of the five
        options writes the first 50 GB of data from the stream more or
        less directly to disk" (Section 8) holds for the geometric
        file even at alpha = 0.999.
        """
        if blocks <= 0:
            return
        start = getattr(self, "_startup_cursor",
                        self.level_extents[0].start
                        if self.level_extents else self.stack_extent.start)
        end = self.stack_extent.start
        blocks = min(blocks, max(1, end - start)) if end > start else blocks
        plan.write(start, blocks, data)
        # Cursor bookkeeping happens at plan-build time, on the ingest
        # thread -- the writer thread never touches layout state.
        self._startup_cursor = min(start + blocks,
                                   max(end - 1, start))

    # -- slot bookkeeping ---------------------------------------------------

    def take_slot(self, level: int) -> int:
        free = self._free_slots[level]
        if not free:
            raise AssertionError(f"level {level} has no free slots")
        return free.pop(0)

    def release_slot(self, level: int, slot: int) -> None:
        """Return a surrendered slot to the level's free list.

        Called when a fully-evicted subsample is dropped while still
        holding disk segments: eviction reached ``live == 0`` before
        the segment cascade finished, so the remaining slots never go
        through the flush hand-over and must rejoin the pool here or
        the level eventually runs dry.
        """
        free = self._free_slots[level]
        if slot in free:
            raise AssertionError(
                f"level {level} slot {slot} released twice")
        free.append(slot)

    def verify_slots(self, held: dict[int, list[int]]) -> None:
        """Assert per-level slot conservation.

        ``held`` maps level -> slot indices currently owned by live
        subsamples (and, in the multi-file construction, the dummy);
        together with the free list they must partition the level's
        slot range exactly -- no slot lost, none owned twice.
        """
        for level in range(len(self.level_extents)):
            combined = sorted(self._free_slots[level]
                              + held.get(level, []))
            expected = list(range(self._slots_for_level(level, self.dummy)))
            if combined != expected:
                raise AssertionError(
                    f"level {level} slot accounting broken: "
                    f"free={sorted(self._free_slots[level])} "
                    f"held={sorted(held.get(level, []))} "
                    f"expected {expected}")

    # -- charged I/O ----------------------------------------------------------

    def slot_address(self, level: int, slot: int) -> int:
        """First block the slot's bytes touch (slots are record-packed)."""
        byte_offset = slot * self.slot_records[level] * self.record_size
        return (self.level_extents[level].start
                + byte_offset // self.device.block_size)

    def stack_address(self, region: int) -> int:
        return self.stack_extent.start + region * self.stack_blocks

    def write_slot(self, plan: FlushPlan, level: int, slot: int,
                   blocks: int, data: bytes | None = None, *,
                   overhead: int = 0) -> None:
        """Record one slot overwrite; ``data`` carries real segment bytes.

        With ``data`` the transfer happens through
        :func:`~repro.storage.device.write_payload`, whose burst
        structure matches :func:`write_zeros` exactly -- the cost
        accounting is bit-identical either way (tested).  Cost-only
        call sites keep passing ``None``.  ``overhead`` models the
        per-segment boundary read-modify-write seeks; it is charged
        even when the write itself clamps to nothing, matching the
        legacy inline path.
        """
        if blocks <= 0:
            plan.seek(overhead)
            return
        address = self.slot_address(level, slot)
        # Clamp so an unaligned final slot never runs past its extent.
        blocks = min(blocks, self.level_extents[level].end - address)
        plan.write(address, blocks, data, overhead=overhead)

    def write_stack(self, plan: FlushPlan, region: int, blocks: int) -> None:
        blocks = min(blocks, max(1, self.stack_blocks))
        plan.write(self.stack_address(region), blocks)

    def read_stack(self, plan: FlushPlan, region: int, blocks: int) -> None:
        blocks = min(blocks, max(1, self.stack_blocks))
        plan.read(self.stack_address(region), blocks)

    def charge_seek(self) -> None:
        """Charge one isolated random head movement (modelled overhead)."""
        direct = getattr(self.device, "charge_seek", None)
        if direct is not None:
            direct()
            return
        model = getattr(self.device, "model", None)
        if model is not None:
            model.charge_seek()
