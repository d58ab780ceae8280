"""Multiple geometric files (paper Section 6).

Lemma 1 chains a single geometric file's decay rate to
``alpha = 1 - B/N``; for a terabyte reservoir and a gigabyte buffer
that is 0.999, which means ~10,000 segments -- and seeks -- per flush.
Section 6's escape: pick a *smaller* ``alpha' < alpha`` and stripe
``m = (1-alpha')/(1-alpha)`` geometric files, each with the coarser
``alpha'`` segment ladder ("consolidated segments").  A new subsample
is written, round-robin, entirely into *one* file per flush, so the
per-flush seek bill shrinks by roughly a factor of ``m``.

The timing wrinkle the paper's *dummy* solves: a subsample's records
are logically evicted at *every* flush (its share of Algorithm 3's
victims), but it physically surrenders a consolidated segment only when
its own file's turn comes -- once every ``m`` flushes -- and that
segment is ``m`` flushes' worth of decay at once.  Each file therefore
pre-allocates one complete subsample's worth of empty slots (the
dummy): the incoming subsample lands in the dummy's slots, and each
existing subsample then donates its largest segment to *reconstitute*
the dummy, protecting the donated data until the file's next turn.
Stack adjustments for subsamples in the other ``m - 1`` files are
deferred until their file is processed ("they can be updated lazily",
Section 6), which the ledgers' reconciliation API models directly.

Extra storage: one dummy subsample (``B`` records) per file, i.e.
``m * B = (1 - alpha') * N`` overall -- the paper's "1 TB reservoir
... alpha' = 0.9 by using only 1.1 TB of disk storage in total".

Sampling correctness is untouched: Algorithm 3's victim draw still
spans every subsample in every file, so the reservoir remains an exact
uniform sample; only the physical layout changed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..pipeline import FlushEngine, FlushPlan
from ..reservoir import (
    StreamReservoir,
    VictimScratch,
    draw_victim_counts_array,
)
from ..sampling.laws import make_law
from ..storage.device import BlockDevice, device_stores_bytes
from ..storage.recordbatch import RecordBatch
from ..storage.records import Record, RecordSchema
from .buffer import SampleBuffer
from .geometric_file import FileLayout, GeometricFileConfig
from .geometry import alpha_for, build_ladder, file_count_for, startup_fill_sizes
from .subsample import SubsampleLedger


@dataclass(frozen=True)
class MultiFileConfig(GeometricFileConfig):
    """Sizing for the multi-file variant.

    Adds ``alpha_prime``, the user-chosen per-file decay rate
    (Section 6; the paper's benchmarks use 0.9).  Everything else is
    inherited from :class:`GeometricFileConfig`.
    """

    alpha_prime: float = 0.9

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.alpha_prime < 1.0:
            raise ValueError("alpha_prime must be in (0, 1)")


class _SubFile:
    """One of the ``m`` striped geometric files: layout plus its ledgers."""

    def __init__(self, index: int, layout: FileLayout,
                 n_levels: int) -> None:
        self.index = index
        self.layout = layout
        self.subsamples: list[SubsampleLedger] = []
        # The dummy's slot at each ladder level; reserved up front.
        self.dummy_slots: list[int] = [
            layout.take_slot(level) for level in range(n_levels)
        ]


class MultipleGeometricFiles(StreamReservoir):
    """``m`` round-robin geometric files sharing one reservoir.

    Args:
        device: backing store (one simulated spindle holds all files;
            their extents are laid out back to back).
        config: sizing; ``m`` derives from ``alpha`` (Lemma 1) and
            ``config.alpha_prime`` via ``m = (1-alpha')/(1-alpha)``.
        seed: RNG seed.
    """

    name = "multiple geo files"
    #: Aux columns the structure keeps per record beside its law's (the
    #: biased subclass keeps Section 7.3.1's effective weight in one).
    _structure_aux = 0

    def __init__(self, device: BlockDevice, config: MultiFileConfig,
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
        self.n_files = file_count_for(self.alpha, config.alpha_prime)
        #: The decay rate actually realised by the integer file count.
        self.alpha_prime = 1.0 - self.n_files * (1.0 - self.alpha)
        self.beta = config.resolve_beta(device.block_size)
        self.ladder = build_ladder(config.buffer_capacity, self.alpha_prime,
                                   self.beta)
        self._records_per_block = self.schema.records_per_block(
            device.block_size
        )
        self.files = self._build_files(device)
        self._engine = FlushEngine.for_config(device, config)
        # Per-level block counts, precomputed once (see GeometricFile).
        self._segment_blocks = [self._blocks_for(size)
                                for size in self.ladder.segment_sizes]
        self.buffer = SampleBuffer(
            config.buffer_capacity, self._rng, np_rng=self._np_rng,
            schema=self.schema if config.retain_records else None,
            aux_width=law.aux_width + self._structure_aux)
        self._store_bytes = (config.retain_records
                             and device_stores_bytes(device))
        self._victim_scratch = VictimScratch()
        self._startup_sizes = startup_fill_sizes(
            config.capacity, config.buffer_capacity, self.alpha
        )
        self._startup_index = 0
        self._next_ident = 0
        self.flushes = 0
        self.stack_overflows = 0
        self.chunk_floor = config.buffer_capacity

    def _build_files(self, device: BlockDevice) -> list[_SubFile]:
        per_file = FileLayout.blocks_needed(
            device.block_size, self.ladder, self.schema,
            stack_records=self.config.stack_records(),
            n_stack_regions=self.ladder.n_disk_segments + 2,
            dummy=True,
        )
        if device.n_blocks < per_file * self.n_files:
            raise ValueError(
                f"device of {device.n_blocks} blocks too small; need "
                f"{per_file * self.n_files} for {self.n_files} files"
            )
        files = []
        for f in range(self.n_files):
            layout = FileLayout.build(
                device, self.ladder, self.schema,
                stack_records=self.config.stack_records(),
                n_stack_regions=self.ladder.n_disk_segments + 2,
                first_block=f * per_file,
                n_blocks=per_file,
                dummy=True,
            )
            files.append(_SubFile(f, layout, self.ladder.n_disk_segments))
        return files

    # -- observers ----------------------------------------------------------

    @classmethod
    def required_blocks(cls, config: MultiFileConfig,
                        block_size: int) -> int:
        """Device size needed for this configuration."""
        alpha = alpha_for(config.capacity, config.buffer_capacity)
        n_files = file_count_for(alpha, config.alpha_prime)
        alpha_prime = 1.0 - n_files * (1.0 - alpha)
        beta = config.resolve_beta(block_size)
        ladder = build_ladder(config.buffer_capacity, alpha_prime, beta)
        schema = RecordSchema(config.record_size)
        per_file = FileLayout.blocks_needed(
            block_size, ladder, schema,
            stack_records=config.stack_records(),
            n_stack_regions=ladder.n_disk_segments + 2,
            dummy=True,
        )
        return per_file * n_files

    def _clock(self) -> float:
        # Duck-typed: any cost-modelled device (simulated, striped)
        # exposes a simulated clock; byte-only backends do not.
        return getattr(self.device, "clock", 0.0)

    def _stats_extra(self) -> dict:
        extra = {
            "alpha": self.alpha,
            "alpha_prime": self.alpha_prime,
            "n_files": self.n_files,
            "n_subsamples": self.n_subsamples,
            "stack_overflows": self.stack_overflows,
        }
        if not self._law.is_uniform:
            extra["law"] = {"name": self._law.name,
                            **self._law.stats_extra()}
        return extra

    @property
    def in_startup(self) -> bool:
        return self._startup_index < len(self._startup_sizes)

    @property
    def disk_size(self) -> int:
        return sum(ledger.live
                   for file in self.files
                   for ledger in file.subsamples)

    @property
    def n_subsamples(self) -> int:
        return sum(len(file.subsamples) for file in self.files)

    def _all_ledgers(self):
        for file in self.files:
            yield from file.subsamples

    def iter_ledgers(self):
        """All live ledgers across files, materialisation order (law
        hook)."""
        return self._all_ledgers()

    def check_invariants(self) -> None:
        """Assert every ledger's conservation law and the global size."""
        for file in self.files:
            held: dict[int, list[int]] = {}
            for level, slot in enumerate(file.dummy_slots):
                held.setdefault(level, []).append(slot)
            for ledger in file.subsamples:
                ledger.check_invariant()
                level = ledger.current_level
                for slot in ledger.slots:
                    held.setdefault(level, []).append(slot)
                    level += 1
            file.layout.verify_slots(held)
        if not self.in_startup and self.disk_size != self.capacity:
            raise AssertionError(
                f"disk holds {self.disk_size}, expected {self.capacity}"
            )

    # -- StreamReservoir hooks ------------------------------------------------

    # Placement routes through the law (see GeometricFile): the
    # multi-file's admit/flush boundaries are shape-identical to the
    # single file's, so the same law place* bodies drive both.

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
        # Same count-only simplification as the single file: in-buffer
        # replacements are folded into joins (see GeometricFile).
        self._law.place_count(self, n)

    # -- flush machinery --------------------------------------------------------

    def _startup_flush(self) -> None:
        """Initial fill, striped round-robin (Figure 3 adapted to m files)."""
        c = self._startup_index
        file = self.files[c % self.n_files]
        level = c // self.n_files
        records, count = self.buffer.drain()
        aux = self.buffer.take_aux()
        sizes = list(self.ladder.segment_sizes[level:])
        while sizes and sum(sizes) > count:
            sizes.pop()
        tail = count - sum(sizes)
        ledger = self._new_ledger(sizes, level, tail, records, aux)
        file.subsamples.insert(0, ledger)
        for offset in range(len(sizes)):
            ledger.push_slot(file.layout.take_slot(level + offset))
        # One contiguous write per initial subsample (see
        # FileLayout.append_startup).
        disk_records = count - tail
        data = None
        if self._store_bytes and disk_records > 0:
            data = records[:disk_records].to_bytes()
        plan = FlushPlan()
        file.layout.append_startup(plan, self._blocks_for(disk_records),
                                   data)
        # In-memory transition completes before the submit: if a
        # pipelined writer fault surfaces here, the ledger and index
        # are already consistent and clear_fault() resumes cleanly.
        self._startup_index += 1
        self._submit_plan(plan, count)
        self.flushes += 1
        self._emit("flush", index=self.flushes, records=count,
                   phase="startup", file=file.index, level=level)

    def _flush(self) -> None:
        """Steady-state flush into the round-robin target file."""
        records, count = self.buffer.drain()
        aux = self.buffer.take_aux()
        if self._law.uniform_victims:
            self._evict_victims(count)
            new_victims = None
        else:
            # Content-chosen victims (see GeometricFile._flush): old
            # ledgers are culled here, the drained victims after the
            # segment writes below.
            new_victims = self._law.plan_victims(self, records, aux, count)
        file = self.files[self.flushes % self.n_files]
        # New subsample lands in the dummy's slots (Figure 6 b).
        ledger = self._new_ledger(
            list(self.ladder.segment_sizes), 0, self.ladder.tail_size,
            records, aux,
        )
        file.subsamples.insert(0, ledger)
        plan = FlushPlan()
        offset = 0
        for level, size in enumerate(self.ladder.segment_sizes):
            slot = file.dummy_slots[level]
            ledger.push_slot(slot)
            data = None
            if self._store_bytes:
                data = records[offset:offset + size].to_bytes()
            self._write_slot(file, level, slot, size, data, plan)
            offset += size
        # Existing subsamples donate their largest segment back to the
        # dummy (Figure 6 c) and settle their stacks, lazily accumulated
        # over the last m flushes.
        new_dummy: dict[int, int] = {}
        for sub in file.subsamples:
            if sub is ledger or not sub.has_disk_segments:
                continue
            level = sub.current_level
            slot = sub.pop_slot()
            sub.release_segment()
            if slot is not None:
                new_dummy[level] = slot
            self._reconcile_stack(file, sub, plan)
            if not sub.has_disk_segments:
                self._retire_stack(file, sub, plan)
        file.dummy_slots = [
            new_dummy[level] if level in new_dummy
            else file.layout.take_slot(level)
            for level in range(self.ladder.n_disk_segments)
        ]
        if new_victims is not None and len(new_victims):
            ledger.evict_indices(new_victims)
        # Dead (fully-decayed) subsamples in the written file are
        # dropped now; ones in other files wait for their file's turn
        # -- a zero-live ledger draws zero victims, so keeping it an
        # extra rotation is free and avoids an all-files sweep per
        # flush.  Both updates land before the submit so a pipelined
        # writer fault cannot leave the file mid-rotation.  A dead
        # ledger can still hold disk segments (eviction outran the
        # cascade); its slots must rejoin the file's free lists.
        survivors = []
        for s in file.subsamples:
            if not s.is_dead:
                survivors.append(s)
                continue
            slot_level = s.current_level
            for freed_slot in s.slots:
                file.layout.release_slot(slot_level, freed_slot)
                slot_level += 1
        file.subsamples = survivors
        self._submit_plan(plan, count)
        self._emit("dummy_rotation", file=file.index,
                   donated=len(new_dummy),
                   levels=self.ladder.n_disk_segments)
        self.flushes += 1
        self._emit("flush", index=self.flushes, records=count,
                   phase="steady", file=file.index)

    def _new_ledger(self, sizes: list[int], first_level: int, tail: int,
                    records: RecordBatch | None, aux
                    ) -> SubsampleLedger:
        ledger = SubsampleLedger(
            self._next_ident, sizes, first_level, tail, records,
            stack_capacity=self.config.stack_records(),
        )
        ledger.aux = aux
        n_regions = self.ladder.n_disk_segments + 2
        ledger.stack_region = (self._next_ident // self.n_files) % n_regions
        self._next_ident += 1
        return ledger

    def _evict_victims(self, count: int) -> None:
        """Algorithm 3 across every subsample of every file."""
        ledgers = list(self._all_ledgers())
        lives = self._victim_scratch.view(len(ledgers))
        for i, ledger in enumerate(ledgers):
            lives[i] = ledger.live
        counts = draw_victim_counts_array(self._np_rng, lives, count)
        for ledger, k in zip(ledgers, counts.tolist()):
            if k:
                ledger.evict(k)

    def _reconcile_stack(self, file: _SubFile, ledger: SubsampleLedger,
                         plan: FlushPlan) -> None:
        event = ledger.reconcile_stack()
        if ledger.overflowed:
            self.stack_overflows += 1
            ledger.overflowed = False
            self._emit("overflow", what="stack", file=file.index,
                       subsample=ledger.ident)
        if not event.touched:
            return
        blocks = max(1, self._blocks_for(event.pushed))
        file.layout.write_stack(plan, ledger.stack_region, blocks)

    def _retire_stack(self, file: _SubFile, ledger: SubsampleLedger,
                      plan: FlushPlan) -> None:
        folded = ledger.fold_stack_into_tail()
        if folded > 0:
            file.layout.read_stack(plan, ledger.stack_region,
                                   self._blocks_for(folded))

    def _blocks_for(self, n_records: int) -> int:
        if n_records <= 0:
            return 0
        return -(-n_records // self._records_per_block)

    def _write_slot(self, file: _SubFile, level: int, slot: int,
                    size: int, data: bytes | None,
                    plan: FlushPlan) -> None:
        file.layout.write_slot(
            plan, level, slot, self._segment_blocks[level], data,
            overhead=self.config.extra_seeks_per_segment,
        )
        self._emit("segment_overwrite", file=file.index, level=level,
                   slot=slot, records=size)
