"""The virtual-memory extension (paper Section 3.2, first alternative).

"The most obvious adaptation for very large sample sizes is to simply
treat the reservoir as if it were stored in virtual memory.  The
problem ... is that every new sample that is added to the reservoir
will overwrite a random, existing record on disk, and so it will
require two random disk I/Os: one to read in the block where the record
will be written, and one to re-write it with the new sample."

The implementation below is exactly that: the reservoir is a flat array
of record slots; each admitted record picks a uniformly random slot and
performs a read-modify-write of the containing block through an LRU
buffer pool that gets *all* of the option's memory (the paper gives it
the full 600 MB / 150 MB).  Once the reservoir dwarfs the pool, nearly
every access misses, evicts a dirty page, and therefore pays two random
head movements -- the paper's back-of-the-envelope "250 records per
second" with a terabyte reservoir.
"""

from __future__ import annotations

import numpy as np

from ..storage.buffer_pool import LRUBufferPool
from ..storage.device import BlockDevice
from ..storage.recordbatch import RecordBatch
from ..storage.records import Record
from .base import BufferedDiskReservoir, Cohort, DiskReservoirConfig


class VirtualMemoryReservoir(BufferedDiskReservoir):
    """Reservoir maintained by random in-place block updates.

    The :class:`~repro.baselines.base.BufferedDiskReservoir` machinery
    is reused only for the sequential fill phase; in steady state every
    admitted record goes straight to a random slot (there is no
    new-sample buffer -- ``config.buffer_capacity`` is ignored, matching
    the paper's allocation of all memory to the LRU pool).
    """

    name = "virtual mem"

    def __init__(self, device: BlockDevice, config: DiskReservoirConfig,
                 *, seed: int | None = 0) -> None:
        super().__init__(device, config, seed=seed)
        self.pool = LRUBufferPool(device, config.pool_blocks)
        # Steady state pays per record, not per flush: let the runner
        # shrink chunks to track the horizon precisely.
        self.chunk_floor = 1
        self._records: RecordBatch | None = None
        self._n_blocks_used = self.schema.blocks_for_records(
            config.capacity, device.block_size
        )
        if self._n_blocks_used > device.n_blocks:
            raise ValueError(
                f"device too small: reservoir needs {self._n_blocks_used} "
                f"blocks, device has {device.n_blocks}"
            )

    @classmethod
    def required_blocks(cls, config: DiskReservoirConfig,
                        block_size: int) -> int:
        """Device size needed: just the packed reservoir."""
        from ..storage.records import RecordSchema

        schema = RecordSchema(config.record_size)
        return schema.blocks_for_records(config.capacity, block_size)

    # -- fill ------------------------------------------------------------------

    def _finish_fill(self, records: RecordBatch | None) -> None:
        self._records = records
        self._cohorts = [Cohort(self.capacity, records=records)]

    # -- observability -------------------------------------------------------

    def _stats_extra(self) -> dict:
        pool = self.pool.stats
        return {
            "pool_blocks": self.pool.capacity,
            "pool_hits": pool.hits,
            "pool_misses": pool.misses,
            "pool_evictions": pool.evictions,
            "pool_hit_ratio": pool.hit_ratio,
        }

    # -- steady state -------------------------------------------------------------

    def _admit(self, record: Record | None) -> None:
        if self.in_startup:
            self._fill_one(record)
            return
        self._overwrite_random_slot(record)

    def _admit_count(self, n: int) -> None:
        n -= self._fill_rows(n)
        for _ in range(n):
            self._overwrite_random_slot(None)

    def _admit_batch(self, batch: RecordBatch) -> None:
        if not self.config.retain_records:
            self._admit_anonymous(len(batch))
            return
        i = self._fill_rows(len(batch), batch.array)
        self._overwrite_slots(len(batch) - i, batch.array[i:])

    def _admit_anonymous(self, n: int) -> None:
        self._overwrite_slots(n - self._fill_rows(n), None)

    def _overwrite_slots(self, n: int, rows: np.ndarray | None) -> None:
        # One vectorised slot draw for the whole steady-state suffix and
        # one batched LRU walk (the pool is the point of this baseline),
        # then an in-order row scatter that matches the scalar loop bit
        # for bit even when a slot repeats (last write wins).
        if n <= 0:
            return
        slots = self._np_rng.integers(0, self.capacity, size=n)
        records_per_block = self.schema.records_per_block(
            self.device.block_size
        )
        self.pool.get_many((slots // records_per_block).tolist(),
                           dirty=True)
        if rows is not None:
            dst = self._records.array
            for j, slot in enumerate(slots.tolist()):
                dst[slot] = rows[j]

    def _overwrite_random_slot(self, record: Record | None) -> None:
        slot = self._rng.randrange(self.capacity)
        block = slot // self.schema.records_per_block(self.device.block_size)
        # Read-modify-write through the pool: a miss reads the block and
        # may evict (write back) a dirty page; the new content stays
        # dirty in the pool until it is evicted in turn.
        self.pool.get(block)
        self.pool.mark_dirty(block)
        if self._records is not None and record is not None:
            self._records[slot] = record

    def _steady_flush(self, records, count, plan) -> None:  # pragma: no cover
        raise AssertionError("virtual-memory option never batch-flushes")
