"""The massive-rebuild ("scan") extension (paper Section 3.2, Algorithm 2).

"We could make use of all of our available main memory to buffer new
samples.  When the buffer fills, we simply scan the entire reservoir
and replace a random subset of the existing records with the new,
buffered samples. ... The drawback of this approach is that we are
effectively rebuilding the entire reservoir to process a set of
buffered records that are a small fraction of the existing reservoir
size."

Steady state therefore costs one full sequential read plus one full
sequential write of the reservoir per ``B`` new records -- fast I/O,
terrible amortisation.  Which buffered record replaces which resident
is Algorithm 2's uniform choice: a uniformly random ``B``-subset of the
``N`` residents (record mode realises it explicitly; count-only mode
needs no record bookkeeping at all).
"""

from __future__ import annotations

from ..pipeline import FlushPlan
from ..reservoir import draw_distinct
from ..storage.device import BlockDevice
from ..storage.recordbatch import RecordBatch
from .base import BufferedDiskReservoir, Cohort, DiskReservoirConfig


class ScanReservoir(BufferedDiskReservoir):
    """Reservoir rebuilt by a full sequential scan per buffer flush."""

    name = "scan"

    def __init__(self, device: BlockDevice, config: DiskReservoirConfig,
                 *, seed: int | None = 0) -> None:
        super().__init__(device, config, seed=seed)
        self._records: RecordBatch | None = None
        self._file_blocks = self.schema.blocks_for_records(
            config.capacity, device.block_size
        )
        if self._file_blocks > device.n_blocks:
            raise ValueError(
                f"device too small: reservoir needs {self._file_blocks} "
                f"blocks, device has {device.n_blocks}"
            )

    @classmethod
    def required_blocks(cls, config: DiskReservoirConfig,
                        block_size: int) -> int:
        from ..storage.records import RecordSchema

        schema = RecordSchema(config.record_size)
        return schema.blocks_for_records(config.capacity, block_size)

    def _finish_fill(self, records: RecordBatch | None) -> None:
        self._records = records
        self._cohorts = [Cohort(self.capacity, records=records)]

    def _stats_extra(self) -> dict:
        return {"file_blocks": self._file_blocks}

    def _steady_flush(self, records: RecordBatch | None,
                      count: int, plan: FlushPlan) -> None:
        """Read the whole file, splice in the new samples, write it back.

        The scan is charged as two full sequential passes in large
        bursts; with a big block size "most disk blocks will receive at
        least one new sample" (Section 3.2), so every block is
        rewritten.  The device charges are cost-only (the spliced
        records live in memory), so the elevator scheduler is free to
        run the rewrite pass before the scan pass.
        """
        self._charge_full_scan(plan)
        if records is not None:
            # Victims are distinct, so one fancy-index scatter splices
            # the whole flush without record objects.
            victims = draw_distinct(self._rng, self.capacity, count)
            self._records.array[victims] = records.array

    def _charge_full_scan(self, plan: FlushPlan) -> None:
        plan.read(0, self._file_blocks)
        plan.write(0, self._file_blocks)
