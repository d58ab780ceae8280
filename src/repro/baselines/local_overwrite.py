"""The localized-overwrite extension (paper Section 3.2, third alternative).

"If data are clustered randomly, then we can simply write the buffer
sequentially to disk at any arbitrary position. ... The problem with
this solution is that after the buffered samples are added, the data
are no longer clustered randomly ... Any subsequent buffer flush will
need to overwrite portions of both the new and the old records to
preserve the algorithm's correctness, requiring an additional random
disk head movement.  With each subsequent flush, maintaining randomness
will become more costly, as data become more and more clustered by
insertion time."

Model.  The reservoir is a union of *cohorts* -- groups of records
written by the same flush, each internally in random order (the buffer
is randomized before writing).  The initial fill is one cohort of ``N``
records.  A flush must evict a uniform random ``B``-subset of the
reservoir, i.e. a hypergeometric share from every cohort.  Because a
cohort's records sit in random order, *any* contiguous run of positions
inside it is a uniform random subset of it -- that is the whole point
of the scheme -- so the flush needs exactly one contiguous write per
cohort it touches: one random head movement each.  All the pieces a
flush writes together form one *new* cohort (physically scattered into
several fragments, but fragments do not matter: future flushes again
need only one contiguous piece per cohort, placed in any
sufficiently-large fragment).

We charge one seek per cohort touched plus the sequential transfer.
This is the charitable reading -- when no single fragment of a cohort
can absorb its whole piece the write must split, costing extra seeks we
do not charge -- so the measured degradation is a lower bound on the
real one.  Cohorts die when their last record is evicted, which bounds
the cohort count (and the per-flush seek bill) near
``ln(B) / (1 - alpha)``; the paper's observed behaviour -- great at
first, steadily worse, never recovering without an offline
re-randomization -- follows.
"""

from __future__ import annotations

from ..pipeline import FlushPlan
from ..reservoir import bulk_generator, draw_victim_counts
from ..storage.device import BlockDevice
from ..storage.recordbatch import RecordBatch
from .base import BufferedDiskReservoir, Cohort, DiskReservoirConfig


class LocalOverwriteReservoir(BufferedDiskReservoir):
    """Reservoir maintained by per-cohort localized sequential writes."""

    name = "local overwrite"

    def __init__(self, device: BlockDevice, config: DiskReservoirConfig,
                 *, seed: int | None = 0) -> None:
        super().__init__(device, config, seed=seed)
        self._file_blocks = self.schema.blocks_for_records(
            config.capacity, device.block_size
        )
        if self._file_blocks > device.n_blocks:
            raise ValueError(
                f"device too small: reservoir needs {self._file_blocks} "
                f"blocks, device has {device.n_blocks}"
            )
        #: Peak number of cohorts touched in a single flush (diagnostic).
        self.max_cohorts_touched = 0

    @classmethod
    def required_blocks(cls, config: DiskReservoirConfig,
                        block_size: int) -> int:
        from ..storage.records import RecordSchema

        schema = RecordSchema(config.record_size)
        return schema.blocks_for_records(config.capacity, block_size)

    @property
    def n_cohorts(self) -> int:
        return len(self._cohorts)

    def _stats_extra(self) -> dict:
        return {
            "n_cohorts": self.n_cohorts,
            "max_cohorts_touched": self.max_cohorts_touched,
        }

    def _finish_fill(self, records: RecordBatch | None) -> None:
        if records is not None:
            # The fill is clustered randomly: one permutation, realised
            # as one take.
            records = records.take(
                bulk_generator(self._rng).permutation(len(records)))
        self._cohorts = [Cohort(live=self.capacity, region_block=0,
                                records=records)]

    def _steady_flush(self, records: RecordBatch | None,
                      count: int, plan: FlushPlan) -> None:
        """Evict a uniform B-subset cohort-by-cohort; write one piece each.

        The eviction split is the same multivariate hypergeometric draw
        the geometric file uses (it is forced by correctness, not by
        the data structure).  Cohort writes land in the plan in cohort
        order; the elevator scheduler sorts them by region address and
        merges adjacent pieces, which is where the multi-cohort seek
        bill shrinks.
        """
        shares = self._hypergeometric_split(count)
        touched = 0
        first_region = 0
        for cohort, share in zip(self._cohorts, shares):
            if share == 0:
                continue
            touched += 1
            cohort.live -= share
            if cohort.records is not None:
                del cohort.records[len(cohort.records) - share:]
            # One head movement into this cohort's region, then a
            # sequential write of this cohort's piece of the flush.
            blocks = max(1, self.schema.blocks_for_records(
                share, self.device.block_size
            ))
            plan.write(cohort.region_block, blocks)
            if touched == 1:
                first_region = cohort.region_block
        self._cohorts = [c for c in self._cohorts if c.live > 0]
        # Everything this flush wrote is one cohort, whatever fragments
        # it physically landed in.
        self._cohorts.append(Cohort(live=count, region_block=first_region,
                                    records=records))
        if touched > self.max_cohorts_touched:
            self.max_cohorts_touched = touched

    def _hypergeometric_split(self, count: int) -> list[int]:
        lives = [cohort.live for cohort in self._cohorts]
        return draw_victim_counts(self._np_rng, lives, count)
