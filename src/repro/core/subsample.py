"""Per-subsample bookkeeping.

A *subsample* is the set of records that entered the reservoir in one
emptying of the buffer (Section 4.1).  Physically it owns a rung of
slots in the file layout (one slot per segment level it still holds), a
pre-allocated LIFO stack region, and an in-memory tail group of about
``beta`` records.  Logically it is just a bag of live records that
shrinks as later flushes evict from it.

The ledger reconciles the two views.  Each flush evicts some random
number ``k`` of the subsample's records (the multivariate-hypergeometric
draw of Algorithm 3); physically the subsample gives up *exactly its
largest remaining segment* when its file is written (Section 4.3).  The
signed difference flows through the LIFO stack:

* balance rises -- Case 1 of Section 4.5: the subsample lost fewer
  records than its released segment held, so the surplus records are
  *pushed* to its stack;
* balance falls -- Case 2: more records lost than the segment held, so
  records are *popped* from the stack.

The paper sizes stacks at ``3 * sqrt(B)`` records so that overflow is a
~1e-9 event (Section 4.5.1).  At unit-test scale deviations are routine,
so the balance is *signed*: a negative balance is "ghost debt" --
records physically still inside not-yet-released segments but logically
evicted, repaid when those segments are released.  This keeps the
logical sample exact at any scale while preserving the paper's I/O
pattern; see DESIGN.md (design decision 2).

Implementation note: segments and slots are consumed front-to-back via
head indices rather than ``list.pop(0)`` -- at high reservoir-to-buffer
ratios a subsample can hold tens of thousands of segments, and the
per-flush release loop must stay O(1) per subsample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from ..storage.recordbatch import RecordBatch


@dataclass
class StackEvent:
    """Net stack traffic since the previous reconciliation."""

    pushed: int = 0
    popped: int = 0

    @property
    def touched(self) -> bool:
        return self.pushed > 0 or self.popped > 0


class SubsampleLedger:
    """Logical and physical state of one subsample.

    Args:
        ident: creation index of the subsample (0 = first ever flushed).
        segment_sizes: physical slot sizes this subsample starts with,
            largest (level ``first_level``) first.
        first_level: ladder level of the first entry of
            ``segment_sizes`` (initial subsamples created during
            start-up begin part-way down the ladder, Figure 3 b-c).
        tail_size: records of the in-memory group.
        records: the live records as a
            :class:`~repro.storage.recordbatch.RecordBatch` slab, when
            the caller retains them; ``None`` for count-only operation.
            When given, the slab must already be in uniform random
            order -- evictions pop from the end, which is a uniform
            choice for an exchangeable (pre-shuffled) sequence.
        stack_capacity: physical stack region size in records
            (``3 * sqrt(B)`` in the paper); exceeding it sets
            :attr:`overflowed` rather than failing, because the paper's
            response to overflow (an online reorganisation) is exactly
            what the sizing rule exists to avoid, and the benchmarks
            measure how often it would have been needed.

    Invariant (checked by :meth:`check_invariant`):
        ``live == physical_disk_records + tail_size + stack_balance``.
    """

    def __init__(self, ident: int, segment_sizes: Iterable[int],
                 first_level: int, tail_size: int,
                 records: "RecordBatch | None" = None,
                 stack_capacity: int | None = None) -> None:
        self.ident = ident
        self._sizes = list(segment_sizes)
        self._head = 0
        self.first_level = first_level
        self.tail_size = tail_size
        if any(s <= 0 for s in self._sizes):
            raise ValueError("segment sizes must be positive")
        if tail_size < 0:
            raise ValueError("tail size must be non-negative")
        self._physical = sum(self._sizes)
        self.live = self._physical + tail_size
        self.records = records
        if records is not None and len(records) != self.live:
            raise ValueError(
                f"got {len(records)} records for a subsample of {self.live}"
            )
        #: Auxiliary float64 rows parallel to ``records`` (a sampling
        #: law's keys and stream positions, the biased file's effective
        #: weight); trimmed in lock-step by :meth:`evict` /
        #: :meth:`evict_indices`.
        self.aux = None
        #: Signed: records in the stack region (+) or ghost debt (-).
        self.stack_balance = 0
        self._slots: list[int] = []
        self._slots_head = 0
        #: Index of the pre-allocated stack region assigned to this
        #: subsample (set by the owning file).
        self.stack_region = 0
        self.stack_capacity = stack_capacity
        self.overflowed = False
        self.max_stack_balance = 0
        self._reconciled_balance = 0

    # -- observers --------------------------------------------------------

    @property
    def segment_sizes(self) -> list[int]:
        """Remaining segment sizes, largest first (a copy; cold paths
        only -- hot paths use the O(1) accessors below)."""
        return self._sizes[self._head:]

    @property
    def n_disk_segments(self) -> int:
        return len(self._sizes) - self._head

    @property
    def has_disk_segments(self) -> bool:
        return self._head < len(self._sizes)

    @property
    def largest_segment(self) -> int:
        """Size of the next segment to be surrendered (0 if none left)."""
        if self._head < len(self._sizes):
            return self._sizes[self._head]
        return 0

    @property
    def current_level(self) -> int:
        """Ladder level of the largest remaining segment."""
        return self.first_level

    @property
    def physical_disk_records(self) -> int:
        """Records accounted to disk slots (before stack adjustment)."""
        return self._physical

    @property
    def is_dead(self) -> bool:
        return self.live == 0

    @property
    def slots(self) -> list[int]:
        """Remaining physical slot indices, parallel to segment_sizes."""
        return self._slots[self._slots_head:]

    def check_invariant(self) -> None:
        """Assert the ledger's conservation law holds."""
        expected = (self._physical + self.tail_size + self.stack_balance)
        if self.live != expected:
            raise AssertionError(
                f"subsample {self.ident}: live={self.live} but "
                f"slots+tail+stack={expected}"
            )
        if self._physical != sum(self._sizes[self._head:]):
            raise AssertionError(
                f"subsample {self.ident}: physical counter out of sync"
            )
        if self.records is not None and len(self.records) != self.live:
            raise AssertionError(
                f"subsample {self.ident}: {len(self.records)} records "
                f"for live={self.live}"
            )
        if self.aux is not None and len(self.aux) != self.live:
            raise AssertionError(
                f"subsample {self.ident}: {len(self.aux)} aux rows "
                f"for live={self.live}"
            )

    # -- slot bookkeeping ---------------------------------------------------

    def push_slot(self, slot: int) -> None:
        """Record the physical slot index for the next-deeper level."""
        self._slots.append(slot)

    def pop_slot(self) -> int | None:
        """Surrender the slot of the level about to be released."""
        if self._slots_head >= len(self._slots):
            return None
        slot = self._slots[self._slots_head]
        self._slots_head += 1
        return slot

    # -- mutation ---------------------------------------------------------

    def evict(self, k: int) -> None:
        """Remove ``k`` logically-live records (one flush's toll).

        Physical space is not touched here: while disk segments remain,
        the loss is booked against the stack balance (possibly driving
        it into ghost debt); a tail-only subsample shrinks its memory
        tail / stack share directly, as Section 4.5 prescribes
        ("overflow or underflow can be handled efficiently by adding or
        removing records directly").
        """
        if k < 0:
            raise ValueError("cannot evict a negative count")
        if k > self.live:
            raise ValueError(
                f"evicting {k} from subsample {self.ident} with only "
                f"{self.live} live records"
            )
        self.live -= k
        if self.records is not None:
            del self.records[len(self.records) - k:]
        if self.aux is not None:
            self.aux = self.aux[:len(self.aux) - k]
        if self._head < len(self._sizes):
            self.stack_balance -= k
        else:
            self._shrink_tail_only(k)

    def evict_indices(self, indices) -> None:
        """Remove specific live records by index (non-uniform laws).

        Uniform eviction pops a count from the end of an exchangeable
        sequence; key-based laws name their victims instead.  The
        stack-balance booking is identical -- only *how many* records
        died matters to the physical layout; *which* ones is purely a
        logical-sample concern tracked through ``records`` / ``aux``.
        Ghost debt semantics carry over unchanged: victims may still
        sit inside not-yet-released segments.
        """
        victims = np.asarray(indices, dtype=np.intp)
        k = int(victims.shape[0])
        if k == 0:
            return
        if k > self.live:
            raise ValueError(
                f"evicting {k} from subsample {self.ident} with only "
                f"{self.live} live records"
            )
        if self.records is None:
            raise TypeError("evict_indices needs retained records")
        keep = np.ones(len(self.records), dtype=bool)
        keep[victims] = False
        if keep.sum() != self.live - k:
            raise ValueError("eviction indices must be distinct and in "
                             "range")
        self.live -= k
        self.records = self.records.take(np.flatnonzero(keep))
        if self.aux is not None:
            self.aux = self.aux[keep]
        if self._head < len(self._sizes):
            self.stack_balance -= k
        else:
            self._shrink_tail_only(k)

    def release_segment(self) -> int:
        """Surrender the largest remaining disk segment (Section 4.3).

        The released slot's records move (logically) into the stack:
        the new subsample's matching segment overwrites the slot, and
        whatever the evictions since the last release did not account
        for is the Case 1 / Case 2 surplus now carried by the stack.

        Returns:
            The released slot size in records (the caller charges the
            overwrite I/O).
        """
        if self._head >= len(self._sizes):
            raise ValueError(f"subsample {self.ident} has no disk segments")
        released = self._sizes[self._head]
        self._head += 1
        self._physical -= released
        self.first_level += 1
        self.stack_balance += released
        if self.stack_balance > self.max_stack_balance:
            self.max_stack_balance = self.stack_balance
        if (self.stack_capacity is not None
                and self.stack_balance > self.stack_capacity):
            self.overflowed = True
        if self._head >= len(self._sizes):
            self._settle_after_last_segment()
        return released

    def reconcile_stack(self) -> StackEvent:
        """Report (and reset) stack traffic since the last reconciliation.

        In a single geometric file this is called every flush; with
        multiple files it is called only when this subsample's file is
        written, implementing Section 6's lazy stack maintenance.  The
        caller charges one stack-region write per reconciliation that
        pushed records (pops only move the stack pointer).
        """
        delta = self.stack_balance - self._reconciled_balance
        self._reconciled_balance = self.stack_balance
        return StackEvent(pushed=max(0, delta), popped=max(0, -delta))

    # -- internals --------------------------------------------------------

    def _shrink_tail_only(self, k: int) -> None:
        """Tail-only eviction: drain the stack share first, then the tail."""
        from_stack = min(k, max(0, self.stack_balance))
        self.stack_balance -= from_stack
        self.tail_size -= (k - from_stack)
        if self.tail_size < 0:
            raise AssertionError(
                f"subsample {self.ident}: tail went negative"
            )

    def _settle_after_last_segment(self) -> None:
        """Resolve ghost debt once no disk segments remain to repay it."""
        if self.stack_balance < 0:
            debt = -self.stack_balance
            if debt > self.tail_size:
                raise AssertionError(
                    f"subsample {self.ident}: ghost debt {debt} exceeds "
                    f"tail {self.tail_size}"
                )
            self.tail_size -= debt
            self.stack_balance = 0

    def fold_stack_into_tail(self) -> int:
        """Move surplus stack records into the in-memory tail group.

        Called by the file once the subsample surrenders its last disk
        segment, freeing its pre-allocated stack region for reuse by
        younger subsamples.  Returns the number of records folded (the
        caller charges one stack-region read for them); the memory cost
        is O(sqrt(B)) per tail-only subsample.
        """
        if self.has_disk_segments:
            raise ValueError("cannot fold while disk segments remain")
        folded = max(0, self.stack_balance)
        self.tail_size += folded
        self.stack_balance = 0
        self._reconciled_balance = 0
        return folded

    # -- checkpoint support -------------------------------------------------

    def restore_layout_state(self, segment_sizes: list[int],
                             slots: list[int]) -> None:
        """Reset the physical layout view (checkpoint recovery only)."""
        self._sizes = list(segment_sizes)
        self._head = 0
        self._physical = sum(self._sizes)
        self._slots = list(slots)
        self._slots_head = 0
