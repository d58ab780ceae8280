"""Unit tests for the per-subsample ledger (paper Sections 4.3-4.5)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subsample import SubsampleLedger
from repro.storage.recordbatch import RecordBatch
from repro.storage.records import Record, RecordSchema


def make_ledger(sizes=(40, 30, 20), tail=10, with_records=False,
                stack_capacity=None):
    live = sum(sizes) + tail
    records = (RecordBatch.from_records(
        RecordSchema(40), [Record(key=i) for i in range(live)])
        if with_records else None)
    return SubsampleLedger(0, list(sizes), 0, tail, records,
                           stack_capacity=stack_capacity)


class TestConstruction:
    def test_live_is_slots_plus_tail(self):
        ledger = make_ledger((40, 30, 20), tail=10)
        assert ledger.live == 100
        ledger.check_invariant()

    def test_record_count_must_match(self):
        with pytest.raises(ValueError):
            SubsampleLedger(0, [10], 0, 0, [Record(key=1)])

    def test_rejects_nonpositive_segments(self):
        with pytest.raises(ValueError):
            SubsampleLedger(0, [10, 0], 0, 5)

    def test_rejects_negative_tail(self):
        with pytest.raises(ValueError):
            SubsampleLedger(0, [10], 0, -1)

    def test_largest_segment(self):
        ledger = make_ledger((40, 30, 20))
        assert ledger.largest_segment == 40
        assert make_ledger((), tail=5).largest_segment == 0


class TestEvictAndRelease:
    def test_release_matches_evictions_exactly(self):
        """When k == segment size, the stack is untouched."""
        ledger = make_ledger((40, 30), tail=10)
        ledger.evict(40)
        ledger.release_segment()
        assert ledger.stack_balance == 0
        assert ledger.live == 40
        ledger.check_invariant()

    def test_case_1_surplus_pushes(self):
        """Fewer evictions than the released segment (paper Case 1)."""
        ledger = make_ledger((40, 30), tail=10)
        ledger.evict(35)
        released = ledger.release_segment()
        assert released == 40
        assert ledger.stack_balance == 5
        event = ledger.reconcile_stack()
        assert event.pushed == 5 and event.popped == 0
        ledger.check_invariant()

    def test_case_2_deficit_pops(self):
        """More evictions than the segment; pops from prior surplus."""
        ledger = make_ledger((40, 30, 20), tail=10)
        ledger.evict(30)
        ledger.release_segment()   # balance +10
        ledger.reconcile_stack()
        ledger.evict(35)
        ledger.release_segment()   # releases 30, balance 10-35+30 = +5
        event = ledger.reconcile_stack()
        assert event.popped == 5
        assert ledger.stack_balance == 5
        ledger.check_invariant()

    def test_ghost_debt_carried_and_repaid(self):
        """Evictions beyond the stack go into (negative) ghost debt."""
        ledger = make_ledger((40, 30), tail=10)
        ledger.evict(50)
        ledger.release_segment()
        assert ledger.stack_balance == -10
        ledger.check_invariant()
        # The next release repays the debt.
        ledger.evict(10)
        ledger.release_segment()
        assert ledger.stack_balance == 10
        ledger.check_invariant()

    def test_debt_settled_from_tail_after_last_segment(self):
        ledger = make_ledger((40,), tail=10)
        ledger.evict(45)
        ledger.release_segment()
        # 45 evicted, 40 physical released: 5 debited from the tail.
        assert ledger.stack_balance == 0
        assert ledger.tail_size == 5
        assert ledger.live == 5
        ledger.check_invariant()

    def test_release_without_segments_raises(self):
        ledger = make_ledger((), tail=5)
        with pytest.raises(ValueError):
            ledger.release_segment()

    def test_evict_more_than_live_raises(self):
        ledger = make_ledger((10,), tail=0)
        with pytest.raises(ValueError):
            ledger.evict(11)

    def test_evict_negative_raises(self):
        with pytest.raises(ValueError):
            make_ledger().evict(-1)

    def test_level_advances_per_release(self):
        ledger = make_ledger((40, 30, 20))
        assert ledger.current_level == 0
        ledger.evict(40)
        ledger.release_segment()
        assert ledger.current_level == 1
        assert ledger.n_disk_segments == 2


class TestTailOnlyPhase:
    def test_tail_evictions_drain_stack_first(self):
        ledger = make_ledger((40,), tail=10)
        ledger.evict(30)
        ledger.release_segment()    # balance +10, tail 10, live 20
        assert ledger.stack_balance == 10
        ledger.evict(15)
        assert ledger.stack_balance == 0
        assert ledger.tail_size == 5
        ledger.check_invariant()

    def test_death(self):
        ledger = make_ledger((), tail=5)
        ledger.evict(5)
        assert ledger.is_dead
        ledger.check_invariant()

    def test_fold_stack_into_tail(self):
        ledger = make_ledger((40,), tail=10)
        ledger.evict(30)
        ledger.release_segment()
        folded = ledger.fold_stack_into_tail()
        assert folded == 10
        assert ledger.stack_balance == 0
        assert ledger.tail_size == 20
        ledger.check_invariant()

    def test_fold_with_segments_remaining_raises(self):
        ledger = make_ledger((40, 30))
        with pytest.raises(ValueError):
            ledger.fold_stack_into_tail()


class TestRecordTracking:
    def test_eviction_trims_records(self):
        ledger = make_ledger((40, 30), tail=10, with_records=True)
        ledger.evict(25)
        assert len(ledger.records) == 55
        ledger.check_invariant()

    def test_weights_trim_in_lockstep(self):
        """Weights ride an aux column, trimmed with the records."""
        ledger = make_ledger((10,), tail=0, with_records=True)
        ledger.aux = np.arange(10, dtype=np.float64).reshape(-1, 1)
        ledger.evict(4)
        assert len(ledger.aux) == len(ledger.records) == 6
        assert ledger.aux[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert ledger.records.keys.tolist() == [0, 1, 2, 3, 4, 5]
        ledger.check_invariant()


class TestOverflowDetection:
    def test_overflow_flag_set(self):
        ledger = make_ledger((40, 30), tail=10, stack_capacity=5)
        ledger.evict(20)
        ledger.release_segment()  # balance +20 > capacity 5
        assert ledger.overflowed
        assert ledger.max_stack_balance == 20

    def test_no_overflow_within_capacity(self):
        ledger = make_ledger((40, 30), tail=10, stack_capacity=50)
        ledger.evict(20)
        ledger.release_segment()
        assert not ledger.overflowed


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_invariant_under_random_operation_sequences(data):
    """Property: any legal evict/release/reconcile sequence keeps
    live == slots + tail + stack balance, and live never goes negative."""
    n_segments = data.draw(st.integers(1, 6))
    sizes = [data.draw(st.integers(1, 50)) for _ in range(n_segments)]
    tail = data.draw(st.integers(0, 30))
    ledger = SubsampleLedger(0, sizes, 0, tail)
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    for _ in range(data.draw(st.integers(1, 40))):
        action = rng.choice(["evict", "release", "reconcile"])
        if action == "evict" and ledger.live > 0:
            k = rng.randint(0, ledger.live)
            # Ghost debt can only be repaid while segments remain; keep
            # the sequence legal the way the file does: a tail-only
            # subsample is never evicted below zero.
            ledger.evict(k)
        elif action == "release" and ledger.segment_sizes:
            ledger.release_segment()
        elif action == "reconcile":
            event = ledger.reconcile_stack()
            assert event.pushed >= 0 and event.popped >= 0
        ledger.check_invariant()
        assert ledger.live >= 0
