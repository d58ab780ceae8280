"""Unit tests for the Algorithm 2 sample buffer."""

import collections
import itertools
import random

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.core.buffer import SampleBuffer
from repro.storage.recordbatch import RecordBatch
from repro.storage.records import Record, RecordSchema
from test_batch_ingest import P_MIN

SCHEMA = RecordSchema(40)


def records(n):
    return [Record(key=i) for i in range(n)]


def slab_buffer(capacity, rng, **kwargs):
    """A record-keeping (slab) buffer."""
    return SampleBuffer(capacity, rng, schema=SCHEMA, **kwargs)


def weighted_buffer(capacity, rng):
    """A slab buffer with one aux column, where the biased files keep
    each record's effective weight."""
    return slab_buffer(capacity, rng, aux_width=1)


class TestAppend:
    def test_append_fills_in_order(self):
        buf = slab_buffer(5, random.Random(0))
        for r in records(3):
            buf.append(r)
        assert buf.count == 3 and not buf.is_full
        assert [r.key for r in buf] == [0, 1, 2]

    def test_append_beyond_capacity_rejected(self):
        buf = slab_buffer(2, random.Random(0))
        buf.append(Record(key=0))
        buf.append(Record(key=1))
        with pytest.raises(ValueError):
            buf.append(Record(key=2))

    def test_append_requires_record_in_retaining_mode(self):
        buf = slab_buffer(2, random.Random(0))
        with pytest.raises(ValueError):
            buf.append(None)

    def test_append_count_in_count_only_mode(self):
        buf = SampleBuffer(10, random.Random(0))
        buf.append_count(7)
        assert buf.count == 7
        with pytest.raises(ValueError):
            buf.append_count(4)  # would overfill

    def test_append_count_rejected_in_retaining_mode(self):
        buf = slab_buffer(10, random.Random(0))
        with pytest.raises(TypeError):
            buf.append_count(3)

    def test_iteration_rejected_in_count_only_mode(self):
        buf = SampleBuffer(10, random.Random(0))
        with pytest.raises(TypeError):
            list(buf)


class TestAddAdmitted:
    def test_first_admission_always_joins(self):
        buf = slab_buffer(5, random.Random(0))
        assert buf.add_admitted(Record(key=0), reservoir_size=100) is True
        assert buf.count == 1

    def test_replacement_probability_is_count_over_n(self):
        """Monte Carlo check of Algorithm 2's count(B)/|R| branch."""
        joins = 0
        trials = 4000
        for t in range(trials):
            buf = slab_buffer(100, random.Random(t))
            for r in records(50):
                buf.append(r)
            if buf.add_admitted(Record(key=999), reservoir_size=100):
                joins += 1
        # P(join) = 1 - 50/100 = 0.5.
        assert joins / trials == pytest.approx(0.5, abs=0.04)

    def test_replacement_does_not_change_count(self):
        buf = slab_buffer(10, random.Random(1))
        for r in records(9):
            buf.append(r)
        # reservoir_size == count makes replacement certain.
        joined = buf.add_admitted(Record(key=99), reservoir_size=9)
        assert joined is False
        assert buf.count == 9
        assert 99 in {r.key for r in buf}

    def test_full_buffer_rejected(self):
        buf = slab_buffer(2, random.Random(0))
        buf.append(Record(key=0))
        buf.append(Record(key=1))
        with pytest.raises(ValueError):
            buf.add_admitted(Record(key=2), reservoir_size=100)

    def test_replacement_slot_uniform(self):
        counts = collections.Counter()
        for t in range(3000):
            buf = slab_buffer(4, random.Random(t))
            for r in records(3):
                buf.append(r)
            buf.add_admitted(Record(key=99), reservoir_size=3)  # certain
            for index, record in enumerate(buf):
                if record.key == 99:
                    counts[index] += 1
        for slot in range(3):
            assert counts[slot] == pytest.approx(1000, abs=150)


class TestDrain:
    def test_drain_returns_everything_and_resets(self):
        buf = slab_buffer(5, random.Random(0))
        for r in records(5):
            buf.append(r)
        out, count = buf.drain()
        assert count == 5
        assert sorted(r.key for r in out) == [0, 1, 2, 3, 4]
        assert buf.take_aux() is None
        assert buf.count == 0

    def test_drain_shuffles(self):
        """Over many drains, each record appears at each position."""
        position_of_zero = collections.Counter()
        for t in range(2000):
            buf = slab_buffer(5, random.Random(t))
            for r in records(5):
                buf.append(r)
            out, _ = buf.drain()
            position_of_zero[[r.key for r in out].index(0)] += 1
        for pos in range(5):
            assert position_of_zero[pos] == pytest.approx(400, abs=100)

    def test_count_only_drain(self):
        buf = SampleBuffer(5, random.Random(0))
        buf.append_count(5)
        out, count = buf.drain()
        assert out is None and buf.take_aux() is None and count == 5


class TestDrainOrder:
    """Section 4.3's randomized flush order: every drain is uniform
    over the orders of its rows and independent of the drain before."""

    def drained_orders(self, drains: int):
        """Key orders of ``drains`` drains of one 4-row slab buffer."""
        buf = slab_buffer(4, random.Random(11))
        rows = RecordBatch.from_columns(SCHEMA, range(4))
        for _ in range(drains):
            buf.extend_batch(rows)
            out, _ = buf.drain()
            yield tuple(out.keys.tolist())

    def test_each_order_equally_often(self):
        counts = collections.Counter(self.drained_orders(24_000))
        orders = list(itertools.permutations(range(4)))
        assert set(counts) <= set(orders)
        observed = [counts[order] for order in orders]
        assert scipy_stats.chisquare(observed).pvalue > P_MIN

    def test_consecutive_drains_independent(self):
        table = np.zeros((4, 4), dtype=np.int64)
        orders = self.drained_orders(24_000)
        # zip over one iterator pairs drains 1-2, 3-4, ...
        for first, second in zip(orders, orders):
            table[first.index(0), second.index(0)] += 1
        assert scipy_stats.chi2_contingency(table).pvalue > P_MIN

    def test_drain_takes_one_word(self):
        """One 64-bit word of the ``random.Random`` per slab drain,
        nothing of the numpy generator; a count-only drain draws
        nothing."""
        rng, np_rng = random.Random(3), np.random.default_rng(3)
        buf = slab_buffer(4, rng, np_rng=np_rng)
        buf.extend_batch(RecordBatch.from_columns(SCHEMA, range(4)))
        twin = random.Random()
        twin.setstate(rng.getstate())
        np_state = np_rng.bit_generator.state
        buf.drain()
        twin.getrandbits(64)
        assert rng.getstate() == twin.getstate()
        assert np_rng.bit_generator.state == np_state
        counting = SampleBuffer(5, rng, np_rng=np_rng)
        counting.append_count(5)
        counting.drain()
        assert rng.getstate() == twin.getstate()
        assert np_rng.bit_generator.state == np_state


class TestWeights:
    """A per-record weight rides aux column 0 (the biased files' layout)."""

    def test_weighted_mode_keeps_pairs_aligned(self):
        buf = weighted_buffer(5, random.Random(3))
        for r in records(5):
            buf.append(r, aux=(float(r.key) + 1.0,))
        out, _ = buf.drain()
        weights = buf.take_aux()[:, 0]
        for record, weight in zip(out, weights):
            assert weight == pytest.approx(record.key + 1.0)

    def test_scale_weights(self):
        """Scaling the live aux view in place (the biased files' epoch
        fold) scales what the drain hands back."""
        buf = weighted_buffer(3, random.Random(0))
        buf.append(Record(key=0), aux=(2.0,))
        buf.aux_view()[:, 0] *= 3.0
        buf.drain()
        assert buf.take_aux()[:, 0].tolist() == [pytest.approx(6.0)]

    def test_scale_requires_weighted_mode(self):
        buf = slab_buffer(3, random.Random(0))
        with pytest.raises(TypeError):
            buf.aux_view()

    def test_scale_factor_must_be_positive(self):
        """Aux widths are validated: none may be negative, and aux
        columns need a record-keeping buffer."""
        with pytest.raises(ValueError):
            slab_buffer(3, random.Random(0), aux_width=-1)
        with pytest.raises(ValueError):
            SampleBuffer(3, random.Random(0), aux_width=1)

    def test_cannot_switch_to_weighted_mid_fill(self):
        buf = slab_buffer(3, random.Random(0))
        buf.append(Record(key=0))
        with pytest.raises(TypeError):
            buf.append(Record(key=1), aux=(1.0,))

    def test_weighted_mode_requires_weight_every_time(self):
        buf = weighted_buffer(3, random.Random(0))
        buf.append(Record(key=0), aux=(1.0,))
        with pytest.raises(TypeError):
            buf.append(Record(key=1))
        with pytest.raises(TypeError):
            buf.add_admitted(Record(key=1), reservoir_size=100)
        assert buf.count == 1

    def test_replacement_updates_weight(self):
        buf = weighted_buffer(4, random.Random(2))
        for r in records(3):
            buf.append(r, aux=(1.0,))
        joined = buf.add_admitted(Record(key=99), reservoir_size=3,
                                  aux=(7.0,))
        assert joined is False  # reservoir_size == count: certain
        out, _ = buf.drain()
        by_key = {r.key: w for r, w in zip(out, buf.take_aux()[:, 0])}
        assert by_key[99] == pytest.approx(7.0)
        assert sorted(by_key.values()).count(1.0) == 2

    def test_weights_survive_drain_reset(self):
        buf = weighted_buffer(2, random.Random(0))
        buf.append(Record(key=0), aux=(1.0,))
        buf.drain()
        buf.take_aux()
        buf.append(Record(key=1), aux=(2.0,))
        buf.drain()
        assert buf.take_aux()[:, 0].tolist() == [pytest.approx(2.0)]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            slab_buffer(0, random.Random(0))
