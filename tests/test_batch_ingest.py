"""Equivalence tests for the batch-ingestion pipeline.

The batch paths (``offer_many``, ``SampleBuffer.absorb_batch``,
``gaps_z``, batched ``feed_stream``) draw their randomness from a numpy
generator while the scalar paths use ``random.Random``, so bit-exact
agreement is impossible; what *is* provable -- and asserted here with
fixed-seed chi-square / KS tests -- is distributional identity:

* admissions follow the same N/i law record by record;
* in-buffer replacement follows the same count/|R| law;
* gap draws follow Vitter's exact skip distribution, including across
  the internal block boundaries (a regression test for a subtle bug:
  redrawing a block's trailing *misses* would give those stream
  positions a second acceptance chance);
* the chunked admission counter matches the dense draw it replaced.

Where the two paths share no randomness at all -- flush cadence in
``admission="always"`` mode, where admitted == seen -- equality is
EXACT and asserted exactly (clock, flushes, I/O counters).
"""

from __future__ import annotations

import collections
import random

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import keyed_records, make_geometric_file, make_multi_file
from repro.baselines import DiskReservoirConfig, ScanReservoir
from repro.core.buffer import SampleBuffer
from repro.reservoir import (
    StreamReservoir,
    VictimScratch,
    draw_victim_counts,
    draw_victim_counts_array,
)
from repro.sampling import feed_stream, gaps_z, skip_count_x
from repro.storage.device import MemoryBlockDevice
from repro.storage.recordbatch import RecordBatch
from repro.storage.records import RecordSchema

#: Significance floor for the chi-square / KS assertions.  Fixed seeds
#: make the tests deterministic, so this is a one-time check that the
#: realised draw is consistent with the claimed distribution, not a
#: flaky gate.
P_MIN = 0.01


def chi_square_p(observed: dict, expected: dict, *, min_expected=20.0):
    """Chi-square p-value over the categories with enough mass."""
    obs, exp = [], []
    for key, want in expected.items():
        if want >= min_expected:
            obs.append(observed.get(key, 0))
            exp.append(want)
    exp = np.asarray(exp, dtype=float)
    exp *= sum(obs) / exp.sum()
    return scipy_stats.chisquare(obs, exp).pvalue


class _CountingReservoir(StreamReservoir):
    """Minimal concrete structure: records admissions, nothing else."""

    name = "counting"

    def __init__(self, capacity, *, admission="uniform", seed=0):
        super().__init__(capacity, admission=admission, seed=seed)
        self.admitted_records = []

    def _admit(self, record):
        self.admitted_records.append(record)

    def _admit_count(self, n):
        self.admitted_records.extend([None] * n)


class TestOfferMany:
    def test_fill_phase_admits_everything(self):
        r = _CountingReservoir(100)
        assert r.offer_many(list(range(60))) == 60
        # The second batch straddles the fill boundary: positions
        # 61..100 are certain, 101..120 probabilistic.
        admitted = r.offer_many(list(range(60, 120)))
        assert 40 <= admitted <= 60
        assert r.stats().seen == 120
        assert r.admitted_records[:100] == list(range(100))

    def test_always_mode_admits_everything(self):
        r = _CountingReservoir(10, admission="always")
        assert r.offer_many(list(range(5000))) == 5000

    def test_empty_batch_is_noop(self):
        r = _CountingReservoir(10)
        assert r.offer_many([]) == 0
        assert r.stats().seen == 0

    def test_matches_scalar_admission_law(self):
        """Chi-square: P[record j admitted] = N/j on both paths."""
        trials, capacity, stream = 300, 40, 400
        batch_counts = collections.Counter()
        scalar_counts = collections.Counter()
        for t in range(trials):
            a = _CountingReservoir(capacity, seed=t)
            for start in range(0, stream, 64):
                a.offer_many(list(range(start, min(start + 64, stream))))
            batch_counts.update(a.admitted_records)
            b = _CountingReservoir(capacity, seed=t + 10 ** 6)
            for j in range(stream):
                b.offer(j)
            scalar_counts.update(b.admitted_records)
        expected = {j: trials * min(1.0, capacity / (j + 1))
                    for j in range(stream)}
        assert chi_square_p(batch_counts, expected) > P_MIN
        assert chi_square_p(scalar_counts, expected) > P_MIN

    def test_admitted_count_distribution_matches(self):
        """KS: total admissions per run agree between the paths."""
        trials, capacity, stream = 200, 30, 600
        batch, scalar = [], []
        for t in range(trials):
            a = _CountingReservoir(capacity, seed=t)
            a.offer_many(list(range(stream)))
            batch.append(len(a.admitted_records))
            b = _CountingReservoir(capacity, seed=t + 10 ** 6)
            for j in range(stream):
                b.offer(j)
            scalar.append(len(b.admitted_records))
        assert scipy_stats.ks_2samp(batch, scalar).pvalue > P_MIN


SCHEMA = RecordSchema(40)


class TestAbsorbMany:
    """``absorb_batch`` (the slab buffer's vectorised Algorithm 2)
    against a loop of ``add_admitted``."""

    def _final_keys(self, batched: bool, seed: int, reservoir_size=500,
                    capacity=40, stream=120):
        rng = random.Random(seed)
        buffer = SampleBuffer(capacity, rng, schema=SCHEMA)
        records = keyed_records(stream)
        if batched:
            consumed = buffer.absorb_batch(
                RecordBatch.from_records(SCHEMA, records), reservoir_size)
        else:
            consumed = 0
            while consumed < stream and not buffer.is_full:
                buffer.add_admitted(records[consumed], reservoir_size)
                consumed += 1
        return [r.key for r in buffer], consumed

    def test_content_distribution_matches(self):
        trials = 400
        batch_counts = collections.Counter()
        scalar_counts = collections.Counter()
        per_trial = None
        for t in range(trials):
            keys, consumed = self._final_keys(True, seed=t)
            batch_counts.update(keys)
            per_trial = len(keys)
            keys, _ = self._final_keys(False, seed=t + 10 ** 6)
            scalar_counts.update(keys)
        # Both paths must fill the buffer exactly.
        assert per_trial == 40
        batch_keys = sorted(batch_counts.elements())
        scalar_keys = sorted(scalar_counts.elements())
        p = scipy_stats.ks_2samp(batch_keys, scalar_keys).pvalue
        assert p > P_MIN

    def test_consumed_matches_flush_boundary(self):
        """Both paths stop at the same is_full boundary law (KS)."""
        batch, scalar = [], []
        for t in range(300):
            _, consumed = self._final_keys(True, seed=t, reservoir_size=60,
                                           capacity=30, stream=200)
            batch.append(consumed)
            _, consumed = self._final_keys(False, seed=t + 10 ** 6,
                                           reservoir_size=60,
                                           capacity=30, stream=200)
            scalar.append(consumed)
        assert scipy_stats.ks_2samp(batch, scalar).pvalue > P_MIN

    def test_full_buffer_raises(self):
        buffer = SampleBuffer(4, random.Random(0))
        buffer.append_count(4)
        with pytest.raises(ValueError):
            buffer.absorb_count(3, 100)
        slabs = SampleBuffer(2, random.Random(0), schema=SCHEMA)
        batch = RecordBatch.from_records(SCHEMA, keyed_records(3))
        slabs.extend_batch(batch[:2])
        with pytest.raises(ValueError):
            slabs.absorb_batch(batch, 100)

    def test_weighted_buffer_rejects_batch(self):
        """A buffer carrying a weight per record (an aux column) admits
        per record, so each replacement can write the weight too."""
        buffer = SampleBuffer(8, random.Random(0), schema=SCHEMA,
                              aux_width=1)
        buffer.append(keyed_records(1)[0], aux=(2.0,))
        batch = RecordBatch.from_records(SCHEMA, keyed_records(3))
        with pytest.raises(TypeError):
            buffer.absorb_batch(batch, 100)
        with pytest.raises(TypeError):
            buffer.extend_batch(batch)

    def test_extend_overfill_raises(self):
        buffer = SampleBuffer(4, random.Random(0), schema=SCHEMA)
        with pytest.raises(ValueError):
            buffer.extend_batch(
                RecordBatch.from_records(SCHEMA, keyed_records(5)))

    def test_retaining_extend_rejects_none(self):
        """A record list reaching a slab buffer is encoded once at the
        edge, and a ``None`` entry is refused there, as ``append``
        refuses it -- during start-up and in steady state alike."""
        for n in (10, 500):
            gf = make_geometric_file(capacity=200, buffer_capacity=20,
                                     admission="always")
            gf.offer_many(keyed_records(n))
            with pytest.raises(ValueError, match="needs the record"):
                gf.offer_many([keyed_records(1)[0], None])

    def test_retaining_absorb_rejects_none(self):
        """The baselines' batch path matches ``add_admitted``'s None
        check too."""
        config = DiskReservoirConfig(capacity=50, buffer_capacity=10,
                                     record_size=40, retain_records=True)
        scan = ScanReservoir(MemoryBlockDevice(64, 4096), config)
        scan.offer_many(keyed_records(60))
        with pytest.raises(ValueError, match="needs the record"):
            scan.offer_many(keyed_records(3) + [None])


class TestGapsZ:
    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gaps_z(10, 5, 4, rng)  # reservoir not full
        with pytest.raises(ValueError):
            gaps_z(0, 5, 4, rng)
        with pytest.raises(ValueError):
            gaps_z(10, 10, -1, rng)
        assert gaps_z(10, 10, 0, rng).shape == (0,)

    def test_first_gap_matches_algorithm_x(self):
        """Chi-square against the *exact* skip law, KS between paths."""
        n, seen, trials = 25, 80, 4000
        np_rng = np.random.default_rng(3)
        py_rng = random.Random(3)
        batch = [int(gaps_z(n, seen, 1, np_rng)[0])
                 for _ in range(trials)]
        scalar = [skip_count_x(n, seen, py_rng) for _ in range(trials)]
        # Exact pmf: P[gap >= s] = prod_{j=1..s} (seen+j-n)/(seen+j).
        expected = {}
        survival = 1.0
        s = 0
        while survival * trials >= 1e-3:
            nxt = survival * (seen + s + 1 - n) / (seen + s + 1)
            expected[s] = trials * (survival - nxt)
            survival = nxt
            s += 1
        assert chi_square_p(collections.Counter(batch), expected) > P_MIN
        assert scipy_stats.ks_2samp(batch, scalar).pvalue > P_MIN

    def test_acceptance_positions_follow_n_over_j(self):
        """Every stream position is accepted with probability n/j.

        Regression for the block-boundary bug: the trailing misses of
        an internal block are decided, and redrawing them inflated the
        acceptance rate of positions just before each block boundary by
        >20 sigma.  This sweeps every position, so any boundary bias
        trips the per-position 5-sigma bound.
        """
        n, start, limit, trials = 50, 50, 500, 3000
        counts = np.zeros(limit + 1, dtype=np.int64)
        rng = np.random.default_rng(11)
        for _ in range(trials):
            seen = start
            while seen < limit:
                for g in gaps_z(n, seen, 64, rng).tolist():
                    pos = seen + g + 1
                    if pos > limit:
                        seen = limit
                        break
                    counts[pos] += 1
                    seen = pos
        for j in range(start + 1, limit + 1):
            p = n / j
            expected = trials * p
            sigma = (trials * p * (1 - p)) ** 0.5
            assert abs(counts[j] - expected) < 5 * sigma, j


class TestChunkedAdmissionCount:
    @staticmethod
    def _admissions(capacity, stream, seed):
        r = _CountingReservoir(capacity, seed=seed)
        r.ingest(stream)
        return r.stats().samples_added

    def test_chunking_matches_dense(self, monkeypatch):
        """Forcing tiny chunks leaves the admission-count law intact."""
        capacity, stream, trials = 50, 4000, 300
        dense = [self._admissions(capacity, stream, t)
                 for t in range(trials)]
        monkeypatch.setattr(_CountingReservoir, "_ADMISSION_CHUNK", 64)
        chunked = [self._admissions(capacity, stream, t + 10 ** 6)
                   for t in range(trials)]
        assert scipy_stats.ks_2samp(dense, chunked).pvalue > P_MIN

    def test_exact_during_fill(self):
        assert self._admissions(100, 100, seed=0) == 100

    def test_mean_matches_harmonic_sum(self, monkeypatch):
        monkeypatch.setattr(_CountingReservoir, "_ADMISSION_CHUNK", 128)
        capacity, stream, trials = 20, 2000, 400
        total = sum(self._admissions(capacity, stream, t)
                    for t in range(trials))
        mean = total / trials
        expected = capacity + sum(
            capacity / j for j in range(capacity + 1, stream + 1)
        )
        sigma_mean = (expected / trials) ** 0.5  # crude Poisson bound
        assert abs(mean - expected) < 6 * sigma_mean


class TestVictimDraws:
    def test_array_matches_list_distribution(self):
        """Both draws hit the analytic hypergeometric means."""
        lives = [300, 150, 75, 40, 10]
        count, trials = 60, 500
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(6)
        arr = np.asarray(lives, dtype=np.int64)
        sums_a = np.zeros(len(lives))
        sums_b = np.zeros(len(lives))
        for _ in range(trials):
            sums_a += draw_victim_counts_array(rng_a, arr, count)
            sums_b += np.asarray(draw_victim_counts(rng_b, lives, count))
        total = sum(lives)
        expected = {i: trials * count * share / total
                    for i, share in enumerate(lives)}
        assert chi_square_p(dict(enumerate(sums_a)), expected,
                            min_expected=1.0) > P_MIN
        assert chi_square_p(dict(enumerate(sums_b)), expected,
                            min_expected=1.0) > P_MIN

    def test_single_population_is_deterministic(self):
        rng = np.random.default_rng(0)
        arr = np.asarray([500], dtype=np.int64)
        assert draw_victim_counts_array(rng, arr, 17).tolist() == [17]

    def test_zero_count(self):
        rng = np.random.default_rng(0)
        arr = np.asarray([5, 5], dtype=np.int64)
        assert draw_victim_counts_array(rng, arr, 0).tolist() == [0, 0]

    def test_overdraw_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            draw_victim_counts_array(rng, np.asarray([3, 2]), 6)

    def test_scratch_reuses_buffer(self):
        scratch = VictimScratch()
        first = scratch.view(4)
        first[:] = 7
        again = scratch.view(3)
        assert again.base is first.base
        bigger = scratch.view(100)
        assert bigger.shape == (100,)


class TestProtectedFeederApi:
    def test_advance_skipped(self):
        r = _CountingReservoir(10)
        r._advance_skipped(7)
        assert r.stats().seen == 7
        with pytest.raises(ValueError):
            r._advance_skipped(-1)

    def test_accept_bypasses_admission(self):
        r = _CountingReservoir(2)
        r._advance_skipped(100)
        r._accept("x")
        assert r.stats().seen == 101
        assert r.stats().samples_added == 1
        assert r.admitted_records == ["x"]

    def test_accept_many(self):
        r = _CountingReservoir(2)
        r._accept_many(["a", "b", "c"])
        assert r.stats().samples_added == 3
        assert r.admitted_records == ["a", "b", "c"]
        r._accept_many([])
        assert r.stats().samples_added == 3


class TestClockEquivalence:
    """Flush cadence of offer vs offer_many in admission="always" mode.

    During *start-up* no randomness touches the cadence (every record
    joins the buffer; flush targets are the deterministic Figure 3
    schedule), so the simulated clock and all I/O counters must agree
    EXACTLY.  In steady state the in-buffer replacement draws come from
    different RNG streams (``random.Random`` vs numpy), so the flush
    count drifts by the replacement noise -- a few per thousand -- and
    only bounded agreement can be asserted.
    """

    CASES = {
        "geo file": lambda: make_geometric_file(
            capacity=2000, buffer_capacity=100, retain_records=False,
            admission="always"),
        "multi file": lambda: make_multi_file(
            capacity=2000, buffer_capacity=100, retain_records=False,
            admission="always"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_startup_clock_exactly_equal(self, name):
        stream = 2000  # exactly one reservoir fill: start-up only
        scalar = self.CASES[name]()
        for _ in range(stream):
            scalar.offer(None)
        batched = self.CASES[name]()
        for start in range(0, stream, 512):
            batched.offer_many([None] * min(512, stream - start))
        a, b = scalar.stats(), batched.stats()
        assert a.seen == b.seen
        assert a.samples_added == b.samples_added
        assert a.flushes == b.flushes
        assert a.clock == b.clock
        assert a.io.seeks == b.io.seeks
        assert a.io.blocks_written == b.io.blocks_written

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_steady_state_cadence_within_replacement_noise(self, name):
        stream = 7500
        scalar = self.CASES[name]()
        for _ in range(stream):
            scalar.offer(None)
        batched = self.CASES[name]()
        for start in range(0, stream, 512):
            batched.offer_many([None] * min(512, stream - start))
        a, b = scalar.stats(), batched.stats()
        assert a.seen == b.seen
        assert a.samples_added == b.samples_added
        # ~5500 steady-state records at <= B/N = 5% replacement
        # probability: the join counts differ by O(sqrt(275)), i.e.
        # well under one flush's worth (100 records) of drift.
        assert abs(a.flushes - b.flushes) <= 2
        assert abs(a.clock - b.clock) <= 0.05 * a.clock

    def test_retained_mode_sample_size_matches(self):
        scalar = make_geometric_file(capacity=500, buffer_capacity=50,
                                     admission="always")
        batched = make_geometric_file(capacity=500, buffer_capacity=50,
                                      admission="always")
        records = keyed_records(1800)
        for r in records:
            scalar.offer(r)
        batched.offer_many(records)
        assert len(batched.sample()) == len(scalar.sample())
        batched.check_invariants()


class TestBatchedFeedStream:
    def test_sequence_and_iterator_paths_agree_with_scalar(self):
        """Inclusion frequencies match across all three feed modes."""
        trials, capacity, stream = 250, 40, 400
        modes = {
            "scalar": lambda t: self._feed(t, batch=1, sequence=False),
            "iterator": lambda t: self._feed(t + 10 ** 6, batch=64,
                                             sequence=False),
            "sequence": lambda t: self._feed(t + 2 * 10 ** 6, batch=64,
                                             sequence=True),
        }
        counters = {name: collections.Counter() for name in modes}
        for t in range(trials):
            for name, run in modes.items():
                counters[name].update(run(t))
        expected = {key: trials * capacity / stream
                    for key in range(stream)}
        for name, counts in counters.items():
            assert chi_square_p(counts, expected) > P_MIN, name

    def _feed(self, seed, *, batch, sequence, capacity=40, stream=400):
        reservoir = make_geometric_file(capacity=capacity,
                                        buffer_capacity=10, seed=seed)
        records = keyed_records(stream)
        source = records if sequence else iter(records)
        consumed = feed_stream(source, reservoir, batch_size=batch)
        assert consumed == stream
        assert reservoir.stats().seen == stream
        return [r.key for r in reservoir.sample()]

    def test_max_records_budget_respected(self):
        for batch, sequence in [(1, False), (64, False), (64, True)]:
            reservoir = make_geometric_file(capacity=50,
                                            buffer_capacity=10, seed=9)
            records = keyed_records(1000)
            source = records if sequence else iter(records)
            consumed = feed_stream(source, reservoir, max_records=300,
                                   batch_size=batch)
            assert consumed == 300
            assert reservoir.stats().seen == 300

    def test_short_stream_ends_cleanly(self):
        reservoir = make_geometric_file(capacity=200, buffer_capacity=20,
                                        seed=1)
        consumed = feed_stream(iter(keyed_records(150)), reservoir,
                               batch_size=32)
        assert consumed == 150
        assert reservoir.stats().seen == 150

    def test_rejects_always_mode(self):
        reservoir = make_geometric_file(admission="always")
        with pytest.raises(ValueError):
            feed_stream(iter(keyed_records(10)), reservoir)

    def test_rejects_bad_batch_size(self):
        reservoir = make_geometric_file()
        with pytest.raises(ValueError):
            feed_stream(iter(keyed_records(10)), reservoir, batch_size=0)
