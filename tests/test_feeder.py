"""Tests for skip-based stream feeding (Vitter + geometric file)."""

import collections
import math

import pytest

from conftest import make_geometric_file
from repro.sampling import feed_stream
from repro.storage.records import Record
from repro.streams import CountingStream


def records(n, start=0):
    return [Record(key=i) for i in range(start, start + n)]


class TestFeedStream:
    def test_consumes_the_whole_stream(self):
        gf = make_geometric_file(capacity=200, buffer_capacity=20)
        consumed = feed_stream(records(5000), gf)
        assert consumed == 5000
        assert gf.stats().seen == 5000
        gf.check_invariants()
        assert len(gf.sample()) == 200

    def test_max_records_cap(self):
        gf = make_geometric_file(capacity=200, buffer_capacity=20)
        consumed = feed_stream(CountingStream(iter(records(10 ** 6))), gf,
                               max_records=3000)
        assert consumed == 3000
        assert gf.stats().seen == 3000

    def test_stream_shorter_than_capacity(self):
        gf = make_geometric_file(capacity=500, buffer_capacity=50)
        consumed = feed_stream(records(120), gf)
        assert consumed == 120
        assert sorted(r.key for r in gf.sample()) == list(range(120))

    def test_requires_uniform_admission(self):
        gf = make_geometric_file(capacity=100, buffer_capacity=10,
                                 admission="always")
        with pytest.raises(ValueError):
            feed_stream(records(10), gf)

    def test_admission_count_matches_harmonic_law(self):
        """Skips must implement exactly the N/i admission rate."""
        capacity, stream = 100, 20_000
        admitted = []
        for seed in range(25):
            gf = make_geometric_file(capacity=capacity, buffer_capacity=10,
                                     retain_records=False, seed=seed)
            feed_stream(records(stream), gf)
            admitted.append(gf.stats().samples_added)
        expected = capacity + sum(capacity / i
                                  for i in range(capacity + 1, stream + 1))
        mean = sum(admitted) / len(admitted)
        assert mean == pytest.approx(expected, rel=0.05)

    def test_distribution_matches_per_record_offers(self):
        """Same inclusion law as the offer-per-record path."""
        trials, capacity, stream = 400, 50, 500
        skip_counts = collections.Counter()
        offer_counts = collections.Counter()
        for t in range(trials):
            a = make_geometric_file(capacity=capacity, buffer_capacity=10,
                                    seed=t)
            feed_stream(records(stream), a)
            skip_counts.update(r.key for r in a.sample())
            b = make_geometric_file(capacity=capacity, buffer_capacity=10,
                                    seed=t + 10 ** 6)
            for record in records(stream):
                b.offer(record)
            offer_counts.update(r.key for r in b.sample())
        expected = trials * capacity / stream
        sigma = math.sqrt(trials * (capacity / stream))
        for key in range(stream):
            assert abs(skip_counts[key] - expected) < 5 * sigma, key
            assert abs(skip_counts[key] - offer_counts[key]) < 7 * sigma

    def test_budget_expires_inside_a_gap(self):
        gf = make_geometric_file(capacity=100, buffer_capacity=10,
                                 retain_records=False)
        feed_stream(records(100), gf)          # exactly the fill
        consumed = feed_stream(records(1, start=100), gf, max_records=1)
        assert consumed <= 1
        assert gf.stats().seen in (100, 101)
