"""Tests for zone-map indexing over a geometric file (Section 10)."""

import pytest

from conftest import make_geometric_file
from repro.core.zonemap import ZoneMapIndex
from repro.storage.records import Record


def feed(gf, n, start=0):
    for i in range(start, start + n):
        gf.offer(Record(key=i, value=float(i % 97), timestamp=float(i)))


class TestCorrectness:
    def test_query_matches_full_scan(self):
        gf = make_geometric_file(capacity=800, buffer_capacity=40)
        feed(gf, 4000)
        index = ZoneMapIndex(gf, field="timestamp")
        got = sorted(r.key for r in index.query(1000.0, 2000.0))
        want = sorted(r.key for ledger in gf.subsamples
                      for r in (ledger.records or [])
                      if 1000.0 <= r.timestamp <= 2000.0)
        assert got == want

    def test_value_field(self):
        gf = make_geometric_file(capacity=500, buffer_capacity=50)
        feed(gf, 2000)
        index = ZoneMapIndex(gf, field="value")
        got = list(index.query(10.0, 20.0))
        assert got
        assert all(10.0 <= r.value <= 20.0 for r in got)

    def test_custom_extractor(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30)
        feed(gf, 1000)
        index = ZoneMapIndex(gf, extractor=lambda r: float(r.key % 10))
        got = list(index.query(3.0, 3.0))
        assert got
        assert all(r.key % 10 == 3 for r in got)

    def test_buffer_pending_records_included(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30,
                                 admission="always")
        feed(gf, 315)  # 15 records pending in the buffer
        index = ZoneMapIndex(gf, field="timestamp")
        got = {r.key for r in index.query(300.0, 314.0)}
        # Every pending key in range must be visible.
        pending = {r.key for r in gf.buffer if 300 <= r.key <= 314}
        assert pending <= got

    def test_empty_range(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30)
        feed(gf, 1000)
        index = ZoneMapIndex(gf, field="timestamp")
        assert list(index.query(10_000.0, 20_000.0)) == []

    def test_reversed_range_rejected(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30)
        feed(gf, 300)
        index = ZoneMapIndex(gf)
        with pytest.raises(ValueError):
            list(index.query(5.0, 1.0))


class TestPruning:
    def test_time_range_queries_prune_subsamples(self):
        """Timestamp envelopes track creation order, so narrow recent
        windows skip most subsamples -- the future-work payoff."""
        gf = make_geometric_file(capacity=1000, buffer_capacity=50,
                                 admission="always")
        feed(gf, 6000)
        index = ZoneMapIndex(gf, field="timestamp")
        list(index.query(5900.0, 6000.0))
        stats = index.stats()
        assert stats.subsamples_total > 10
        assert stats.pruned_fraction > 0.5

    def test_full_range_scans_everything(self):
        gf = make_geometric_file(capacity=500, buffer_capacity=50)
        feed(gf, 1000)
        index = ZoneMapIndex(gf, field="timestamp")
        results = list(index.query(0.0, 10_000.0))
        # Disk residents plus any records still pending in the buffer
        # (the zone map does not apply deferred evictions).
        assert 500 <= len(results) <= 500 + gf.buffer.count
        assert index.stats().pruned_fraction == 0.0
        assert index.stats().records_matched == len(results)

    def test_stats_track_scanned_and_matched(self):
        gf = make_geometric_file(capacity=400, buffer_capacity=40)
        feed(gf, 2000)
        index = ZoneMapIndex(gf, field="timestamp")
        results = list(index.query(0.0, 500.0))
        stats = index.stats()
        assert stats.records_matched == len(results)
        assert stats.records_scanned >= stats.records_matched


class TestMaintenance:
    def test_refresh_picks_up_new_flushes(self):
        gf = make_geometric_file(capacity=400, buffer_capacity=40,
                                 admission="always")
        feed(gf, 400)
        index = ZoneMapIndex(gf, field="timestamp")
        feed(gf, 1000, start=400)
        got = {r.key for r in index.query(1300.0, 1399.0)}
        want = {r.key for ledger in gf.subsamples
                for r in (ledger.records or [])
                if 1300 <= r.key <= 1399}
        assert got >= want

    def test_dead_subsample_envelopes_dropped(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30,
                                 admission="always")
        feed(gf, 3000)
        index = ZoneMapIndex(gf)
        index.refresh()
        alive = {ledger.ident for ledger in gf.subsamples}
        assert set(index._envelopes) <= alive

    def test_requires_record_retention(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30,
                                 retain_records=False)
        with pytest.raises(ValueError):
            ZoneMapIndex(gf)

    def test_unknown_field_rejected(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30)
        with pytest.raises(ValueError):
            ZoneMapIndex(gf, field="nope")
