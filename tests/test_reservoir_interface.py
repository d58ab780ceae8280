"""Tests for the shared StreamReservoir interface and draw helpers."""

import collections
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_geometric_file, make_multi_file, small_disk_params
from repro.baselines import (
    DiskReservoirConfig,
    LocalOverwriteReservoir,
    ScanReservoir,
    VirtualMemoryReservoir,
)
from repro.reservoir import (
    StreamReservoir,
    draw_victim_counts,
    hypergeometric,
)
from repro.storage.device import SimulatedBlockDevice
from repro.storage.records import Record


class _CountingReservoir(StreamReservoir):
    """Minimal concrete reservoir for interface tests."""

    name = "counting"

    def __init__(self, capacity, **kwargs):
        super().__init__(capacity, **kwargs)
        self.admitted = 0

    def _admit(self, record):
        self.admitted += 1

    def _admit_count(self, n):
        self.admitted += n


class TestAdmissionModes:
    def test_always_admits_everything(self):
        r = _CountingReservoir(10, admission="always", seed=0)
        for i in range(100):
            r.offer(Record(key=i))
        assert r.admitted == r.stats().samples_added == 100

    def test_uniform_admits_n_over_i(self):
        r = _CountingReservoir(100, admission="uniform", seed=0)
        for i in range(5000):
            r.offer(Record(key=i))
        expected = 100 + sum(100 / i for i in range(101, 5001))
        assert r.admitted == pytest.approx(expected, rel=0.15)

    def test_ingest_matches_offer_statistically(self):
        offered = []
        batched = []
        for seed in range(40):
            a = _CountingReservoir(100, admission="uniform", seed=seed)
            for i in range(2000):
                a.offer(Record(key=i))
            offered.append(a.admitted)
            b = _CountingReservoir(100, admission="uniform",
                                   seed=seed + 10 ** 6)
            b.ingest(2000)
            batched.append(b.admitted)
        mean_a = sum(offered) / len(offered)
        mean_b = sum(batched) / len(batched)
        assert mean_a == pytest.approx(mean_b, rel=0.05)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            _CountingReservoir(10, admission="sometimes")

    def test_negative_ingest_rejected(self):
        r = _CountingReservoir(10)
        with pytest.raises(ValueError):
            r.ingest(-1)

    def test_zero_ingest_is_noop(self):
        r = _CountingReservoir(10)
        r.ingest(0)
        assert r.stats().seen == 0


class TestApplyPending:
    def test_result_size(self):
        disk = [Record(key=i) for i in range(100)]
        pending = [Record(key=1000 + i) for i in range(10)]
        out = StreamReservoir.apply_pending(disk, pending, random.Random(0))
        assert len(out) == 100
        keys = {r.key for r in out}
        assert all(1000 + i in keys for i in range(10))

    def test_no_pending_is_identity(self):
        disk = [Record(key=i) for i in range(5)]
        out = StreamReservoir.apply_pending(disk, [], random.Random(0))
        assert out == disk

    def test_victims_uniform(self):
        disk = [Record(key=i) for i in range(10)]
        pending = [Record(key=99)]
        killed = collections.Counter()
        for t in range(4000):
            out = StreamReservoir.apply_pending(disk, pending,
                                                random.Random(t))
            survivors = {r.key for r in out}
            for k in range(10):
                if k not in survivors:
                    killed[k] += 1
        for k in range(10):
            assert killed[k] == pytest.approx(400, abs=80)

    def test_too_many_pending_rejected(self):
        with pytest.raises(ValueError):
            StreamReservoir.apply_pending(
                [Record(key=0)], [Record(key=1), Record(key=2)],
                random.Random(0),
            )


class TestHypergeometricHelpers:
    def test_within_numpy_range_is_exact_hypergeometric(self):
        rng = np.random.default_rng(0)
        draws = [hypergeometric(rng, 50, 50, 20) for _ in range(5000)]
        mean = sum(draws) / len(draws)
        # E = 20 * 50/100 = 10; Var = 20*.5*.5*(80/99) ~ 4.04.
        assert mean == pytest.approx(10.0, abs=0.15)
        var = sum((d - mean) ** 2 for d in draws) / len(draws)
        assert var == pytest.approx(4.04, rel=0.15)

    def test_beyond_range_falls_back_to_binomial(self):
        rng = np.random.default_rng(0)
        draw = hypergeometric(rng, 10 ** 10, 10 ** 10, 1000)
        assert 0 <= draw <= 1000

    def test_fallback_respects_support(self):
        rng = np.random.default_rng(0)
        # nbad = 0 forces the draw to equal nsample.
        assert hypergeometric(rng, 2 * 10 ** 9, 0, 5) == 5

    def test_oversample_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            hypergeometric(rng, 5, 5, 11)


class TestVictimDraw:
    def test_counts_sum_and_bound(self):
        rng = np.random.default_rng(1)
        lives = [100, 50, 25, 10, 5]
        counts = draw_victim_counts(rng, lives, 40)
        assert sum(counts) == 40
        assert all(0 <= c <= live for c, live in zip(counts, lives))

    def test_zero_draw(self):
        rng = np.random.default_rng(1)
        assert draw_victim_counts(rng, [5, 5], 0) == [0, 0]

    def test_draw_everything(self):
        rng = np.random.default_rng(1)
        assert draw_victim_counts(rng, [5, 7], 12) == [5, 7]

    def test_marginal_means_proportional_to_sizes(self):
        rng = np.random.default_rng(2)
        lives = [300, 200, 100]
        totals = [0, 0, 0]
        trials = 3000
        for _ in range(trials):
            counts = draw_victim_counts(rng, lives, 60)
            for i, c in enumerate(counts):
                totals[i] += c
        assert totals[0] / trials == pytest.approx(30.0, abs=0.5)
        assert totals[1] / trials == pytest.approx(20.0, abs=0.5)
        assert totals[2] / trials == pytest.approx(10.0, abs=0.5)

    def test_sequential_path_agrees_with_vectorised(self):
        """Means/variances of the fallback path match the marginals path."""
        lives = [400, 300, 200, 100]

        def collect(force_sequential):
            rng = np.random.default_rng(3)
            if force_sequential:
                # Trip the size guard by a singleton wrapper call path:
                # emulate via per-category conditional draws.
                out = []
                for _ in range(2000):
                    remaining_total, remaining = sum(lives), 100
                    row = []
                    for live in lives:
                        if live == remaining_total:
                            k = remaining
                        else:
                            k = hypergeometric(rng, live,
                                               remaining_total - live,
                                               remaining)
                        row.append(k)
                        remaining_total -= live
                        remaining -= k
                    out.append(row)
                return out
            return [draw_victim_counts(rng, lives, 100)
                    for _ in range(2000)]

        seq = collect(True)
        vec = collect(False)
        for i in range(len(lives)):
            mean_seq = sum(row[i] for row in seq) / len(seq)
            mean_vec = sum(row[i] for row in vec) / len(vec)
            assert mean_seq == pytest.approx(mean_vec, rel=0.05)

    def test_overdraw_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            draw_victim_counts(rng, [3, 3], 7)

    @given(st.lists(st.integers(1, 200), min_size=1, max_size=20),
           st.integers(0, 100), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_conservation_property(self, lives, draw, seed):
        rng = np.random.default_rng(seed)
        draw = min(draw, sum(lives))
        counts = draw_victim_counts(rng, lives, draw)
        assert sum(counts) == draw
        assert all(0 <= c <= live for c, live in zip(counts, lives))


class TestChunkFloor:
    def test_buffered_structures_advertise_their_flush_quantum(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=50)
        assert gf.chunk_floor == 50


class TestVictimDrawBeyondNumpyLimit:
    def test_split_path_conserves_and_is_proportional(self):
        import numpy as np

        from repro.reservoir import draw_victim_counts

        rng = np.random.default_rng(4)
        # Total just past numpy's 1e9 marginals limit.
        lives = [150_000_000] * 7 + [23_741_824]  # = 1,073,741,824
        totals = [0] * len(lives)
        trials = 200
        for _ in range(trials):
            counts = draw_victim_counts(rng, lives, 1_000_000)
            assert sum(counts) == 1_000_000
            for i, (c, live) in enumerate(zip(counts, lives)):
                assert 0 <= c <= live
                totals[i] += c
        total_mass = sum(lives)
        for i, live in enumerate(lives):
            expected = trials * 1_000_000 * live / total_mass
            assert totals[i] == pytest.approx(expected, rel=0.01)

    def test_single_population_beyond_numpy_limit(self):
        """Regression: one giant cohort (localized overwrite's first
        flush at paper scale) must not crash the split path."""
        import numpy as np

        from repro.reservoir import draw_victim_counts

        rng = np.random.default_rng(5)
        lives = [1_063_256_064, 10_485_760]  # exp1's second flush
        counts = draw_victim_counts(rng, lives, 10_485_760)
        assert sum(counts) == 10_485_760
        assert all(0 <= c <= live for c, live in zip(counts, lives))
        # Proportionality sanity: the giant cohort takes ~99 % of hits.
        assert counts[0] > 0.97 * 10_485_760


def _baseline(cls, columnar, seed):
    config = DiskReservoirConfig(capacity=2000, buffer_capacity=200,
                                 record_size=40, retain_records=True,
                                 admission="uniform", columnar=columnar)
    blocks = cls.required_blocks(config, 4096)
    return cls(SimulatedBlockDevice(blocks, small_disk_params()), config,
               seed=seed)


QUERY_RNG_STRUCTURES = {
    "geo-list": lambda seed: make_geometric_file(2000, 200, seed=seed),
    "geo-columnar": lambda seed: make_geometric_file(
        2000, 200, seed=seed, columnar=True),
    "multi-list": lambda seed: make_multi_file(2000, 200, seed=seed),
    "multi-columnar": lambda seed: make_multi_file(
        2000, 200, seed=seed, columnar=True),
    "scan-list": lambda seed: _baseline(ScanReservoir, False, seed),
    "scan-columnar": lambda seed: _baseline(ScanReservoir, True, seed),
    "overwrite-list": lambda seed: _baseline(
        LocalOverwriteReservoir, False, seed),
    "overwrite-columnar": lambda seed: _baseline(
        LocalOverwriteReservoir, True, seed),
    "vm-list": lambda seed: _baseline(VirtualMemoryReservoir, False, seed),
}


class TestQueryRngLeavesIngestAlone:
    """A read given ``rng=`` draws nothing from the structure's own
    generators: a twin that was queried mid-stream ends the stream in
    the same state as one that was not."""

    @pytest.mark.parametrize("verb", ["sample_batch", "snapshot_batch"])
    @pytest.mark.parametrize("name", sorted(QUERY_RNG_STRUCTURES))
    def test_queried_twin_matches_unqueried(self, name, verb):
        make = QUERY_RNG_STRUCTURES[name]
        records = [Record(key=i, value=float(i)) for i in range(20_000)]
        queried, untouched = make(7), make(7)
        for structure in (queried, untouched):
            structure.offer_many(records[:5000])
        getattr(queried, verb)(100, rng=np.random.default_rng(123))
        for structure in (queried, untouched):
            structure.offer_many(records[5000:])
        assert ([r.key for r in queried.sample()]
                == [r.key for r in untouched.sample()])
        assert queried.device.stats() == untouched.device.stats()
        assert queried.stats().clock == untouched.stats().clock
