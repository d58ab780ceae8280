"""Unit and statistical tests for the multi-file construction (Section 6)."""

import collections
import math

import pytest

from conftest import TEST_BLOCK, make_geometric_file, make_multi_file, small_disk_params
from repro.core.multi import MultiFileConfig, MultipleGeometricFiles
from repro.storage.device import SimulatedBlockDevice
from repro.storage.records import Record


def feed(mf, n, start=0):
    for i in range(start, start + n):
        mf.offer(Record(key=i, value=float(i), timestamp=float(i)))


class TestConstruction:
    def test_file_count_follows_section_6(self):
        # alpha = 0.99 (N/B = 100), alpha' = 0.9 -> m = 10.
        mf = make_multi_file(capacity=10000, buffer_capacity=100,
                             alpha_prime=0.9)
        assert mf.n_files == 10
        assert mf.alpha_prime == pytest.approx(0.9)

    def test_single_file_degenerate(self):
        # alpha' == alpha -> one file.
        mf = make_multi_file(capacity=10000, buffer_capacity=100,
                             alpha_prime=0.99)
        assert mf.n_files == 1

    def test_ladder_uses_alpha_prime(self):
        # Compare at a scale where integer rounding cannot truncate the
        # fine-grained alpha ladder (rung sizes stay >= 1).
        mf = make_multi_file(capacity=100_000, buffer_capacity=1000,
                             alpha_prime=0.9, beta_records=50)
        single = make_geometric_file(capacity=100_000,
                                     buffer_capacity=1000,
                                     beta_records=50)
        assert mf.ladder.n_disk_segments < single.ladder.n_disk_segments / 5

    def test_alpha_prime_validation(self):
        with pytest.raises(ValueError):
            MultiFileConfig(capacity=1000, buffer_capacity=100,
                            alpha_prime=1.5)

    def test_device_too_small_rejected(self):
        config = MultiFileConfig(capacity=10000, buffer_capacity=100,
                                 record_size=40, alpha_prime=0.9,
                                 beta_records=10)
        device = SimulatedBlockDevice(4, small_disk_params())
        with pytest.raises(ValueError):
            MultipleGeometricFiles(device, config)

    def test_storage_blowup_close_to_2_minus_alpha_prime(self):
        """Section 6: total disk ~ |R| * (2 - alpha') for the dummies."""
        config = MultiFileConfig(capacity=200_000, buffer_capacity=2000,
                                 record_size=50, alpha_prime=0.9,
                                 beta_records=100)
        blocks = MultipleGeometricFiles.required_blocks(config, TEST_BLOCK)
        data_bytes = blocks * TEST_BLOCK
        reservoir_bytes = 200_000 * 50
        # 1.1x for the dummies plus slack slots and rounding.
        assert 1.05 * reservoir_bytes <= data_bytes \
            <= 1.45 * reservoir_bytes


class TestCorrectness:
    def test_sample_size_and_uniqueness(self):
        mf = make_multi_file(capacity=2000, buffer_capacity=100)
        feed(mf, 10000)
        mf.check_invariants()
        keys = [r.key for r in mf.sample()]
        assert len(keys) == 2000
        assert len(set(keys)) == 2000

    def test_invariants_hold_throughout(self):
        mf = make_multi_file(capacity=1000, buffer_capacity=80)
        for i in range(6000):
            mf.offer(Record(key=i))
            if i % 500 == 0:
                mf.check_invariants()
        mf.check_invariants()

    def test_uniformity(self):
        """Striping over files must not disturb the sample law."""
        trials, capacity, stream = 250, 200, 1000
        counts = collections.Counter()
        for t in range(trials):
            # alpha = 1 - 20/200 = 0.9; stripe down to alpha' = 0.6
            # (four files) so the dummy rotation is really exercised.
            mf = make_multi_file(capacity=capacity, buffer_capacity=20,
                                 alpha_prime=0.6, seed=4000 + t)
            feed(mf, stream)
            counts.update(r.key for r in mf.sample())
        expected = trials * capacity / stream
        sigma = math.sqrt(trials * (capacity / stream)
                          * (1 - capacity / stream))
        for key in range(stream):
            assert abs(counts[key] - expected) < 5 * sigma, key

    def test_mid_flush_sample_is_full_size(self):
        mf = make_multi_file(capacity=1000, buffer_capacity=80,
                             admission="always")
        feed(mf, 1040)
        sample = mf.sample()
        assert len({r.key for r in sample}) == len(sample) == 1000

    def test_count_only_mode(self):
        mf = make_multi_file(capacity=2000, buffer_capacity=100,
                             retain_records=False, admission="always")
        mf.ingest(20000)
        mf.check_invariants()
        assert mf.disk_size == 2000
        with pytest.raises(TypeError):
            mf.sample()


class TestRoundRobin:
    def test_steady_flushes_rotate_over_files(self):
        mf = make_multi_file(capacity=2000, buffer_capacity=100,
                             admission="always", alpha_prime=0.9)
        feed(mf, 2000 + 100 * mf.n_files * 2)
        # After two full rotations every file holds a steady subsample.
        newest_idents = [file.subsamples[0].ident for file in mf.files]
        assert len(set(newest_idents)) == mf.n_files

    def test_one_flush_touches_one_file(self):
        mf = make_multi_file(capacity=4000, buffer_capacity=200,
                             retain_records=False, admission="always",
                             alpha_prime=0.9)
        mf.ingest(4000)
        # Per steady flush, segment writes target a single sub-file's
        # block range.  Track the device head's block addresses through
        # one flush by diffing per-file write counts -- approximated
        # here by checking the dummy rotation advanced exactly once.
        target = mf.files[mf.flushes % mf.n_files]
        dummy_before = list(target.dummy_slots)
        mf.ingest(200)
        assert target.dummy_slots != dummy_before

    def test_dummy_slots_always_complete(self):
        mf = make_multi_file(capacity=2000, buffer_capacity=100,
                             admission="always")
        feed(mf, 8000)
        for file in mf.files:
            assert len(file.dummy_slots) == mf.ladder.n_disk_segments


class TestSpeedup:
    def test_multi_needs_far_fewer_seeks_than_single(self):
        """The whole point of Section 6."""
        single = make_geometric_file(capacity=20000, buffer_capacity=200,
                                     retain_records=False,
                                     admission="always", seed=1)
        single.ingest(100_000)
        multi = make_multi_file(capacity=20000, buffer_capacity=200,
                                retain_records=False, admission="always",
                                alpha_prime=0.9, seed=1)
        multi.ingest(100_000)
        assert multi.flushes == single.flushes
        single_seeks = single.device.model.stats.seeks
        multi_seeks = multi.device.model.stats.seeks
        # m = 100 here; the seek reduction should be at least ~3x even
        # at this tiny scale (log-scale segment counts compress it).
        assert multi_seeks * 3 < single_seeks
        assert multi.stats().clock < single.stats().clock

    def test_segments_per_flush_matches_ladder(self):
        mf = make_multi_file(capacity=2000, buffer_capacity=100,
                             retain_records=False, admission="always")
        mf.ingest(2000)
        seeks_before = mf.device.model.stats.seeks
        flushes_before = mf.flushes
        mf.ingest(1000)
        flushes = mf.flushes - flushes_before
        per_flush = (mf.device.model.stats.seeks - seeks_before) / flushes
        segments = mf.ladder.n_disk_segments
        assert segments <= per_flush <= 6 * segments + 4
