"""Tests for the three Section 3 baseline alternatives."""

import collections
import math

import pytest

from conftest import TEST_BLOCK, small_disk_params
from repro.baselines import (
    DiskReservoirConfig,
    LocalOverwriteReservoir,
    ScanReservoir,
    SequentialAppender,
    VirtualMemoryReservoir,
)
from repro.storage.device import SimulatedBlockDevice
from repro.storage.records import Record, RecordSchema


def make(cls, capacity=1000, buffer_capacity=50, record_size=40,
         pool_blocks=4, retain_records=True, admission="uniform", seed=0):
    config = DiskReservoirConfig(
        capacity=capacity, buffer_capacity=buffer_capacity,
        record_size=record_size, pool_blocks=pool_blocks,
        retain_records=retain_records, admission=admission,
    )
    blocks = cls.required_blocks(config, TEST_BLOCK)
    device = SimulatedBlockDevice(blocks, small_disk_params())
    return cls(device, config, seed=seed)


def feed(reservoir, n, start=0):
    for i in range(start, start + n):
        reservoir.offer(Record(key=i, value=float(i)))


ALL = [VirtualMemoryReservoir, ScanReservoir, LocalOverwriteReservoir]


class TestConfigValidation:
    def test_buffer_vs_capacity(self):
        with pytest.raises(ValueError):
            DiskReservoirConfig(capacity=100, buffer_capacity=100)

    def test_pool_minimum(self):
        with pytest.raises(ValueError):
            DiskReservoirConfig(capacity=100, buffer_capacity=10,
                                pool_blocks=0)


class TestSequentialAppender:
    def test_whole_blocks_charged_as_written(self):
        device = SimulatedBlockDevice(100, small_disk_params())
        appender = SequentialAppender(device, RecordSchema(40))
        per_block = TEST_BLOCK // 40
        appender.append(per_block * 3)
        assert device.model.stats.blocks_written == 3

    def test_partial_block_held_until_finish(self):
        device = SimulatedBlockDevice(100, small_disk_params())
        appender = SequentialAppender(device, RecordSchema(40))
        appender.append(5)
        assert device.model.stats.blocks_written == 0
        appender.finish()
        assert device.model.stats.blocks_written == 1

    def test_append_is_sequential(self):
        device = SimulatedBlockDevice(1000, small_disk_params())
        appender = SequentialAppender(device, RecordSchema(40))
        per_block = TEST_BLOCK // 40
        for _ in range(20):
            appender.append(per_block * 10)
        assert device.model.stats.seeks == 1

    def test_negative_rejected(self):
        device = SimulatedBlockDevice(10, small_disk_params())
        appender = SequentialAppender(device, RecordSchema(40))
        with pytest.raises(ValueError):
            appender.append(-1)


@pytest.mark.parametrize("cls", ALL)
class TestCommonBehaviour:
    def test_sample_size_and_uniqueness(self, cls):
        r = make(cls)
        feed(r, 4000)
        sample = r.sample()
        keys = [x.key for x in sample]
        assert len(keys) == 1000
        assert len(set(keys)) == 1000

    def test_fill_phase_is_sequential(self, cls):
        r = make(cls)
        feed(r, 1000)  # exactly the fill
        stats = r.device.model.stats
        assert stats.seeks <= 3
        assert stats.blocks_read == 0

    def test_fill_holds_everything(self, cls):
        r = make(cls)
        feed(r, 700)
        assert sorted(x.key for x in r.sample()) == list(range(700))

    def test_count_only_mode(self, cls):
        r = make(cls, retain_records=False, admission="always")
        r.ingest(5000)
        assert r.stats().samples_added == 5000
        with pytest.raises(TypeError):
            r.sample()

    def test_uniformity(self, cls):
        trials, capacity, stream = 200, 100, 500
        counts = collections.Counter()
        for t in range(trials):
            r = make(cls, capacity=capacity, buffer_capacity=20,
                     seed=7000 + t)
            feed(r, stream)
            counts.update(x.key for x in r.sample())
        expected = trials * capacity / stream
        sigma = math.sqrt(trials * (capacity / stream)
                          * (1 - capacity / stream))
        for key in range(stream):
            assert abs(counts[key] - expected) < 5 * sigma, (cls, key)


class TestVirtualMemory:
    def test_two_random_ios_per_record(self):
        """Section 3.2's arithmetic: ~1 read + ~1 write-back each."""
        r = make(VirtualMemoryReservoir, capacity=100_000,
                 buffer_capacity=100, record_size=40, pool_blocks=4,
                 retain_records=False, admission="always")
        r.ingest(100_000)  # fill
        seeks_before = r.device.model.stats.seeks
        r.ingest(2000)
        per_record = (r.device.model.stats.seeks - seeks_before) / 2000
        assert 1.5 <= per_record <= 2.1

    def test_pool_absorbs_repeat_hits(self):
        # Tiny reservoir entirely inside the pool: no steady-state I/O.
        config = DiskReservoirConfig(capacity=500, buffer_capacity=50,
                                     record_size=40, pool_blocks=64,
                                     admission="always")
        blocks = VirtualMemoryReservoir.required_blocks(config, TEST_BLOCK)
        device = SimulatedBlockDevice(blocks, small_disk_params())
        r = VirtualMemoryReservoir(device, config, seed=0)
        r.ingest(500)
        seeks_before = device.model.stats.seeks
        r.ingest(5000)
        # All blocks fit in the pool: reads hit, nothing evicts.
        assert device.model.stats.seeks - seeks_before <= blocks + 1


class TestScan:
    def test_flush_rewrites_whole_file(self):
        r = make(ScanReservoir, capacity=10_000, buffer_capacity=100,
                 record_size=40, retain_records=False, admission="always")
        r.ingest(10_000)
        stats_before = r.device.model.stats.snapshot()
        r.ingest(100)  # exactly one flush
        stats = r.device.model.stats
        file_blocks = r._file_blocks
        assert stats.blocks_read - stats_before.blocks_read == file_blocks
        assert (stats.blocks_written
                - stats_before.blocks_written) == file_blocks

    def test_flushes_counted(self):
        r = make(ScanReservoir, admission="always")
        feed(r, 1000 + 250)
        assert r.flushes in (4, 5)  # in-buffer replacement slack


class TestLocalOverwrite:
    def test_cohorts_grow_then_saturate(self):
        r = make(LocalOverwriteReservoir, capacity=20_000,
                 buffer_capacity=400, retain_records=False,
                 admission="always")
        r.ingest(20_000)
        assert r.n_cohorts == 1
        r.ingest(100_000)
        mid = r.n_cohorts
        r.ingest(400_000)
        late = r.n_cohorts
        assert 1 < mid < late
        # Saturation near ln(B)/(1-alpha) = ln(400) * 50 ~ 300.
        assert late < 500

    def test_seeks_per_flush_grow_over_time(self):
        """The paper's degradation: each flush touches more cohorts."""
        r = make(LocalOverwriteReservoir, capacity=20_000,
                 buffer_capacity=400, retain_records=False,
                 admission="always")
        r.ingest(20_000)
        s0 = r.device.model.stats.seeks
        r.ingest(8000)   # 20 early flushes
        early = r.device.model.stats.seeks - s0
        r.ingest(200_000)
        s1 = r.device.model.stats.seeks
        r.ingest(8000)   # 20 late flushes
        late = r.device.model.stats.seeks - s1
        assert late > 3 * early

    def test_first_steady_flush_costs_one_seek(self):
        r = make(LocalOverwriteReservoir, capacity=2000,
                 buffer_capacity=100, retain_records=False,
                 admission="always")
        r.ingest(2000)
        seeks_before = r.device.model.stats.seeks
        r.ingest(100)
        assert r.device.model.stats.seeks - seeks_before <= 2

    def test_record_mode_cohort_bookkeeping(self):
        r = make(LocalOverwriteReservoir, capacity=500, buffer_capacity=50,
                 admission="always")
        feed(r, 2000)
        total = sum(c.live for c in r._cohorts)
        assert total == 500
        for cohort in r._cohorts:
            assert len(cohort.records) == cohort.live
