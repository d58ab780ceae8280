"""Edge-case tests for branches the main suites do not reach."""

import random

import pytest

from conftest import TEST_BLOCK, make_geometric_file
from repro.bench.report import _format_time
from repro.core.buffer import SampleBuffer
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.estimate import Estimate, horvitz_thompson_sum
from repro.storage.device import (
    FileBlockDevice,
    MemoryBlockDevice,
    read_discard,
    write_zeros,
)
from repro.storage.records import Record, RecordSchema


class TestDeviceHelpersOnByteBackedDevices:
    def test_write_zeros_chunks_over_large_ranges(self, tmp_path):
        with FileBlockDevice(tmp_path / "d.bin", 600, block_size=64) as dev:
            dev.write_blocks(500, b"\xff" * 64)
            write_zeros(dev, 0, 600)  # > one 256-block chunk
            assert dev.read_blocks(500, 1) == b"\x00" * 64

    def test_read_discard_on_memory_device(self):
        dev = MemoryBlockDevice(600, block_size=64)
        read_discard(dev, 0, 600)  # must not raise or return anything


class TestEstimateEdges:
    def test_ht_single_item_standard_error_fallback(self):
        est = horvitz_thompson_sum(
            [(Record(key=0, value=5.0), 1.0)],
            total_weight=10.0, sample_capacity=2,
        )
        assert est.value == pytest.approx(25.0)
        assert est.standard_error == pytest.approx(abs(est.value))

    def test_ht_empty_sample(self):
        est = horvitz_thompson_sum([], total_weight=10.0,
                                   sample_capacity=2)
        assert est.value == 0.0 and est.standard_error == 0.0

    def test_ht_predicate_zeroes_non_matching(self):
        items = [(Record(key=i, value=1.0), 1.0) for i in range(4)]
        est = horvitz_thompson_sum(items, total_weight=4.0,
                                   sample_capacity=4,
                                   predicate=lambda r: r.key == 0)
        assert est.value == pytest.approx(1.0)

    def test_estimate_interval_width_scales_with_z(self):
        est = Estimate(10.0, 1.0)
        assert (est.interval(0.99).half_width
                > est.interval(0.90).half_width)


class TestReportFormatting:
    def test_format_time_units(self):
        assert _format_time(30.0) == "30.0s"
        assert _format_time(90.0) == "1.5m"
        assert _format_time(7200.0) == "2.0h"


class TestBufferEdges:
    def test_drain_empty_buffer(self):
        buf = SampleBuffer(5, random.Random(0), schema=RecordSchema(40))
        records, count = buf.drain()
        assert len(records) == 0 and buf.take_aux() is None and count == 0

    def test_count_only_drain_empty(self):
        buf = SampleBuffer(5, random.Random(0))
        records, count = buf.drain()
        assert records is None and count == 0


class TestGeometricFileEdges:
    def test_minimal_viable_configuration(self):
        """The smallest config the validators accept must still work."""
        gf = make_geometric_file(capacity=8, buffer_capacity=2,
                                 beta_records=1)
        for i in range(50):
            gf.offer(Record(key=i))
        gf.check_invariants()
        assert len(gf.sample()) == 8

    def test_offer_after_exact_capacity_boundary(self):
        gf = make_geometric_file(capacity=100, buffer_capacity=10)
        for i in range(100):
            gf.offer(Record(key=i))
        assert not gf.in_startup
        gf.offer(Record(key=100))
        gf.check_invariants()

    def test_clock_zero_on_unmodelled_device(self, tmp_path):
        config = GeometricFileConfig(capacity=100, buffer_capacity=10,
                                     record_size=40, beta_records=2,
                                     retain_records=True)
        blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
        with FileBlockDevice(tmp_path / "g.bin", blocks,
                             TEST_BLOCK) as device:
            gf = GeometricFile(device, config)
            assert gf.stats().clock == 0.0

    def test_huge_ratio_ladder_operations_are_fast(self):
        """The head-index refactor: a deep ladder (ratio 1000) must
        handle a steady flush without quadratic list shuffling."""
        import time

        gf = make_geometric_file(capacity=100_000, buffer_capacity=100,
                                 retain_records=False, admission="always",
                                 beta_records=4)
        gf.ingest(100_000)
        start = time.monotonic()
        gf.ingest(2_000)  # ~20 steady flushes over a ~780-rung ladder
        assert time.monotonic() - start < 5.0
        gf.check_invariants()
