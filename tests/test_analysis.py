"""Tests for the analytical cost model and stack-bound arithmetic."""

import math

import pytest

from conftest import make_geometric_file
from repro.analysis import (
    files_needed,
    geometric_flush_cost,
    local_overwrite_saturated_cohorts,
    multi_file_storage_blowup,
    no_overflow_probability,
    omega,
    overflow_probability,
    required_multiplier,
    scan_flush_cost,
    seeks_per_flush,
    segments_per_flush,
    subsample_size_sigma,
    survival_probability,
    virtual_memory_record_cost,
    worst_case_sigma,
)
from repro.storage.disk_model import DiskParameters


class TestCostModel:
    def test_segments_match_geometry(self):
        assert segments_per_flush(10 ** 7, 0.99, 320) == 1029

    def test_omega_values(self):
        # omega = 1/log2(1/alpha'); small alpha' means few segments.
        assert omega(0.5) == pytest.approx(1.0)
        assert omega(0.9) == pytest.approx(6.579, rel=0.01)
        # The introduction's "down to 20 or so in practice".
        assert omega(0.97) == pytest.approx(22.76, rel=0.01)

    def test_omega_times_log_recovers_segment_count(self):
        buffer, alpha_prime, beta = 10 ** 7, 0.9, 320
        predicted = omega(alpha_prime) * (math.log2(buffer)
                                          - math.log2(beta))
        actual = segments_per_flush(buffer, alpha_prime, beta)
        assert actual == pytest.approx(predicted, abs=1.5)

    def test_section5_seek_time_comparison(self):
        """'1029 segments might mean around 40 seconds of disk time in
        random I/Os (at 10ms each), whereas 10,344 might mean 400.'"""
        seeks_99 = seeks_per_flush(10 ** 7, 0.99, 320)
        seeks_999 = seeks_per_flush(10 ** 7, 0.999, 320)
        assert seeks_99 * 0.010 == pytest.approx(41.2, rel=0.02)
        assert seeks_999 * 0.010 == pytest.approx(413.8, rel=0.02)

    def test_section6_four_seconds_per_gigabyte(self):
        """'At 4 seeks per segment, this is only 4 seconds of random
        disk head movements to write 1 GB of new samples.'"""
        cost = geometric_flush_cost(10 ** 7, 100, 0.9, 320)
        assert cost.seek_seconds == pytest.approx(4.0, abs=0.4)

    def test_transfer_time_for_1gb_buffer(self):
        """'The time required to write 1 GB sequentially is only around
        25 seconds' (at 40 MB/s)."""
        cost = geometric_flush_cost(10 ** 7, 100, 0.9, 320)
        assert cost.transfer_seconds == pytest.approx(25.0, rel=0.1)

    def test_single_file_is_seek_dominated(self):
        cost = geometric_flush_cost(10 ** 7, 100, 0.999, 320)
        assert cost.random_io_fraction > 0.9

    def test_scan_cost(self):
        cost = scan_flush_cost(10 ** 9, 10 ** 7, 50)
        # 2 x 50 GB at 40 MB/s ~ 2560 seconds.
        assert cost.transfer_seconds == pytest.approx(2560, rel=0.07)

    def test_virtual_memory_paper_arithmetic(self):
        """'We can sample only 250 records per second at 10 ms per
        random I/O with one terabyte of storage' -- i.e. 5 spindles at
        ~50 records/second each; we model a single spindle."""
        per_record = virtual_memory_record_cost(record_size=100)
        assert 1.0 / per_record == pytest.approx(50, rel=0.1)

    def test_files_needed(self):
        assert files_needed(10 ** 9, 10 ** 7, 0.9) == 10

    def test_storage_blowup(self):
        # 1 TB reservoir at alpha' = 0.9 -> 1.1 TB total.
        assert multi_file_storage_blowup(0.9) == pytest.approx(1.1)

    def test_local_overwrite_saturation(self):
        # ln(1e7) / -ln(0.99) = 1603.7 -> 1604 live cohorts at most.
        assert local_overwrite_saturated_cohorts(10 ** 7, 0.99) == 1604

    def test_validation(self):
        with pytest.raises(ValueError):
            omega(1.0)
        with pytest.raises(ValueError):
            seeks_per_flush(100, 0.9, 10, seeks_per_segment=0)
        with pytest.raises(ValueError):
            local_overwrite_saturated_cohorts(0, 0.9)


class TestCostModelAgainstSimulator:
    def test_predicted_seeks_bracket_measured(self):
        """The closed form and the simulator must agree on seeks/flush."""
        # A scale where no ladder rung rounds to zero, so the closed
        # form and the built structure see the same segment count.
        gf = make_geometric_file(capacity=200_000, buffer_capacity=2000,
                                 retain_records=False, admission="always",
                                 beta_records=200, seed=1)
        gf.ingest(200_000)
        assert gf.ladder.n_disk_segments == segments_per_flush(
            2000, gf.alpha, 200
        )
        seeks_before = gf.device.model.stats.seeks
        flushes_before = gf.flushes
        gf.ingest(50_000)
        flushes = gf.flushes - flushes_before
        measured = (gf.device.model.stats.seeks - seeks_before) / flushes
        predicted = seeks_per_flush(2000, gf.alpha, 200,
                                    seeks_per_segment=4.0)
        assert measured == pytest.approx(predicted, rel=0.35)

    def test_predicted_flush_time_brackets_measured(self):
        gf = make_geometric_file(capacity=200_000, buffer_capacity=2000,
                                 record_size=40, retain_records=False,
                                 admission="always", beta_records=200,
                                 seed=1)
        gf.ingest(200_000)
        clock_before = gf.stats().clock
        flushes_before = gf.flushes
        gf.ingest(50_000)
        flushes = gf.flushes - flushes_before
        measured = (gf.stats().clock - clock_before) / flushes
        predicted = geometric_flush_cost(
            2000, 40, gf.alpha, 200,
            DiskParameters(block_size=4096),
        ).total_seconds
        assert measured == pytest.approx(predicted, rel=0.35)


class TestStackBounds:
    def test_survival_probability(self):
        p = survival_probability(10 ** 9, 10 ** 7)
        assert p == pytest.approx(math.exp(-0.01), rel=1e-4)

    def test_sigma_peaks_at_half(self):
        b = 10 ** 7
        assert subsample_size_sigma(b, 0.5) == worst_case_sigma(b)
        assert subsample_size_sigma(b, 0.1) < worst_case_sigma(b)
        assert subsample_size_sigma(b, 0.9) < worst_case_sigma(b)

    def test_worst_case_sigma_formula(self):
        assert worst_case_sigma(10 ** 7) == pytest.approx(
            0.5 * math.sqrt(10 ** 7)
        )

    def test_paper_1e_minus_9(self):
        """'Around a 1e-9 probability that any given subsample
        overflows its stack' with 3*sqrt(B)."""
        p = overflow_probability(10 ** 7, 3.0)
        assert 5e-10 < p < 2e-9

    def test_paper_survival_over_100k_flushes(self):
        """The paper states '(1 - 1e-9)^100,000, or 99.99990%', but
        (1 - 1e-9)^1e5 = 0.99990 -- the printed percentage drops a
        digit.  We assert the mathematically correct value and record
        the discrepancy in EXPERIMENTS.md."""
        p = no_overflow_probability(100_000, 3.0)
        assert p == pytest.approx(math.exp(-100_000 * 9.866e-10),
                                  abs=1e-6)
        assert 0.9999 < p < 0.99991

    def test_required_multiplier_inverts(self):
        m = required_multiplier(1e-9)
        assert overflow_probability(10 ** 7, m) <= 1.1e-9
        assert m == pytest.approx(3.0, abs=0.1)

    def test_simulator_never_exceeds_six_sigma_in_practice(self):
        """Observed stack high-water marks respect the bound."""
        gf = make_geometric_file(capacity=10_000, buffer_capacity=400,
                                 retain_records=False, admission="always",
                                 beta_records=40, seed=5)
        gf.ingest(100_000)
        bound = 3 * math.sqrt(400)
        for ledger in gf.subsamples:
            assert ledger.max_stack_balance <= bound
        assert gf.stack_overflows == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            survival_probability(0, 10)
        with pytest.raises(ValueError):
            overflow_probability(10, 0.0)
        with pytest.raises(ValueError):
            required_multiplier(1.5)
