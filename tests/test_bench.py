"""Tests for the benchmark harness (runner, experiment specs, reports, CLI)."""

import pytest

from repro.bench import (
    ALTERNATIVE_NAMES,
    ExperimentSpec,
    ascii_chart,
    experiment_1,
    experiment_2,
    experiment_3,
    io_summary_table,
    run_until,
    throughput_table,
    to_csv,
)
from repro.bench.runner import RunResult, SeriesPoint
from repro.cli import main as cli_main


class TestExperimentSpecs:
    def test_experiment_1_paper_scale_counts(self):
        spec = experiment_1(scale=1)
        assert spec.capacity == 50 * 1024 ** 3 // 50
        assert spec.buffer_capacity == 500 * 1024 ** 2 // 50
        assert spec.horizon_seconds == pytest.approx(20 * 3600)

    def test_experiment_2_uses_1kb_records(self):
        spec = experiment_2(scale=1)
        assert spec.record_size == 1024
        assert spec.capacity == 50 * 1024 ** 3 // 1024

    def test_experiment_3_smaller_buffer(self):
        spec3 = experiment_3(scale=1)
        spec1 = experiment_1(scale=1)
        assert spec3.buffer_capacity == spec1.buffer_capacity // 10

    def test_scaling_divides_counts_and_horizon(self):
        base = experiment_1(scale=1)
        scaled = experiment_1(scale=100)
        assert scaled.capacity == pytest.approx(base.capacity / 100, rel=0.01)
        assert scaled.horizon_seconds == base.horizon_seconds / 100

    def test_disk_parameters_match_paper(self):
        params = experiment_1().disk_parameters()
        assert params.seek_time == 0.010
        assert params.transfer_rate == 40 * 1024 ** 2
        assert params.block_size == 32 * 1024

    def test_make_all_builds_five_alternatives(self):
        spec = experiment_1(scale=2000)
        made = spec.make_all()
        assert set(made) == set(ALTERNATIVE_NAMES)
        for name, reservoir in made.items():
            assert reservoir.name == name

    def test_unknown_alternative_rejected(self):
        with pytest.raises(ValueError):
            experiment_1(scale=2000).make("btree")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            experiment_1(scale=-1)

    def test_scale_zero_is_smoke_mode(self):
        spec = experiment_1(scale=0)
        assert spec.capacity == ExperimentSpec.SMOKE_CAPACITY
        assert spec.buffer_capacity == ExperimentSpec.SMOKE_BUFFER
        assert 0 < spec.horizon_seconds < 60


class TestRunner:
    def test_run_reaches_horizon(self):
        spec = experiment_1(scale=2000)
        result = run_until(spec.make("scan"), spec.horizon_seconds)
        assert result.final_clock >= spec.horizon_seconds
        assert result.final_samples > 0
        assert result.points[0].clock <= result.points[-1].clock

    def test_max_records_cap(self):
        spec = experiment_1(scale=2000)
        result = run_until(spec.make("multiple geo files"),
                           spec.horizon_seconds, max_records=1000)
        assert result.final_samples <= 1000

    def test_io_stats_collected(self):
        spec = experiment_1(scale=2000)
        result = run_until(spec.make("geo file"), spec.horizon_seconds)
        assert result.seeks > 0
        assert result.blocks_written > 0

    def test_bad_horizon_rejected(self):
        spec = experiment_1(scale=2000)
        with pytest.raises(ValueError):
            run_until(spec.make("scan"), 0.0)

    def test_samples_at_interpolates(self):
        result = RunResult("x", points=[SeriesPoint(10.0, 100),
                                        SeriesPoint(20.0, 300)])
        assert result.samples_at(10.0) == 100
        assert result.samples_at(15.0) == pytest.approx(200.0)
        assert result.samples_at(25.0) == 300
        assert result.samples_at(5.0) == pytest.approx(50.0)

    def test_samples_at_empty(self):
        assert RunResult("x").samples_at(5.0) == 0.0


class TestReports:
    def make_results(self):
        a = RunResult("fast", points=[SeriesPoint(t, t * 100)
                                      for t in range(1, 11)])
        b = RunResult("slow", points=[SeriesPoint(t, t * 10)
                                      for t in range(1, 11)])
        a.seeks, b.seeks = 5, 50
        return [a, b]

    def test_throughput_table_shape(self):
        text = throughput_table(self.make_results(), horizon=10.0,
                                n_rows=5, unit=1.0, unit_label="")
        lines = text.strip().splitlines()
        assert len(lines) == 6  # header + 5 rows
        assert "fast" in lines[0] and "slow" in lines[0]

    def test_io_summary_contains_names_and_seeks(self):
        text = io_summary_table(self.make_results())
        assert "fast" in text and "50" in text

    def test_ascii_chart_renders(self):
        text = ascii_chart(self.make_results(), horizon=10.0, width=30,
                           height=8)
        assert "fast" in text and "slow" in text
        assert "|" in text and "+" in text

    def test_csv_round_trip(self):
        text = to_csv(self.make_results())
        lines = text.strip().splitlines()
        assert lines[0] == "alternative,clock_seconds,samples_added"
        assert len(lines) == 21

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            throughput_table([], 10.0)
        with pytest.raises(ValueError):
            ascii_chart([], 10.0)


class TestCLI:
    def test_smoke(self, capsys):
        rc = cli_main(["fig7a", "--scale", "2000", "--only", "scan",
                       "--only", "geo file", "--no-chart"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "experiment 1" in out
        assert "scan" in out and "geo file" in out

    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        rc = cli_main(["fig7c", "--scale", "2000", "--only", "scan",
                       "--csv", str(path), "--no-chart"])
        assert rc == 0
        assert path.read_text().startswith("alternative,clock_seconds")


class TestCLIErrors:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fig7z"])

    def test_unknown_alternative_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fig7a", "--only", "btree"])

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig7b"])
        assert args.scale == 100
        assert args.only is None
        assert args.csv is None


class TestReportEdges:
    def test_chart_with_flat_series(self):
        flat = RunResult("flat", points=[SeriesPoint(1.0, 0),
                                         SeriesPoint(10.0, 0)])
        text = ascii_chart([flat], horizon=10.0, width=20, height=5)
        assert "flat" in text

    def test_throughput_table_time_units(self):
        results = [RunResult("x", points=[SeriesPoint(7200.0, 10)])]
        text = throughput_table(results, horizon=7200.0, n_rows=2,
                                unit=1.0, unit_label="")
        assert "h" in text  # hours formatting kicks in

    def test_csv_escaping_free_names(self):
        # Alternative names contain spaces but no commas; the CSV stays
        # three clean columns.
        result = RunResult("local overwrite",
                           points=[SeriesPoint(1.0, 5)])
        lines = to_csv([result]).strip().splitlines()
        assert lines[1].count(",") == 2
