"""Benchmark harness: the Figure 7 experiment specs, the throughput
runner, and report rendering."""

from .experiments import (
    ALTERNATIVE_NAMES,
    ExperimentSpec,
    experiment_1,
    experiment_2,
    experiment_3,
)
from .report import ascii_chart, io_summary_table, throughput_table, to_csv
from .runner import RunResult, SeriesPoint, run_until

__all__ = [
    "ALTERNATIVE_NAMES",
    "ExperimentSpec",
    "RunResult",
    "SeriesPoint",
    "ascii_chart",
    "experiment_1",
    "experiment_2",
    "experiment_3",
    "io_summary_table",
    "run_until",
    "throughput_table",
    "to_csv",
]
