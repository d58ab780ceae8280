"""Command-line entry point: ``repro-bench``.

Runs the paper's Figure 7 experiments end to end and prints the
throughput table, I/O summary, and an ASCII rendition of the figure.
``--scale 1`` reproduces the paper's exact record counts (a billion
50 B records); larger scales shrink the run proportionally, and
``--scale 0`` is a fixed smoke configuration for CI.

Observability: ``--metrics PATH`` dumps the full metrics registry
(device counters mirrored per structure plus ``events.*`` totals) and
every structure's ``stats()`` snapshot as JSON (``-`` = stdout);
``--trace PATH`` streams structured events (flushes, segment
overwrites, dummy rotations, ...) to a JSONL file as they happen.

Examples::

    repro-bench fig7a --scale 100
    repro-bench fig7b --scale 1 --csv results.csv
    repro-bench fig7c --only "geo file" --only "multiple geo files"
    repro-bench fig7a --scale 0 --metrics - --trace /tmp/trace.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bench import (
    ALTERNATIVE_NAMES,
    ascii_chart,
    experiment_1,
    experiment_2,
    experiment_3,
    io_summary_table,
    run_until,
    throughput_table,
    to_csv,
)
from .obs import MetricsRegistry, TraceSink

_EXPERIMENTS = {
    "fig7a": experiment_1,
    "fig7b": experiment_2,
    "fig7c": experiment_3,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the SIGMOD 2004 geometric-file benchmarks.",
    )
    parser.add_argument("experiment", choices=sorted(_EXPERIMENTS),
                        help="which Figure 7 panel to run")
    parser.add_argument("--scale", type=int, default=100,
                        help="record-count divisor; 1 = paper scale, "
                             "0 = fixed smoke configuration "
                             "(default: 100)")
    parser.add_argument("--batch-size", type=int, default=None,
                        metavar="N",
                        help="records per ingest chunk for the Figure 7 "
                             "runs")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed (default: 0)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="NAME", choices=ALTERNATIVE_NAMES,
                        help="run only this alternative (repeatable)")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="also write raw checkpoints as CSV")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="dump the metrics registry and per-structure "
                             "stats() as JSON ('-' = stdout)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="stream structured trace events to a JSONL "
                             "file ('-' = stdout)")
    parser.add_argument("--no-chart", action="store_true",
                        help="skip the ASCII chart")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.batch_size is not None and args.batch_size < 1:
        parser.error("--batch-size must be at least 1")
    spec = _EXPERIMENTS[args.experiment](scale=args.scale, seed=args.seed)
    names = args.only or list(ALTERNATIVE_NAMES)

    registry = MetricsRegistry() if args.metrics is not None else None
    trace_file = None
    trace = None
    if args.trace is not None:
        trace_file = (sys.stdout if args.trace == "-"
                      else open(args.trace, "w", encoding="ascii"))
        trace = TraceSink(stream=trace_file)
    observing = registry is not None or trace is not None
    if observing and registry is None:
        registry = MetricsRegistry()

    scale_label = "smoke" if args.scale == 0 else f"1/{args.scale}"
    print(f"{spec.name}  scale={scale_label}")
    print(f"  reservoir: {spec.capacity:,} x {spec.record_size} B records"
          f"  buffer: {spec.buffer_capacity:,} records"
          f"  horizon: {spec.horizon_seconds / 3600:.2f} simulated hours")
    print()

    results = []
    snapshots = []
    for name in names:
        t0 = time.time()
        reservoir = spec.make(name)
        if observing:
            reservoir.instrument(registry, trace)
        result = run_until(reservoir, spec.horizon_seconds,
                           chunk_records=args.batch_size)
        print(f"  ran {name:<20} ({time.time() - t0:6.1f}s wall, "
              f"{result.final_samples:>16,} samples)")
        results.append(result)
        snapshots.append(reservoir.stats())
    print()
    print(throughput_table(results, spec.horizon_seconds))
    print(io_summary_table(results))
    if not args.no_chart:
        print(ascii_chart(results, spec.horizon_seconds))
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as sink:
            sink.write(to_csv(results))
        print(f"wrote {args.csv}")
    if args.metrics is not None:
        payload = {
            "experiment": spec.name,
            "scale": args.scale,
            "structures": [s.as_dict() for s in snapshots],
        }
        payload.update(registry.as_dict())
        if trace is not None:
            payload["trace_event_counts"] = trace.counts()
        text = json.dumps(payload, indent=2)
        if args.metrics == "-":
            print(text)
        else:
            with open(args.metrics, "w", encoding="ascii") as sink:
                sink.write(text)
                sink.write("\n")
            print(f"wrote {args.metrics}")
    if trace_file is not None and trace_file is not sys.stdout:
        trace_file.close()
        print(f"wrote {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
