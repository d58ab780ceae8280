#!/usr/bin/env python3
"""Quickstart: maintain a disk-resident reservoir sample from a stream.

The setting of the paper in fifty lines: a stream produces far more
records than memory can hold; we keep an always-valid uniform random
sample of ONE MILLION records on disk using a memory buffer of only ten
thousand, then answer a query from it with error bars.

Run:
    python examples/quickstart.py
"""

import os

from repro import (
    GeometricFile,
    GeometricFileConfig,
    SampleQuery,
    SimulatedBlockDevice,
    UniformStream,
)
from repro.streams import take

# REPRO_EXAMPLE_QUICK=1 shrinks the workload ~50x (used by CI smoke
# tests); the output narrative is unchanged, and the buffer stays large
# enough that every flush still writes disk segments.
_QUICK = bool(os.environ.get("REPRO_EXAMPLE_QUICK"))
N = 50_000 if _QUICK else 1_000_000
B = 5_000 if _QUICK else 10_000
STREAM = 100_000 if _QUICK else 5_000_000


def main() -> None:
    # -- configure the sample: N = 1,000,000 records, B = 10,000 -------
    config = GeometricFileConfig(
        capacity=N,                # reservoir size N (records)
        buffer_capacity=B,         # in-memory buffer B (records)
        record_size=50,            # the paper's small-record workload
        retain_records=True,       # keep payloads so we can query
        admission="uniform",       # Algorithm 1's N/i gate
    )
    blocks = GeometricFile.required_blocks(config, block_size=32 * 1024)
    device = SimulatedBlockDevice(blocks, retain_data=False)
    sample = GeometricFile(device, config, seed=42)
    print(f"geometric file: alpha = {sample.alpha:.4f}, "
          f"{sample.ladder.n_disk_segments} segments per flush, "
          f"{blocks * 32 // 1024} MiB on disk")

    # -- stream millions of records past it ----------------------------
    stream = UniformStream(low=0.0, high=100.0, seed=7)
    for record in take(stream, STREAM):
        sample.offer(record)
    sample.check_invariants()
    progress = sample.stats()
    print(f"stream position: {progress.seen:,} records seen, "
          f"{progress.samples_added:,} admitted, "
          f"{progress.flushes} buffer flushes, "
          f"{progress.io.seeks:,} head movements, "
          f"{progress.clock:.1f} s of simulated disk time")

    # -- the reservoir is a true uniform sample at any instant ---------
    snapshot = sample.sample()
    print(f"snapshot: {len(snapshot):,} records "
          f"(all distinct: {len({r.key for r in snapshot}) == len(snapshot)})")

    # -- query it with error bars ---------------------------------------
    query = SampleQuery(snapshot, population_size=progress.seen)
    average = query.avg()
    interval = average.interval(confidence=0.95)
    print(f"AVG(value) ~ {average.value:.3f} "
          f"(95% CI [{interval.low:.3f}, {interval.high:.3f}]; "
          f"true mean is 50.0)")

    selective = query.count(lambda r: r.value < 1.0)
    print(f"COUNT(value < 1)  ~ {selective.value:,.0f} of "
          f"{progress.seen:,}  (truth ~ {progress.seen / 100:,.0f})")
    assert interval.low < 50.0 < interval.high or _QUICK


if __name__ == "__main__":
    main()
