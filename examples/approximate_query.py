#!/usr/bin/env python3
"""Approximate query processing over a maintained sample (Sections 2, 9).

"Most of these algorithms could be viewed as potential users of a large
sample maintained as a geometric file" -- this example is such a user.
A skewed warehouse-style stream (zipfian category, lognormal amount)
flows into a geometric file; we then answer GROUP BY queries from the
sample and compare against exact answers, demonstrating:

* error bars that actually cover the truth;
* the Section 2 effect -- rare groups (small effective sample) get wide
  intervals, which is the case for very large samples;
* zone maps (the Section 10 extension) accelerating a time-window
  filter.

Run:
    python examples/approximate_query.py
"""

import os
import statistics

from repro import (
    GeometricFile,
    GeometricFileConfig,
    SampleQuery,
    SimulatedBlockDevice,
    ZoneMapIndex,
)
from repro.estimate import relative_error
from repro.storage.records import Record
from repro.streams import LogNormalStream, ZipfStream, take

_QUICK = bool(os.environ.get("REPRO_EXAMPLE_QUICK"))
STREAM_LENGTH = 12_000 if _QUICK else 80_000
CAPACITY = 600 if _QUICK else 4_000
N_CATEGORIES = 12


def make_stream():
    """Orders: zipf-distributed category, lognormal amount."""
    categories = ZipfStream(N_CATEGORIES, exponent=1.3, seed=11)
    amounts = LogNormalStream(mean=100.0, std=250.0, seed=12)
    for cat_record, amount_record in zip(categories, amounts):
        yield Record(
            key=cat_record.key,
            value=amount_record.value,
            timestamp=cat_record.timestamp,
            payload=str(int(cat_record.value)).encode(),
        )


def category_of(record: Record) -> int:
    return int(record.payload)


def main() -> None:
    records = take(make_stream(), STREAM_LENGTH)

    config = GeometricFileConfig(
        capacity=CAPACITY, buffer_capacity=200, record_size=64,
        retain_records=True, beta_records=20, admission="uniform",
    )
    device = SimulatedBlockDevice(
        GeometricFile.required_blocks(config, 32 * 1024)
    )
    sample = GeometricFile(device, config, seed=1)
    for record in records:
        sample.offer(record)

    query = SampleQuery(sample.sample(), population_size=STREAM_LENGTH)
    print(f"maintained sample: {len(query):,} of {STREAM_LENGTH:,} "
          f"records ({sample.flushes} flushes, "
          f"{device.model.stats.seeks:,} seeks)\n")

    # -- GROUP BY category: estimated vs exact ---------------------------
    print(f"{'category':>8} {'exact avg':>10} {'estimate':>10} "
          f"{'95% interval':>22} {'n sampled':>10} {'covered':>8}")
    exact = {}
    for record in records:
        exact.setdefault(category_of(record), []).append(record.value)
    covered = 0
    groups = query.group_by(category_of, aggregate="avg",
                            min_group_size=2)
    for group in groups:
        truth = statistics.mean(exact[group.key])
        interval = group.interval(0.95)
        hit = interval.contains(truth)
        covered += hit
        print(f"{group.key:>8} {truth:>10.2f} "
              f"{group.estimate.value:>10.2f} "
              f"[{interval.low:>9.2f}, {interval.high:>9.2f}] "
              f"{group.n_sampled:>10} {'yes' if hit else 'NO':>8}")
    print(f"\n{covered}/{len(groups)} intervals cover the exact answer "
          f"(rare categories get honest, wide intervals)\n")

    # -- a SUM with scale-up ----------------------------------------------
    total = query.sum()
    truth_total = sum(r.value for r in records)
    print(f"SUM(amount) ~ {total.value:,.0f}  "
          f"(exact {truth_total:,.0f}, "
          f"error {relative_error(total.value, truth_total):.2%})")

    # -- zone-map accelerated time filter ---------------------------------
    index = ZoneMapIndex(sample, field="timestamp")
    cutoff = records[-1].timestamp * 0.9
    recent = [r.value for r in index.query(cutoff, records[-1].timestamp)]
    stats = index.stats()
    print(f"\ntime-window filter via zone maps: scanned "
          f"{stats.records_scanned:,} records in "
          f"{stats.subsamples_scanned}/{stats.subsamples_total} "
          f"subsamples ({stats.pruned_fraction:.0%} pruned), "
          f"{len(recent)} matches")


if __name__ == "__main__":
    main()
