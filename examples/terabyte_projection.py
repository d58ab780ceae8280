#!/usr/bin/env python3
"""The paper's terabyte scenario, end to end on the simulated disk.

Section 6 closes with: "If we wish to maintain a 1 TB reservoir of
100 B samples with 1 GB of memory, we can achieve alpha' = 0.9 by using
only 1.1 TB of disk storage in total.  For alpha' = 0.9, we will need
less than 100 segments per 1 GB buffer flush.  At 4 seeks per segment,
this is only 4 seconds of random disk head movements to write 1 GB of
new samples to disk."

This example checks every one of those numbers with the analytical
model, then *runs* the configuration (count-only mode, scaled 1/100 so
it finishes in seconds) and compares what the simulator measures against
what a single-geometric-file deployment would suffer.

Run:
    python examples/terabyte_projection.py
"""

from repro import (
    DiskParameters,
    GeometricFile,
    GeometricFileConfig,
    MultiFileConfig,
    MultipleGeometricFiles,
    SimulatedBlockDevice,
)
from repro.analysis import (
    files_needed,
    geometric_flush_cost,
    multi_file_storage_blowup,
    segments_per_flush,
)

TB = 1024 ** 4
GB = 1024 ** 3
RECORD = 100

PAPER_RESERVOIR = TB // RECORD      # 1 TB of 100 B records
PAPER_BUFFER = GB // RECORD         # 1 GB buffer
BETA = 320                          # one 32 KB block


def analytic_section() -> None:
    print("== the paper's arithmetic, recomputed ==")
    m = files_needed(PAPER_RESERVOIR, PAPER_BUFFER, 0.9)
    segments = segments_per_flush(PAPER_BUFFER, 0.9, BETA)
    cost = geometric_flush_cost(PAPER_BUFFER, RECORD, 0.9, BETA)
    blowup = multi_file_storage_blowup(0.9)
    alpha = 1 - PAPER_BUFFER / PAPER_RESERVOIR
    single_segments = segments_per_flush(PAPER_BUFFER, alpha, BETA)
    single_cost = geometric_flush_cost(PAPER_BUFFER, RECORD, alpha, BETA)

    print(f"  Lemma 1 pins a single file to alpha = {alpha:.4f} "
          f"-> {single_segments:,} segments per flush, "
          f"{single_cost.seek_seconds:.0f} s of seeks per GB")
    print(f"  striping over m = {m} files gives alpha' = 0.9 "
          f"-> {segments} segments per flush "
          f"(paper: 'less than 100')")
    print(f"  seek time per 1 GB flush: {cost.seek_seconds:.1f} s "
          f"(paper: 'only 4 seconds'), plus "
          f"{cost.transfer_seconds:.0f} s of sequential transfer")
    print(f"  total disk: {blowup:.1f} TB for the 1 TB reservoir "
          f"(paper: '1.1 TB')")


def simulated_section(scale: int = 100) -> None:
    print(f"\n== the same configuration, run for one simulated hour "
          f"(counts scaled 1/{scale}) ==")
    capacity = PAPER_RESERVOIR // scale
    buffer = PAPER_BUFFER // scale
    params = DiskParameters()  # the paper's measured disk
    horizon = 3600.0

    single_config = GeometricFileConfig(
        capacity=capacity, buffer_capacity=buffer, record_size=RECORD,
    )
    single_device = SimulatedBlockDevice(
        GeometricFile.required_blocks(single_config, params.block_size),
        params,
    )
    single = GeometricFile(single_device, single_config, seed=0)

    multi_config = MultiFileConfig(
        capacity=capacity, buffer_capacity=buffer, record_size=RECORD,
        alpha_prime=0.9,
    )
    multi_device = SimulatedBlockDevice(
        MultipleGeometricFiles.required_blocks(multi_config,
                                               params.block_size),
        params,
    )
    multi = MultipleGeometricFiles(multi_device, multi_config, seed=0)

    for structure in (single, multi):
        while structure.stats().clock < horizon:
            structure.ingest(buffer)

    for label, structure, device in (
        ("single geometric file", single, single_device),
        (f"{multi.n_files} geometric files", multi, multi_device),
    ):
        stats = device.model.stats
        progress = structure.stats()
        rate = progress.samples_added * RECORD / progress.clock / 2 ** 20
        print(f"  {label:<22} {progress.samples_added:>13,} samples"
              f"  {stats.seeks:>10,} seeks"
              f"  {100 * stats.random_io_fraction:5.1f}% seek time"
              f"  {rate:6.1f} MiB/s effective")
    speedup = multi.stats().samples_added / single.stats().samples_added
    print(f"  -> multi-file speedup: {speedup:.1f}x "
          f"(widens further at full scale; see EXPERIMENTS.md)")


def main() -> None:
    import os

    analytic_section()
    scale = 1000 if os.environ.get("REPRO_EXAMPLE_QUICK") else 100
    simulated_section(scale=scale)


if __name__ == "__main__":
    main()
