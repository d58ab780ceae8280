"""Extension benchmark -- zone-map index maintenance (Section 10).

The paper lists "efficient index maintenance for the geometric file, so
that samples with specific characteristics can be found quickly" as
future work.  This benchmark measures the zone-map implementation: the
fraction of subsamples a time-window query can skip, and the scan-work
reduction, as a function of window width.
"""

from conftest import print_rows
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.zonemap import ZoneMapIndex
from repro.storage.device import SimulatedBlockDevice
from repro.storage.disk_model import DiskParameters
from repro.streams import SensorStream, take


def _loaded_file(stream_len=30_000, capacity=3000, seed=0):
    config = GeometricFileConfig(
        capacity=capacity, buffer_capacity=150, record_size=50,
        retain_records=True, beta_records=15, admission="always",
    )
    blocks = GeometricFile.required_blocks(config, 4096)
    device = SimulatedBlockDevice(blocks, DiskParameters(block_size=4096))
    gf = GeometricFile(device, config, seed=seed)
    records = take(SensorStream(n_sensors=100, seed=seed), stream_len)
    for record in records:
        gf.offer(record)
    return gf, records


def test_pruning_vs_window_width(benchmark):
    def run():
        gf, records = _loaded_file()
        index = ZoneMapIndex(gf, field="timestamp")
        horizon = records[-1].timestamp
        out = []
        for window_fraction in (0.01, 0.05, 0.10, 0.25, 0.50, 1.00):
            low = horizon * (1 - window_fraction)
            matches = sum(1 for _ in index.query(low, horizon))
            stats = index.stats()
            out.append((window_fraction, matches,
                        stats.records_scanned, stats.pruned_fraction))
        return out

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("window (of stream)", "matches", "records scanned",
             "subsamples pruned")]
    for fraction, matches, scanned, pruned in table:
        rows.append((f"last {fraction:.0%}", matches, scanned,
                     f"{pruned:.0%}"))
    print_rows("zone-map pruning vs time-window width", rows)

    # Narrow recent windows prune heavily; the full window prunes
    # nothing (every envelope intersects).
    assert table[0][3] > 0.5
    assert table[-1][3] == 0.0
    # Scan work is monotone in window width.
    scans = [row[2] for row in table]
    assert scans == sorted(scans)


def test_index_maintenance_costs_nothing_on_disk(benchmark):
    """Envelopes are computed from in-memory flush data: zero extra I/O."""
    def run():
        gf_plain, _ = _loaded_file(seed=1)
        gf_indexed, _ = _loaded_file(seed=1)
        ZoneMapIndex(gf_indexed, field="timestamp").refresh()
        return (gf_plain.device.model.stats.seeks,
                gf_indexed.device.model.stats.seeks)

    plain, indexed = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows("seeks with and without index maintenance",
               [("plain", plain), ("indexed", indexed)])
    assert plain == indexed
