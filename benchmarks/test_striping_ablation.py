"""Ablation -- the paper's multi-spindle arithmetic (Section 1 / 3.2).

The introduction prices a terabyte at five commodity spindles and
derives the virtual-memory option's ~250 records/second from their
combined ~500 head movements/second.  This ablation runs the actual
virtual-memory baseline over a striped five-spindle volume and a single
spindle, and shows the multi-geo option scaling with spindle count
(sequential bandwidth aggregates; random I/O does not).
"""

import pytest

from conftest import print_rows
from repro.baselines import DiskReservoirConfig, VirtualMemoryReservoir
from repro.core.multi import MultiFileConfig, MultipleGeometricFiles
from repro.storage import DiskParameters, StripedBlockDevice
from repro.storage.device import SimulatedBlockDevice

PARAMS = DiskParameters()  # the paper's measured disk


def test_virtual_memory_on_five_spindles(benchmark):
    """~50 records/second on one spindle, ~250 on five."""
    def run():
        out = {}
        config = DiskReservoirConfig(
            capacity=2_000_000, buffer_capacity=1000, record_size=100,
            pool_blocks=8,
        )
        blocks = VirtualMemoryReservoir.required_blocks(
            config, PARAMS.block_size
        )
        for n_disks in (1, 5):
            if n_disks == 1:
                device = SimulatedBlockDevice(blocks, PARAMS)
            else:
                device = StripedBlockDevice(blocks, n_disks, PARAMS)
            vm = VirtualMemoryReservoir(device, config, seed=0)
            vm.ingest(config.capacity)          # sequential fill
            fill_clock = vm.stats().clock
            vm.ingest(20_000)                   # random-I/O steady state
            rate = 20_000 / (vm.stats().clock - fill_clock)
            out[n_disks] = rate
        return out

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("spindles", "records/second", "paper")]
    rows.append((1, f"{rates[1]:.0f}", "~50 (500/5 movements, 2 each)"))
    rows.append((5, f"{rates[5]:.0f}", "~250"))
    print_rows("virtual-memory sampling rate vs spindle count", rows)
    assert rates[1] == pytest.approx(50, rel=0.2)
    assert rates[5] == pytest.approx(250, rel=0.2)


def test_multi_geo_scales_with_spindles(benchmark):
    """The sequential structure aggregates spindle bandwidth."""
    def run():
        out = {}
        config = MultiFileConfig(
            capacity=2_000_000, buffer_capacity=20_000, record_size=100,
            alpha_prime=0.9,
        )
        blocks = MultipleGeometricFiles.required_blocks(
            config, PARAMS.block_size
        )
        for n_disks in (1, 5):
            if n_disks == 1:
                device = SimulatedBlockDevice(blocks, PARAMS)
            else:
                device = StripedBlockDevice(blocks, n_disks, PARAMS)
            mf = MultipleGeometricFiles(device, config, seed=0)
            mf.ingest(2_000_000)                # fill
            fill_clock = mf.stats().clock
            mf.ingest(2_000_000)                # steady state
            out[n_disks] = 2_000_000 / (mf.stats().clock - fill_clock)
        return out

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("spindles", "records/second")]
    for n_disks, rate in rates.items():
        rows.append((n_disks, f"{rate:,.0f}"))
    print_rows("multi-geo throughput vs spindle count", rows)
    # Sequential work parallelises; seeks only partially, so expect
    # a healthy (if sub-linear) speedup.
    assert rates[5] > 2 * rates[1]
