"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import signal

import pytest

from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.multi import MultiFileConfig, MultipleGeometricFiles
from repro.storage.device import SimulatedBlockDevice
from repro.storage.disk_model import DiskParameters
from repro.storage.records import Record

#: Small block size so unit-test scales still have multi-block segments.
TEST_BLOCK = 4096


def small_disk_params() -> DiskParameters:
    return DiskParameters(seek_time=0.010, transfer_rate=40 * 1024 * 1024,
                          block_size=TEST_BLOCK)


def make_geometric_file(capacity=2000, buffer_capacity=100, record_size=40,
                        *, retain_records=True, admission="uniform",
                        seed=0, **kwargs) -> GeometricFile:
    """A small geometric file on a fresh simulated device.

    The in-memory tail group defaults to a tenth of the buffer so small
    test configurations still exercise the disk ladder (the library's
    own default of one block's worth would swallow a 50-record buffer
    whole).
    """
    kwargs.setdefault("beta_records", max(4, buffer_capacity // 10))
    config = GeometricFileConfig(
        capacity=capacity, buffer_capacity=buffer_capacity,
        record_size=record_size, retain_records=retain_records,
        admission=admission, **kwargs,
    )
    blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
    device = SimulatedBlockDevice(blocks, small_disk_params())
    return GeometricFile(device, config, seed=seed)


def make_multi_file(capacity=2000, buffer_capacity=100, record_size=40,
                    *, retain_records=True, admission="uniform",
                    alpha_prime=0.9, seed=0,
                    **kwargs) -> MultipleGeometricFiles:
    """A small multi-file structure on a fresh simulated device."""
    kwargs.setdefault("beta_records", max(4, buffer_capacity // 10))
    config = MultiFileConfig(
        capacity=capacity, buffer_capacity=buffer_capacity,
        record_size=record_size, retain_records=retain_records,
        admission=admission, alpha_prime=alpha_prime, **kwargs,
    )
    blocks = MultipleGeometricFiles.required_blocks(config, TEST_BLOCK)
    device = SimulatedBlockDevice(blocks, small_disk_params())
    return MultipleGeometricFiles(device, config, seed=seed)


def manifest_ledgers(path) -> list[dict]:
    """Every ledger entry of the checkpoint manifest at ``path``."""
    state = json.loads(path.read_text())
    if "ledgers" in state:
        return state["ledgers"]
    return [ledger for file in state["files"] for ledger in file["ledgers"]]


def checkpoint_files(path) -> list[str]:
    """The manifest at ``path`` (a ``pathlib.Path``) plus the slab files
    it names, sorted: what its directory should hold."""
    return sorted([path.name] + [ledger["slab"]["file"]
                                 for ledger in manifest_ledgers(path)
                                 if ledger["slab"]])


def keyed_records(n: int) -> list[Record]:
    """Records with key == index, value == key, timestamp == key."""
    return [Record(key=i, value=float(i), timestamp=float(i))
            for i in range(n)]


@pytest.fixture
def records100() -> list[Record]:
    return keyed_records(100)


#: Per-test ceiling for the threaded pipeline tests: a writer-thread
#: deadlock must fail loudly, not hang the whole run.
PIPELINE_TEST_TIMEOUT = 60


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """SIGALRM deadlock guard for ``-m pipeline`` tests.

    CI layers pytest-timeout on top; this fallback keeps the guarantee
    on machines without the plugin.  Main-thread-only (SIGALRM), which
    is where pytest runs tests.
    """
    if (item.get_closest_marker("pipeline") is None
            or not hasattr(signal, "SIGALRM")):
        return (yield)

    def _trip(signum, frame):
        raise TimeoutError(
            f"pipeline test exceeded {PIPELINE_TEST_TIMEOUT}s; likely a "
            f"writer-thread deadlock (submit/barrier never returned)"
        )

    previous = signal.signal(signal.SIGALRM, _trip)
    signal.alarm(PIPELINE_TEST_TIMEOUT)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
