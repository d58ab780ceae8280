"""Tests for the pipelined flush engine (:mod:`repro.pipeline`).

The load-bearing property is the determinism contract: a structure run
with ``pipeline=True`` must be bit-exact -- samples, DiskStats, device
clock -- with its synchronous twin under the same scheduler, because
the writer thread only moves already-scheduled ops and never touches
RNG or structure state.  The twin-parity matrix below checks that for
every structure on every device kind.

A conftest alarm guard (see ``tests/conftest.py``) turns any deadlock
in these threaded tests into a loud failure instead of a hung CI job.
"""

from __future__ import annotations

import pytest

from conftest import TEST_BLOCK, keyed_records, small_disk_params
from repro.baselines import (
    DiskReservoirConfig,
    LocalOverwriteReservoir,
    ScanReservoir,
    VirtualMemoryReservoir,
)
from repro.core.biased_file import BiasedGeometricFile
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.managed import ManagedSample
from repro.core.multi import MultiFileConfig, MultipleGeometricFiles
from repro.pipeline import (
    ElevatorScheduler,
    FifoScheduler,
    FlushEngine,
    FlushPlan,
    PipelineWriteError,
    make_scheduler,
)
from repro.storage.buffer_pool import LRUBufferPool
from repro.storage.device import MemoryBlockDevice, SimulatedBlockDevice
from repro.storage.disk_model import DiskModel, DiskParameters

pytestmark = pytest.mark.pipeline

DEVICE_KINDS = ("memory", "sim", "sim-retain")
STRUCTURES = ("geometric", "multi", "biased", "scan", "local", "vm")


def make_device(kind: str, blocks: int):
    if kind == "memory":
        return MemoryBlockDevice(blocks, block_size=TEST_BLOCK)
    return SimulatedBlockDevice(blocks, small_disk_params(),
                                retain_data=(kind == "sim-retain"))


def device_fingerprint(device) -> tuple:
    """(DiskStats snapshot, clock) -- the bit-exactness witnesses."""
    return device.stats(), getattr(device, "clock", 0.0)


def build_structure(name: str, device_kind: str, *, pipeline: bool,
                    io_scheduler: str = "elevator", seed: int = 7):
    if name in ("geometric", "biased"):
        config = GeometricFileConfig(
            capacity=600, buffer_capacity=60, record_size=40,
            beta_records=8, retain_records=True,
            pipeline=pipeline, io_scheduler=io_scheduler,
        )
        blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
        device = make_device(device_kind, blocks)
        if name == "biased":
            weight = lambda r: 1.0 + (r.key % 3)  # noqa: E731
            return BiasedGeometricFile(device, config, weight,
                                       seed=seed), device
        return GeometricFile(device, config, seed=seed), device
    if name == "multi":
        config = MultiFileConfig(
            capacity=600, buffer_capacity=60, record_size=40,
            beta_records=8, retain_records=True, alpha_prime=0.9,
            pipeline=pipeline, io_scheduler=io_scheduler,
        )
        blocks = MultipleGeometricFiles.required_blocks(config, TEST_BLOCK)
        device = make_device(device_kind, blocks)
        return MultipleGeometricFiles(device, config, seed=seed), device
    config = DiskReservoirConfig(
        capacity=500, buffer_capacity=50, record_size=40,
        retain_records=True, pool_blocks=8,
        pipeline=pipeline, io_scheduler=io_scheduler,
    )
    cls = {"scan": ScanReservoir, "local": LocalOverwriteReservoir,
           "vm": VirtualMemoryReservoir}[name]
    blocks = cls.required_blocks(config, TEST_BLOCK)
    device = make_device(device_kind, blocks)
    return cls(device, config), device


def drive(structure, n: int = 2000) -> None:
    for record in keyed_records(n):
        structure.offer(record)


class TestSchedulers:
    def test_make_scheduler_names(self):
        assert isinstance(make_scheduler("fifo"), FifoScheduler)
        assert isinstance(make_scheduler("elevator"), ElevatorScheduler)
        with pytest.raises(ValueError):
            make_scheduler("btrfs")

    def test_fifo_preserves_recorded_order(self):
        plan = FlushPlan()
        plan.write(30, 2)
        plan.write(10, 1, overhead=2)
        plan.read(5, 1)
        plan.seek()
        ops, summary = FifoScheduler().schedule(plan, None)
        assert ops == list(plan.ops)
        assert summary["merged"] == 0
        assert summary["bursts_out"] == plan.n_writes == 2

    def test_elevator_sorts_and_merges_adjacent(self):
        plan = FlushPlan()
        plan.write(10, 2)   # out of order on purpose
        plan.write(0, 2)
        plan.write(2, 3)    # exactly adjacent to (0, 2)
        ops, summary = ElevatorScheduler(bridge_blocks=0).schedule(plan,
                                                                   None)
        writes = [op for op in ops if op[0] == "write"]
        assert [(op[1], op[2]) for op in writes] == [(0, 5), (10, 2)]
        assert summary["merged"] == 1
        assert summary["bursts_out"] == 2
        assert summary["extents_in"] == 3

    def test_elevator_bridges_small_gaps_with_padding(self):
        plan = FlushPlan()
        plan.write(0, 2)
        plan.write(5, 1)  # gap of 3 blocks
        ops, summary = ElevatorScheduler(bridge_blocks=4).schedule(plan,
                                                                   None)
        writes = [op for op in ops if op[0] == "write"]
        assert [(op[1], op[2]) for op in writes] == [(0, 6)]
        assert summary["bridged_blocks"] == 3
        assert summary["merged"] == 1

    def test_elevator_respects_bridge_limit(self):
        plan = FlushPlan()
        plan.write(0, 2)
        plan.write(9, 1)  # gap of 7 > bridge 4
        ops, _ = ElevatorScheduler(bridge_blocks=4).schedule(plan, None)
        writes = [op for op in ops if op[0] == "write"]
        assert len(writes) == 2

    def test_elevator_keeps_reads_after_writes_and_hoists_seeks(self):
        plan = FlushPlan()
        plan.seek(2)
        plan.read(50, 1)
        plan.write(40, 1)
        plan.read(7, 2)
        ops, _ = ElevatorScheduler(bridge_blocks=0).schedule(plan, None)
        kinds = [op[0] for op in ops]
        assert kinds == ["write", "read", "read", "seek"]
        reads = [op for op in ops if op[0] == "read"]
        assert [op[1] for op in reads] == [50, 7]  # recorded order
        assert ops[-1] == ("seek", 2)

    def test_merged_burst_charges_max_overhead_once(self):
        plan = FlushPlan()
        plan.write(0, 1, overhead=2)
        plan.write(1, 1, overhead=1)
        ops, summary = ElevatorScheduler(bridge_blocks=0).schedule(plan,
                                                                   None)
        writes = [op for op in ops if op[0] == "write"]
        assert len(writes) == 1
        assert writes[0][4] == 2  # max of the members, billed once
        assert summary["overhead_saved"] == 1

    def test_clamped_write_still_charges_overhead(self):
        # The legacy write_slot quirk: a slot clamped to zero blocks
        # still pays its extra boundary seeks.
        plan = FlushPlan()
        plan.write(10, 0, overhead=2)
        assert plan.ops == [("seek", 2)]
        assert plan.n_seeks == 2


class TestEngineTimeline:
    def _plan(self, block: int = 0, blocks: int = 100) -> FlushPlan:
        plan = FlushPlan()
        plan.write(block, blocks)
        return plan

    def _disk_seconds_per_plan(self) -> float:
        device = SimulatedBlockDevice(4096, small_disk_params())
        engine = FlushEngine(device)
        engine.submit(self._plan())
        return engine.disk_seconds

    def test_synchronous_elapsed_is_fill_plus_disk(self):
        device = SimulatedBlockDevice(4096, small_disk_params())
        engine = FlushEngine(device)
        engine.submit(self._plan(), fill_seconds=1.0)
        engine.submit(self._plan(), fill_seconds=1.0)
        d = engine.disk_seconds / 2
        assert engine.elapsed_seconds == pytest.approx(2 * (1.0 + d))
        assert engine.stall_seconds == 0.0

    def test_pipelined_elapsed_overlaps_fill_with_previous_disk(self):
        d = self._disk_seconds_per_plan()
        fill = 2 * d  # fill-dominated: disk fully hidden
        device = SimulatedBlockDevice(4096, small_disk_params())
        engine = FlushEngine(device, pipeline=True)
        for _ in range(3):
            engine.submit(self._plan(), fill_seconds=fill)
        engine.barrier()
        # fill_1 + max(fill, d) * 2 + trailing d at the barrier
        assert engine.elapsed_seconds == pytest.approx(3 * fill + d)
        assert engine.stall_seconds == pytest.approx(d)  # barrier only
        assert engine.disk_seconds == pytest.approx(3 * d)

    def test_pipelined_stalls_when_disk_dominates(self):
        d = self._disk_seconds_per_plan()
        fill = d / 2
        device = SimulatedBlockDevice(4096, small_disk_params())
        engine = FlushEngine(device, pipeline=True)
        for _ in range(3):
            engine.submit(self._plan(), fill_seconds=fill)
        engine.barrier()
        assert engine.elapsed_seconds == pytest.approx(fill + 3 * d)
        assert engine.stall_seconds == pytest.approx(2 * (d - fill) + d)

    def test_barrier_is_idempotent(self):
        device = SimulatedBlockDevice(4096, small_disk_params())
        engine = FlushEngine(device, pipeline=True)
        engine.submit(self._plan(), fill_seconds=0.5)
        engine.barrier()
        elapsed = engine.elapsed_seconds
        engine.barrier()
        assert engine.elapsed_seconds == elapsed
        assert engine.queue_depth == 0

    def test_close_drains_and_engine_restarts_lazily(self):
        device = SimulatedBlockDevice(4096, small_disk_params())
        engine = FlushEngine(device, pipeline=True)
        engine.submit(self._plan())
        engine.close()
        assert engine.queue_depth == 0
        engine.submit(self._plan())  # lazily restarts the writer
        engine.barrier()
        assert engine.executed == 2

    def test_for_config_defaults_to_synchronous_fifo(self):
        device = SimulatedBlockDevice(64, small_disk_params())
        engine = FlushEngine.for_config(device, object())
        assert engine.pipeline is False
        assert isinstance(engine.scheduler, FifoScheduler)

    def test_stream_past_charges_transfer_only(self):
        model = DiskModel(small_disk_params())
        model.read(0)  # place the head
        before = model.stats.snapshot()
        elapsed = model.stream_past(8)
        assert elapsed == pytest.approx(
            8 * model.params.block_transfer_time)
        after = model.stats.snapshot()
        assert after.seeks == before.seeks
        assert after.reads == before.reads
        assert after.writes == before.writes
        assert after.transfer_seconds == pytest.approx(
            before.transfer_seconds + elapsed)
        with pytest.raises(ValueError):
            model.stream_past(0)


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("device_kind", DEVICE_KINDS)
def test_twin_engine_parity(structure, device_kind):
    """pipeline=True must be bit-exact with its synchronous twin."""
    sync, sync_dev = build_structure(structure, device_kind,
                                     pipeline=False)
    piped, piped_dev = build_structure(structure, device_kind,
                                       pipeline=True)
    drive(sync)
    drive(piped)
    assert sorted(r.key for r in sync.sample()) \
        == sorted(r.key for r in piped.sample())
    sync.close()
    piped.close()
    assert device_fingerprint(sync_dev) == device_fingerprint(piped_dev)
    assert piped.stats().extra["pipeline"]["pipelined"] is True


@pytest.mark.parametrize("io_scheduler", ("fifo", "elevator"))
def test_twin_engine_parity_per_scheduler(io_scheduler):
    """Parity holds under either scheduler (same scheduler both sides)."""
    sync, sync_dev = build_structure("geometric", "sim", pipeline=False,
                                     io_scheduler=io_scheduler)
    piped, piped_dev = build_structure("geometric", "sim", pipeline=True,
                                       io_scheduler=io_scheduler)
    drive(sync, 3000)
    drive(piped, 3000)
    sync.close()
    piped.close()
    assert device_fingerprint(sync_dev) == device_fingerprint(piped_dev)


def test_elevator_never_beats_fifo_on_seeks_multi():
    """Address sorting strictly reduces the multi-file seek bill."""
    fifo, fifo_dev = build_structure("multi", "sim", pipeline=False,
                                     io_scheduler="fifo")
    elev, elev_dev = build_structure("multi", "sim", pipeline=False,
                                     io_scheduler="elevator")
    drive(fifo, 3000)
    drive(elev, 3000)
    assert sorted(r.key for r in fifo.sample()) \
        == sorted(r.key for r in elev.sample())
    assert elev_dev.stats().seeks < fifo_dev.stats().seeks


def _overlap_run(pipeline: bool) -> GeometricFile:
    """The overlap gate's run: 1 KB records on 32 KB blocks keep each
    flush transfer-dominated, and the stream rate makes one buffer's
    fill time roughly match its disk drain -- the regime where double
    buffering hides the most (perfect balance would reach 2x)."""
    config = GeometricFileConfig(
        capacity=262_144, buffer_capacity=65_536, record_size=1024,
        pipeline=pipeline, io_scheduler="elevator", stream_rate=28_672.0)
    params = DiskParameters(block_size=32_768)
    blocks = GeometricFile.required_blocks(config, params.block_size)
    structure = GeometricFile(SimulatedBlockDevice(blocks, params), config,
                              seed=0)
    structure.ingest(1_048_576)
    structure.close()
    return structure


def _elevator_gate_run(io_scheduler: str) -> MultipleGeometricFiles:
    """The elevator gate's run: the Section 6 multi-file layout, whose
    every flush writes one segment into each sub-file."""
    config = MultiFileConfig(
        capacity=40_000, buffer_capacity=2_000, record_size=50,
        beta_records=50, alpha_prime=0.9, io_scheduler=io_scheduler)
    params = DiskParameters()
    blocks = MultipleGeometricFiles.required_blocks(config,
                                                    params.block_size)
    structure = MultipleGeometricFiles(SimulatedBlockDevice(blocks, params),
                                       config, seed=0)
    structure.ingest(120_000)
    structure.close()
    return structure


def test_pipelined_flush_gates():
    """Double buffering reaches >= 1.5x synchronous ingest on the
    simulated-disk timeline (1.73x measured), and the elevator saves
    seeks on the multi-file flush path.

    Both gates read the simulated timeline, a function of the flush
    plans and ``stream_rate``, so they hold on any host.  The twins
    run identical flush plans, so the speedup is pure scheduling:
    DiskStats and device clock must match bit for bit.
    """
    sync, piped = _overlap_run(False), _overlap_run(True)
    assert device_fingerprint(sync.device) == device_fingerprint(piped.device)
    sync_s = sync.stats().extra["pipeline"]["elapsed_seconds"]
    piped_s = piped.stats().extra["pipeline"]["elapsed_seconds"]
    assert sync_s / piped_s >= 1.5, (
        "the double buffer has stopped overlapping buffer fill with the "
        "disk drain")

    fifo, elevator = _elevator_gate_run("fifo"), _elevator_gate_run("elevator")
    assert fifo.disk_size == elevator.disk_size
    assert elevator.device.stats().seeks < fifo.device.stats().seeks, (
        "address sorting or extent coalescing regressed")
    assert elevator.stats().extra["pipeline"]["merged_extents"] > 0


def test_stats_exposes_engine_counters():
    structure, _ = build_structure("geometric", "sim", pipeline=True)
    drive(structure)
    extra = structure.stats().extra["pipeline"]
    assert extra["submitted"] == extra["executed"] > 0
    assert extra["scheduler"] == "elevator"
    assert extra["merged_extents"] >= 0
    structure.close()


def test_trace_events_emitted_when_instrumented():
    from repro.obs import MetricsRegistry, TraceSink

    structure, _ = build_structure("geometric", "sim", pipeline=True)
    registry = MetricsRegistry()
    trace = TraceSink()
    structure.instrument(registry, trace)
    drive(structure)
    structure.close()
    counts = trace.counts()
    assert counts.get("flush_pipelined", 0) > 0
    assert counts.get("io_coalesced", 0) > 0


class FaultyDevice(SimulatedBlockDevice):
    """Simulated device whose write charges fail on demand."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fail = False

    def charge_write(self, block: int, n_blocks: int) -> bool:
        if self.fail:
            raise IOError("injected write failure")
        return super().charge_write(block, n_blocks)


def make_faulty_geometric():
    config = GeometricFileConfig(
        capacity=600, buffer_capacity=60, record_size=40, beta_records=8,
        retain_records=True, pipeline=True,
    )
    blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
    device = FaultyDevice(blocks, small_disk_params())
    return GeometricFile(device, config, seed=7), device


def _offer_until_error(structure, records) -> PipelineWriteError:
    with pytest.raises(PipelineWriteError) as info:
        for record in records:
            structure.offer(record)
    return info.value


class TestWriterFaults:
    def test_fault_surfaces_on_next_offer_and_wraps_original(self):
        structure, device = make_faulty_geometric()
        stream = keyed_records(5000)
        drive_in = iter(stream)
        for record in drive_in:
            structure.offer(record)
            if structure.flushes > 2:
                break
        device.fail = True
        error = _offer_until_error(structure, drive_in)
        assert isinstance(error.__cause__, IOError)

    def test_fault_surfaces_on_sample_and_close(self):
        structure, device = make_faulty_geometric()
        stream = iter(keyed_records(5000))
        for record in stream:
            structure.offer(record)
            if structure.flushes > 2:
                break
        device.fail = True
        _offer_until_error(structure, stream)
        with pytest.raises(PipelineWriteError):
            structure.sample()
        with pytest.raises(PipelineWriteError):
            structure.close()

    def test_clear_fault_resumes_with_no_record_loss(self):
        structure, device = make_faulty_geometric()
        stream = keyed_records(8000)
        it = iter(stream)
        for record in it:
            structure.offer(record)
            if structure.flushes > 2:
                break
        device.fail = True
        _offer_until_error(structure, it)
        device.fail = False
        structure.clear_fault()
        for record in it:
            structure.offer(record)
        # In-memory ledgers are authoritative: the reservoir is still a
        # full sample drawn from the offered prefix, nothing vanished.
        sample = structure.sample()
        assert len(sample) == structure.capacity
        offered = {r.key for r in stream}
        assert all(r.key in offered for r in sample)
        structure.check_invariants()
        structure.close()


class TestManagedPipelined:
    def test_checkpoint_restore_parity_with_pipeline(self, tmp_path):
        def run(pipeline: bool, subdir: str):
            config = GeometricFileConfig(
                capacity=400, buffer_capacity=50, record_size=40,
                beta_records=8, retain_records=True, pipeline=pipeline,
            )
            path = tmp_path / subdir / "state.json"
            path.parent.mkdir()
            blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
            factory = lambda: make_device("sim", blocks)  # noqa: E731
            managed = ManagedSample(path, factory, config,
                                    checkpoint_every=0, seed=5)
            for record in keyed_records(1500):
                managed.offer(record)
            managed.checkpoint()
            restored = ManagedSample.restore(path, factory,
                                             checkpoint_every=0)
            for record in keyed_records(2000)[1500:]:
                managed.offer(record)
                restored.offer(record)
            a = sorted(r.key for r in managed.sample())
            b = sorted(r.key for r in restored.sample())
            assert a == b
            managed.structure.close()
            restored.structure.close()
            return a

        assert run(False, "sync") == run(True, "piped")


class TestShardedPipelined:
    def test_inline_pool_parity_with_pipeline(self, tmp_path):
        from repro.service import ShardedReservoir

        def run(pipeline: bool, subdir: str):
            config = GeometricFileConfig(
                capacity=400, buffer_capacity=50, record_size=40,
                beta_records=8, retain_records=True,
                admission="uniform", pipeline=pipeline,
            )
            root = tmp_path / subdir
            with ShardedReservoir(root, config, shards=2, pool="inline",
                                  partition="round-robin",
                                  seed=3) as service:
                records = keyed_records(2000)
                for start in range(0, len(records), 250):
                    service.offer_batch(records[start:start + 250])
                sample = sorted(r.key for r in service.sample(200))
                seen = service.stats().seen
            return sample, seen

        assert run(False, "sync") == run(True, "piped")


class TestBufferPoolCoalescing:
    def test_flush_all_merges_adjacent_dirty_frames(self):
        device = SimulatedBlockDevice(64, small_disk_params(),
                                      retain_data=True)
        pool = LRUBufferPool(device, 8)
        for block in (3, 4, 5, 20):
            pool.put(block, bytes([block]) * TEST_BLOCK)
        before = device.stats()
        pool.flush_all()
        after = device.stats()
        # 3..5 coalesce into one burst; 20 is its own: 2 writes, not 4.
        assert after.writes - before.writes == 2
        assert after.blocks_written - before.blocks_written == 4
        assert pool.stats.write_backs == 4  # still counted per frame
        assert device.read_blocks(4, 1) == bytes([4]) * TEST_BLOCK
