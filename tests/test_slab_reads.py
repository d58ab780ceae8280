"""Slab-only structures: k-row reads, RNG budgets and record decoding.

A record-retaining geometric file keeps every record in a
:class:`~repro.storage.recordbatch.RecordBatch` slab; records exist as
objects only at the API edge.  These tests pin what that layout must
keep:

* **golden simulated disk** -- a slab-fed file that is read every few
  batches ends at the exact flush count, clock, seeks and blocks the
  record-list layout reached (its numpy generator alone decides them);
  a file fed one record at a time through ``offer()`` and read with
  ``sample(k)``, ``sample_batch(k)`` and ``sample()`` ends at recorded
  flushes, I/O and admitted and buffered counts, which its
  ``random.Random`` decides;
* **RNG budget** -- a default read takes one 64-bit word of the
  ``random.Random`` (:func:`~repro.reservoir.bulk_generator`) whatever
  it returns; ``sample_batch(k)`` also one ``choice(size, k)`` of the
  numpy generator, ``sample(k)`` nothing of it, so reads never move
  the simulated disk of a batch-fed file;
* **oracle** -- the k-row gather returns exactly the rows
  materialise-then-thin returns from the same generator states;
* **no decode** -- ingest, flushes, reads, checkpoints, an inline
  service and a served session over it never turn a row into a record
  object;
* **bounded pinning** -- evicted ledgers do not keep their whole
  drained slab alive.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import asdict

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import TEST_BLOCK, make_geometric_file, make_multi_file, small_disk_params
from repro.core.checkpoint import load_geometric_file, save_geometric_file
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.managed import ManagedSample
from repro.core.multi import MultiFileConfig, MultipleGeometricFiles
from repro.reservoir import bulk_generator, draw_distinct
from repro.serve import ReservoirServer, ServeClient
from repro.service import ShardedReservoir
from repro.storage.device import SimulatedBlockDevice
from repro.storage.disk_model import DiskParameters
from repro.storage.recordbatch import RecordBatch, pinned_bytes
from repro.storage.records import Record, RecordSchema
from test_batch_ingest import P_MIN


def slab(schema: RecordSchema, first: int, n: int,
         rng: np.random.Generator) -> RecordBatch:
    keys = np.arange(first, first + n, dtype=np.int64)
    return RecordBatch.from_columns(schema, keys, values=rng.random(n),
                                    timestamps=keys.astype(np.float64))


def feed(structure, n: int, *, rows: int = 128, first: int = 0) -> int:
    """Offer ``n`` records as slabs of ``rows``; returns the next key."""
    rng = np.random.default_rng(first)
    end = first + n
    while first < end:
        take = min(rows, end - first)
        structure.offer_batch(slab(structure.schema, first, take, rng))
        first += take
    return first


# -- golden simulated disk ----------------------------------------------------


def _golden_run(seed: int, cls, config_cls, **extra) -> tuple:
    config = config_cls(capacity=20_000, buffer_capacity=2_000,
                        record_size=50, retain_records=True,
                        admission="uniform", **extra)
    params = DiskParameters()
    device = SimulatedBlockDevice(
        cls.required_blocks(config, params.block_size), params)
    structure = cls(device, config, seed=seed)
    schema = RecordSchema(50)
    rng = np.random.default_rng(seed)
    for i in range(80):
        structure.offer_batch(slab(schema, i * 1024, 1024, rng))
        if i % 4 == 3:
            structure.sample_batch(100)
    stats = structure.stats()
    return (stats.flushes, stats.clock, stats.io.seeks,
            stats.io.blocks_written)


class TestGoldenFingerprint:
    """(flushes, clock, seeks, blocks_written) as the record-list layout
    left them: reads make the same numpy draws, so the disk is
    bit-identical per seed."""

    @pytest.mark.parametrize("seed, expected", [
        (3, (95, 5.434843749999934, 522, 270)),
        (17, (95, 5.445624999999934, 523, 271)),
    ])
    def test_geometric_file(self, seed, expected):
        assert _golden_run(seed, GeometricFile,
                           GeometricFileConfig) == expected

    @pytest.mark.parametrize("seed, expected", [
        (3, (95, 2.9334374999999837, 281, 145)),
        (17, (95, 2.9126562499999844, 279, 144)),
    ])
    def test_multi_file(self, seed, expected):
        assert _golden_run(seed, MultipleGeometricFiles, MultiFileConfig,
                           alpha_prime=0.8) == expected


def _scalar_golden_run(seed: int, cls, config_cls, **extra) -> tuple:
    config = config_cls(capacity=20_000, buffer_capacity=2_000,
                        record_size=50, retain_records=True,
                        admission="uniform", **extra)
    params = DiskParameters()
    device = SimulatedBlockDevice(
        cls.required_blocks(config, params.block_size), params)
    structure = cls(device, config, seed=seed)
    for key in range(60_000):
        # Scalar offers draw admission and Algorithm 2's join decision
        # from the random.Random, which the drain and the reads share.
        structure.offer(Record(key=key, value=float(key % 97),
                               timestamp=float(key)))
        if key % 6_000 == 5_999:
            structure.sample(40)
            structure.sample_batch(40)
            if key % 24_000 == 23_999:
                structure.sample()
    stats = structure.stats()
    return (stats.flushes, stats.clock, stats.io.seeks,
            stats.io.blocks_written, stats.samples_added,
            structure.buffer.count)


class TestScalarGoldenFingerprint:
    """The same, plus the admitted and buffered counts, for a file fed
    through ``offer()``: there the ``random.Random`` decides admissions
    and joins, and every drain and default read takes one word of it,
    so the counts are this budget's; on these seeds the flushes, clock,
    seeks and blocks stayed at the record-list layout's values."""

    @pytest.mark.parametrize("seed, expected", [
        (5, (92, 4.241874999999958, 407, 214, 41999, 932)),
        (23, (92, 4.209531249999959, 404, 212, 42054, 929)),
    ])
    def test_geometric_file(self, seed, expected):
        assert _scalar_golden_run(seed, GeometricFile,
                                  GeometricFileConfig) == expected

    @pytest.mark.parametrize("seed, expected", [
        (5, (92, 2.298437499999997, 220, 116, 41999, 932)),
        (23, (92, 2.298437499999997, 220, 116, 42054, 929)),
    ])
    def test_multi_file(self, seed, expected):
        assert _scalar_golden_run(seed, MultipleGeometricFiles,
                                  MultiFileConfig,
                                  alpha_prime=0.8) == expected


# -- RNG budget ---------------------------------------------------------------


def _twin_generator(state: dict) -> np.random.Generator:
    twin = np.random.default_rng()
    twin.bit_generator.state = state
    return twin


def _twin_random(state) -> random.Random:
    twin = random.Random()
    twin.setstate(state)
    return twin


class TestReadRngBudget:
    """A default read takes one 64-bit word of the ``random.Random``,
    inside start-up (no victims) and with rows pending alike."""

    @pytest.mark.parametrize("n", [1_500, 5_150])
    def test_sample_batch_draws_victims_and_one_choice(self, n):
        gf = make_geometric_file(capacity=2000, buffer_capacity=200,
                                 admission="always", seed=4)
        feed(gf, n)
        size = gf.sample_size
        twin = _twin_generator(gf._np_rng.bit_generator.state)
        py_twin = _twin_random(gf._rng.getstate())
        gf.sample_batch(60)
        twin.choice(size, size=60, replace=False)
        py_twin.getrandbits(64)
        assert gf._np_rng.bit_generator.state == twin.bit_generator.state
        assert gf._rng.getstate() == py_twin.getstate()

    @pytest.mark.parametrize("n", [1_500, 5_150])
    def test_sample_draws_only_from_random(self, n):
        gf = make_geometric_file(capacity=2000, buffer_capacity=200,
                                 admission="always", seed=4)
        feed(gf, n)
        state = gf._np_rng.bit_generator.state
        py_twin = _twin_random(gf._rng.getstate())
        assert len(gf.sample(60)) == 60
        py_twin.getrandbits(64)
        assert gf._rng.getstate() == py_twin.getstate()
        assert len(gf.sample()) == gf.sample_size
        py_twin.getrandbits(64)
        assert gf._np_rng.bit_generator.state == state
        assert gf._rng.getstate() == py_twin.getstate()


# -- oracle -------------------------------------------------------------------


STRUCTURES = {
    "geo": lambda seed=9: make_geometric_file(
        capacity=2000, buffer_capacity=200, admission="always", seed=seed),
    "multi": lambda seed=9: make_multi_file(
        capacity=2000, buffer_capacity=200, admission="always",
        alpha_prime=0.8, seed=seed),
}

MOMENTS = ("startup", "mid-buffer", "after-flush")


def reach(structure, moment: str) -> None:
    """Feed ``structure`` to a read moment: inside start-up, with a
    part-full buffer, or exactly at a steady-state flush boundary."""
    if moment == "startup":
        feed(structure, 1_500)
        assert structure.in_startup and structure.buffer.count
        return
    first = feed(structure, 5_000)
    while structure.buffer.count != (0 if moment == "after-flush" else 50):
        first = feed(structure, 1, first=first)
    assert not structure.in_startup


def _materialise_then_thin(structure, k, victims_rng, positions_rng):
    """The reference read: build the whole sample, then thin it."""
    full = structure.law.materialize_batch(structure, victims_rng)
    return full[draw_distinct(positions_rng, len(full), k)]


class TestGatherOracle:
    @pytest.mark.parametrize("moment", MOMENTS)
    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_caller_rng_reads_match_reference(self, name, moment):
        structure = STRUCTURES[name]()
        reach(structure, moment)
        for trial, k in enumerate((1, 37, 500, structure.sample_size)):
            got = structure.sample_batch(k, rng=np.random.default_rng(trial))
            gen = np.random.default_rng(trial)
            want = _materialise_then_thin(structure, k, gen, gen)
            assert np.array_equal(got.array, want)

    @pytest.mark.parametrize("moment", MOMENTS)
    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_default_reads_match_reference(self, name, moment):
        structure = STRUCTURES[name]()
        reach(structure, moment)
        for k in (1, 37, 500):
            py_state = structure._rng.getstate()
            np_state = structure._np_rng.bit_generator.state
            got = structure.sample_batch(k)
            structure._rng.setstate(py_state)
            structure._np_rng.bit_generator.state = np_state
            want = _materialise_then_thin(
                structure, k, bulk_generator(structure._rng),
                structure._np_rng)
            assert np.array_equal(got.array, want)
            py_state = structure._rng.getstate()
            got = structure.sample(k)
            structure._rng.setstate(py_state)
            gen = bulk_generator(structure._rng)
            want = _materialise_then_thin(structure, k, gen, gen)
            assert [record.key for record in got] == list(want["key"])

    def test_oversized_read_rejected(self):
        gf = STRUCTURES["geo"]()
        feed(gf, 1_500)
        with pytest.raises(ValueError, match="cannot draw"):
            gf.sample_batch(gf.sample_size + 1)


class TestDefaultReadDistribution:
    """A default ``sample_batch(k)`` with ``b`` of the ``N`` sampled
    rows pending holds ``k * b / N`` pending rows per read on average
    (hypergeometric), and every disk row is equally likely to be read:
    the buffer-vs-disk split materialise-then-thin makes."""

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_pending_share_and_uniform_disk_rows(self, name):
        k, reads = 500, 10
        surplus = variance = 0.0
        disk_hits = np.zeros(2000, dtype=np.int64)
        for seed in range(20):
            structure = STRUCTURES[name](seed)
            reach(structure, "mid-buffer")
            pending = set(structure.buffer.pending_view()["key"].tolist())
            disk = np.concatenate([ledger.records.keys for ledger
                                   in structure.iter_ledgers()])
            position = {key: i for i, key in enumerate(disk.tolist())}
            n, share = structure.sample_size, len(pending) / len(disk)
            assert len(disk) == n == len(disk_hits)
            for _ in range(reads):
                keys = structure.sample_batch(k).keys.tolist()
                held = [key for key in keys if key in pending]
                surplus += len(held) - k * share
                variance += k * share * (1 - share) * (n - k) / (n - 1)
                disk_hits[[position[key] for key in keys
                           if key not in pending]] += 1
        z = surplus / variance ** 0.5
        assert 2 * scipy_stats.norm.sf(abs(z)) > P_MIN
        assert scipy_stats.chisquare(disk_hits).pvalue > P_MIN


# -- no decode ----------------------------------------------------------------


@pytest.fixture
def no_decode(monkeypatch):
    """Make any row-to-record decode fail the test."""
    def refuse(self, *args):
        raise AssertionError("a RecordBatch was decoded into records")
    monkeypatch.setattr(RecordBatch, "__iter__", refuse)
    monkeypatch.setattr(RecordBatch, "to_records", refuse)


SMALL = dict(capacity=2000, buffer_capacity=200, record_size=50,
             retain_records=True, admission="uniform")


class TestNoDecode:
    def test_ingest_flush_and_read(self, no_decode):
        gf = make_geometric_file(**{**SMALL, "seed": 1})
        feed(gf, 12_000)
        assert gf.stats().flushes > 10
        assert len(gf.sample_batch(100)) == 100
        assert len(gf.sample_batch()) == gf.capacity
        assert len(gf.snapshot_batch(10)[0]) == 10

    def test_managed_checkpoint_and_restore(self, no_decode, tmp_path):
        config = GeometricFileConfig(**SMALL)
        blocks = GeometricFile.required_blocks(config, TEST_BLOCK)

        def device():
            return SimulatedBlockDevice(blocks, small_disk_params())

        path = tmp_path / "sample.json"
        managed = ManagedSample(path, device, config, checkpoint_every=3,
                                seed=2)
        feed(managed, 9_050)
        managed.checkpoint()
        want = managed.sample_batch(50, rng=np.random.default_rng(5))
        reopened = ManagedSample(path, device, None)
        got = reopened.sample_batch(50, rng=np.random.default_rng(5))
        assert np.array_equal(got.array, want.array)

    def test_inline_service_offer_and_query(self, no_decode, tmp_path):
        config = GeometricFileConfig(**SMALL)
        with ShardedReservoir(tmp_path / "svc", config, shards=2,
                              pool="inline", seed=3) as svc:
            rng = np.random.default_rng(0)
            schema = RecordSchema(config.record_size)
            for first in range(0, 8_000, 512):
                svc.offer_batch(slab(schema, first, 512, rng))
            assert len(svc.sample_batch(64)) == 64
            assert svc.query_batch(64).count().value > 0
            assert svc.stats().seen == 8_192

    def test_served_session_offer_and_read(self, no_decode, tmp_path):
        """Rows cross the wire as slab rows: a served session of
        ``offer_batch(RecordBatch)``, ``sample_batch`` and ``stats``
        builds no record on the client or the server."""
        config = GeometricFileConfig(**SMALL)
        with ShardedReservoir(tmp_path / "svc", config, shards=2,
                              pool="inline", seed=3) as svc:
            client = ServeClient.in_process(ReservoirServer(svc))
            rng = np.random.default_rng(0)
            schema = RecordSchema(config.record_size)
            for first in range(0, 8_000, 512):
                assert client.offer_batch(slab(schema, first, 512,
                                               rng)) == 512
            batch = client.sample_batch(64)
            assert len(batch) == 64 and batch.schema == schema
            assert client.stats().seen == 8_192
            client.close()


# -- bounded pinning ------------------------------------------------------------


class TestPinnedSlabs:
    @pytest.mark.parametrize("make", [make_geometric_file, make_multi_file])
    def test_ledgers_pin_at_most_twice_their_live_bytes(self, make):
        structure = make(capacity=20_000, buffer_capacity=2_000,
                         record_size=50, admission="always", seed=6)
        feed(structure, 200_000, rows=4096)
        live = pinned = 0
        bases = set()
        for ledger in structure.iter_ledgers():
            array = ledger.records.array
            live += array.nbytes
            base = array if array.base is None else array.base
            if id(base) not in bases:
                bases.add(id(base))
                pinned += pinned_bytes(array)
        assert live == structure.capacity * 50
        assert pinned <= 2 * live


# -- checkpoints from record-list builds ---------------------------------------


class TestColumnarManifests:
    @pytest.mark.parametrize("columnar", [False, True])
    def test_manifest_naming_columnar_restores(self, columnar):
        gf = make_geometric_file(**{**SMALL, "seed": 8})
        feed(gf, 5_050)
        sink = io.StringIO()
        save_geometric_file(gf, sink)
        state = json.loads(sink.getvalue())
        state["config"]["columnar"] = columnar
        device = SimulatedBlockDevice(gf.device.n_blocks,
                                      small_disk_params())
        restored = load_geometric_file(io.StringIO(json.dumps(state)),
                                       device)
        assert asdict(restored.config) == asdict(gf.config)
        assert np.array_equal(restored.sample_batch(80).array,
                              gf.sample_batch(80).array)
