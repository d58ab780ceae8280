"""One record layout below the API.

Every record-keeping structure -- the two geometric files, their biased
forms and the three baselines -- keeps its records in
:class:`~repro.storage.recordbatch.RecordBatch` slabs and any per-record
float in an aux column.  These tests pin that layout and what it must
keep:

* **slabs everywhere** -- whatever verb fed it, a structure's buffer,
  ledgers or cohorts and fill are slabs, and ``sample(k)`` returns
  ``k`` distinct offered records;
* **oracle** -- a biased file's ``sample_batch(k)`` is the uniform k-row
  gather: the rows materialise-then-thin returns from the same
  generator states;
* **goldens** -- a biased file fed a recency-weighted stream with
  overflow events, and every record-keeping baseline fed records or
  slabs, end at the constants of ``fixtures/record_list_goldens.json``
  (first recorded from the record-list layout;
  ``fixtures/record_list_goldens.py`` recomputes them with this
  module's drives, ``--diff`` prints what a change moves and
  ``--write`` re-records them);
* **old manifests** -- a format-3 manifest the record-list layout wrote
  for a biased file mid-epoch (``fixtures/
  biased_record_list_manifest.json``) restores and continues to its
  golden;
* **weights checked first** -- a weight that is not finite and
  positive is refused before any state changes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import TEST_BLOCK, small_disk_params
from repro.baselines import (
    DiskReservoirConfig,
    LocalOverwriteReservoir,
    ScanReservoir,
    VirtualMemoryReservoir,
)
from repro.core.biased_file import (
    BiasedGeometricFile,
    BiasedMultipleGeometricFiles,
)
from repro.core.checkpoint import load_geometric_file, save_geometric_file
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.multi import MultiFileConfig, MultipleGeometricFiles
from repro.reservoir import draw_distinct
from repro.sampling import BiasedReservoir
from repro.sampling.weights import check_weight, check_weights
from repro.storage.device import SimulatedBlockDevice
from repro.storage.disk_model import DiskParameters
from repro.storage.recordbatch import RecordBatch
from repro.storage.records import Record, RecordSchema

FIXTURES = Path(__file__).parent / "fixtures"


def stream(start: int, stop: int) -> list[Record]:
    return [Record(key=i, value=float(i % 13), timestamp=float(i))
            for i in range(start, stop)]


def recency_weight(record: Record) -> float:
    """Recency bias with spikes every 97th key and a burst of 70 records
    whose weights grow 10**4-fold each: overflow events throughout, and
    one epoch that passes the buffer's renormalisation threshold."""
    base = 2.0 ** (record.timestamp / 400.0)
    if record.key % 97 == 0:
        base *= 40.0
    burst = min(max(record.key - 1500, 0), 70)
    return base * 10.0 ** (4 * burst)


# -- the seven record-keeping structures ------------------------------------


def _geo_config(cls):
    if cls is MultiFileConfig:
        return cls(capacity=400, buffer_capacity=40, record_size=40,
                   retain_records=True, beta_records=4, alpha_prime=0.8)
    return cls(capacity=400, buffer_capacity=40, record_size=40,
               retain_records=True, beta_records=4)


def _geometric(cls, config_cls, **kwargs):
    config = _geo_config(config_cls)
    device = SimulatedBlockDevice(
        cls.required_blocks(config, TEST_BLOCK), small_disk_params())
    return cls(device, config, seed=11, **kwargs)


def _baseline(cls):
    config = DiskReservoirConfig(capacity=400, buffer_capacity=40,
                                 record_size=40, pool_blocks=2,
                                 retain_records=True, admission="uniform")
    params = DiskParameters(seek_time=0.010,
                            transfer_rate=40 * 1024 * 1024, block_size=512)
    device = SimulatedBlockDevice(cls.required_blocks(config, 512) + 4,
                                  params)
    return cls(device, config, seed=5)


STRUCTURES = {
    "geometric": lambda: _geometric(GeometricFile, GeometricFileConfig),
    "multi": lambda: _geometric(MultipleGeometricFiles, MultiFileConfig),
    "biased": lambda: _geometric(BiasedGeometricFile, GeometricFileConfig,
                                 weight_fn=recency_weight),
    "biased-multi": lambda: _geometric(BiasedMultipleGeometricFiles,
                                       MultiFileConfig,
                                       weight_fn=recency_weight),
    "scan": lambda: _baseline(ScanReservoir),
    "local-overwrite": lambda: _baseline(LocalOverwriteReservoir),
    "virtual-memory": lambda: _baseline(VirtualMemoryReservoir),
}

BASELINES = {"scan": ScanReservoir,
             "local_overwrite": LocalOverwriteReservoir,
             "virtual_memory": VirtualMemoryReservoir}

VERBS = ("offer", "offer_many", "offer_batch")


def reads(structure, step: int) -> None:
    """Every read form, with and without a caller generator."""
    structure.sample(7)
    structure.sample_batch(5)
    structure.sample_batch(4, rng=np.random.default_rng(step))
    structure.sample(3, rng=random.Random(step))
    if step % 2:
        structure.sample()


def drive(structure, verb: str, first: int, stop: int) -> None:
    """Offer records ``first..stop`` through ``verb``, reading every 250
    records from the 500th on."""
    records = stream(first, stop)
    if verb == "offer":
        for i, record in enumerate(records, first + 1):
            structure.offer(record)
            if i >= 500 and i % 250 == 0:
                reads(structure, i)
        return
    schema = RecordSchema(40)
    for start in range(0, len(records), 50):
        chunk = records[start:start + 50]
        if verb == "offer_many":
            structure.offer_many(chunk)
        else:
            structure.offer_batch(RecordBatch.from_records(schema, chunk))
        done = first + start + len(chunk)
        if done >= 500 and done % 250 == 0:
            reads(structure, done)


def assert_slab_layout(structure) -> None:
    dtype = structure.schema.dtype
    assert structure.buffer.pending_view().dtype == dtype
    fill = getattr(structure, "_fill", None)
    if fill is not None:
        assert isinstance(fill, RecordBatch)
    ledgers = list(structure.iter_ledgers())
    assert ledgers
    for ledger in ledgers:
        assert isinstance(ledger.records, RecordBatch)
        assert len(ledger.records) == ledger.live
        if isinstance(structure, (BiasedGeometricFile,
                                  BiasedMultipleGeometricFiles)):
            assert ledger.aux.shape == (ledger.live, 1)


class TestSlabOnlyLayout:
    @pytest.mark.parametrize("verb", VERBS)
    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_slabs_after_any_verb(self, name, verb):
        structure = STRUCTURES[name]()
        drive(structure, verb, 0, 300)  # inside the fill / start-up
        assert_slab_layout(structure)
        drive(structure, verb, 300, 3000)
        assert_slab_layout(structure)
        assert not structure.in_startup
        # The virtual-memory baseline writes every admission in place.
        assert (structure.stats().flushes > 0
                or isinstance(structure, VirtualMemoryReservoir))
        got = structure.sample(50)
        keys = [record.key for record in got]
        assert len(keys) == len(set(keys)) == 50
        assert set(keys) <= set(range(3000))
        assert all(record == Record(key=record.key,
                                    value=float(record.key % 13),
                                    timestamp=float(record.key))
                   for record in got)


# -- the biased k-row read ----------------------------------------------------

MOMENTS = ("startup", "mid-buffer", "after-flush")


def reach(structure, moment: str) -> None:
    """Feed a biased file to a read moment: inside start-up, with a
    part-full buffer, or exactly at a steady-state flush boundary."""
    if moment == "startup":
        structure.offer_many(stream(0, 300))
        assert structure.in_startup and structure.buffer.count
        return
    structure.offer_many(stream(0, 2000))
    first = 2000
    while structure.buffer.count != (0 if moment == "after-flush" else 17):
        structure.offer(stream(first, first + 1)[0])
        first += 1
    assert not structure.in_startup


def materialise_then_thin(structure, k, victims_rng, positions_rng):
    full = structure.law.materialize_batch(structure, victims_rng)
    return full[draw_distinct(positions_rng, len(full), k)]


class TestBiasedGatherOracle:
    @pytest.mark.parametrize("moment", MOMENTS)
    @pytest.mark.parametrize("name", ["biased", "biased-multi"])
    def test_sample_batch_matches_reference(self, name, moment):
        structure = STRUCTURES[name]()
        reach(structure, moment)
        for trial, k in enumerate((1, 37, 200, structure.sample_size)):
            got = structure.sample_batch(k, rng=np.random.default_rng(trial))
            gen = np.random.default_rng(trial)
            want = materialise_then_thin(structure, k, gen, gen)
            assert np.array_equal(got.array, want)
            py_state = structure._rng.getstate()
            np_state = structure._np_rng.bit_generator.state
            got = structure.sample_batch(k)
            structure._rng.setstate(py_state)
            structure._np_rng.bit_generator.state = np_state
            want = materialise_then_thin(structure, k, structure._rng,
                                         structure._np_rng)
            assert np.array_equal(got.array, want)


# -- goldens ------------------------------------------------------------------

GOLDENS_PATH = FIXTURES / "record_list_goldens.json"
GOLDENS = json.loads(GOLDENS_PATH.read_text())
MANIFEST_PATH = FIXTURES / "biased_record_list_manifest.json"


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def io_of(structure) -> dict:
    io_stats = structure.stats().io
    return {name: getattr(io_stats, name) for name in (
        "seeks", "reads", "writes", "blocks_read", "blocks_written",
        "sequential_blocks", "seek_seconds", "transfer_seconds")}


def rng_digest(structure) -> str:
    return digest((structure._rng.getstate(),
                   structure._np_rng.bit_generator.state))


def biased_golden(kind: str, verb: str) -> dict:
    """A biased file (``geo`` or ``multi``) driven to 3,000 records."""
    bf = STRUCTURES["biased" if kind == "geo" else "biased-multi"]()
    drive(bf, verb, 0, 3000)
    bf.check_invariants()
    items = [(record.key, weight) for record, weight in bf.items()]
    stats = bf.stats()
    return {
        "items_sha256": digest([(k, w.hex()) for k, w in items]),
        "n_items": len(items),
        "key_sum": sum(k for k, _ in items),
        "true_weight_total": bf.true_weight_total(),
        "total_weight": bf.total_weight,
        "overflow_events": bf.overflow_events,
        "flushes": stats.flushes,
        "seen": stats.seen,
        "samples_added": stats.samples_added,
        "clock": stats.clock,
        "io": io_of(bf),
        "buffer_keys": sorted(record.key for record in bf.buffer),
        "full_sample_sha256": digest(
            sorted(record.key for record in bf.sample())),
        "rng_sha256": rng_digest(bf),
    }


def baseline_golden(name: str, verb: str) -> dict:
    """A record-keeping baseline driven to 3,000 records."""
    structure = _baseline(BASELINES[name])
    drive(structure, verb, 0, 3000)
    keys = sorted(record.key for record in structure.sample())
    stats = structure.stats()
    return {
        "full_sample_sha256": digest(keys),
        "n": len(keys),
        "key_sum": sum(keys),
        "flushes": stats.flushes,
        "seen": stats.seen,
        "samples_added": stats.samples_added,
        "clock": stats.clock,
        "io": io_of(structure),
        "rng_sha256": rng_digest(structure),
    }


def restore_manifest(text: str):
    config = GeometricFileConfig(**json.loads(text)["config"])
    device = SimulatedBlockDevice(
        GeometricFile.required_blocks(config, TEST_BLOCK),
        small_disk_params())
    return load_geometric_file(io.StringIO(text), device, recency_weight)


def manifest_continuation(bf) -> dict:
    """A restored biased file fed ``offer()`` by ``offer()`` to 2,000."""
    seen = bf.stats().seen
    for record in stream(seen, 2000):
        bf.offer(record)
    bf.check_invariants()
    items = list(bf.items())
    stats = bf.stats()
    return {
        "resumed_at": seen,
        "keys": [record.key for record, _ in items],
        "true_weights": [weight for _, weight in items],
        "total_weight": bf.total_weight,
        "overflow_events": bf.overflow_events,
        "flushes": stats.flushes,
        "samples_added": stats.samples_added,
        "buffer_keys": sorted(r.key for r in bf.buffer),
        "io": io_of(bf),
    }


def compute_goldens() -> dict:
    """Every golden of the fixture, as this build computes it
    (``fixtures/record_list_goldens.py`` writes and diffs them)."""
    return {
        "baselines": {f"{name}-{verb}": baseline_golden(name, verb)
                      for name in sorted(BASELINES) for verb in VERBS},
        "biased": {f"{kind}-{verb}": biased_golden(kind, verb)
                   for kind in ("geo", "multi") for verb in VERBS},
        "manifest_continuation": manifest_continuation(
            restore_manifest(MANIFEST_PATH.read_text())),
    }


class TestRecordListGoldens:
    @pytest.mark.parametrize("verb", VERBS)
    @pytest.mark.parametrize("kind", ["geo", "multi"])
    def test_biased_file(self, kind, verb):
        assert (biased_golden(kind, verb)
                == GOLDENS["biased"][f"{kind}-{verb}"])

    @pytest.mark.parametrize("verb", VERBS)
    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_record_keeping_baseline(self, name, verb):
        assert (baseline_golden(name, verb)
                == GOLDENS["baselines"][f"{name}-{verb}"])


class TestRecordListManifest:
    def test_biased_manifest_restores_mid_epoch(self):
        """The manifest keeps the buffer's weights and their epoch
        factor as ``buffer_weights`` / ``buffer_scale`` (a factor other
        than 1) and each ledger's rows as ``record, weight``."""
        text = MANIFEST_PATH.read_text()
        state = json.loads(text)
        assert state["buffer_scale"] != 1.0 and state["buffer_count"]
        bf = restore_manifest(text)
        assert bf.weight_epoch == state["buffer_scale"]
        assert (manifest_continuation(bf)
                == GOLDENS["manifest_continuation"])

    def test_resaved_manifest_continues_identically(self):
        """Saved again by this layout (``weight_epoch`` and aux rows),
        the restored file continues exactly as the original does."""
        original = restore_manifest(MANIFEST_PATH.read_text())
        sink = io.StringIO()
        save_geometric_file(original, sink)
        resaved = json.loads(sink.getvalue())
        assert "buffer_weights" not in resaved
        assert resaved["weight_epoch"] == original.weight_epoch != 1.0
        again = restore_manifest(sink.getvalue())
        seen = original.stats().seen
        for record in stream(seen, 2000):
            original.offer(record)
            again.offer(record)
        assert list(again.items()) == list(original.items())
        assert again.stats().as_dict() == original.stats().as_dict()


# -- weights are checked before any state changes -------------------------------

BAD_WEIGHTS = [0.0, -1.0, math.nan, math.inf]


class TestWeightChecks:
    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    def test_check_weight_refuses(self, bad):
        with pytest.raises(ValueError):
            check_weight(bad)
        with pytest.raises(ValueError):
            check_weights([1.0, bad])
        assert check_weight(3) == 3.0

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    @pytest.mark.parametrize("name", ["biased", "biased-multi"])
    def test_biased_file_refuses_before_counting(self, name, bad):
        """One bad weight in a batch leaves the file untouched: nothing
        counted, nothing buffered, ``totalWeight`` still finite."""
        def weight(record):
            return bad if record.key == 1_200 else 1.0

        if name == "biased":
            structure = _geometric(BiasedGeometricFile, GeometricFileConfig,
                                   weight_fn=weight)
        else:
            structure = _geometric(BiasedMultipleGeometricFiles,
                                   MultiFileConfig, weight_fn=weight)
        structure.offer_many(stream(0, 1_000))
        before = structure.stats().as_dict()
        buffered = structure.buffer.count
        for offer in (structure.offer_many,
                      lambda records: structure.offer_batch(
                          RecordBatch.from_records(structure.schema,
                                                   records))):
            with pytest.raises(ValueError):
                offer(stream(1_190, 1_210))
            assert structure.stats().as_dict() == before
            assert structure.buffer.count == buffered
        with pytest.raises(ValueError):
            structure.offer(stream(1_200, 1_201)[0])
        assert structure.stats().as_dict() == before
        assert math.isfinite(structure.total_weight)

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    def test_biased_reservoir_refuses(self, bad):
        reservoir = BiasedReservoir(
            50, lambda record: bad if record.key == 70 else 1.0,
            rng=random.Random(0))
        reservoir.extend(stream(0, 70))
        total = reservoir.total_weight
        with pytest.raises(ValueError):
            reservoir.offer(stream(70, 71)[0])
        assert reservoir.seen == 70
        assert reservoir.total_weight == total

    @pytest.mark.parametrize("bad", BAD_WEIGHTS)
    @pytest.mark.parametrize("law", ["aexpj", "wr"])
    def test_weighted_laws_refuse(self, law, bad):
        config = GeometricFileConfig(capacity=400, buffer_capacity=40,
                                     record_size=40, retain_records=True,
                                     beta_records=4, law=law)
        device = SimulatedBlockDevice(
            GeometricFile.required_blocks(config, TEST_BLOCK),
            small_disk_params())
        gf = GeometricFile(device, config, seed=1,
                           weight_fn=lambda r: bad if r.key == 5 else 1.0)
        with pytest.raises(ValueError):
            gf.offer(stream(5, 6)[0])
        with pytest.raises(ValueError):
            gf.offer_many(stream(0, 10))
