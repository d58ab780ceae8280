"""Tier-1 tests for the columnar record engine.

The engine's contract has two halves, and this module pins both:

* **byte identity** -- the structured-array codec
  (``encode_many`` / ``decode_many`` / :class:`RecordBatch`) produces
  and consumes exactly the bytes the scalar ``struct`` codec does, for
  every record size, weighted or not (hypothesis property tests);
* **engine identity** -- a ``columnar=True`` structure driven over the
  same stream with the same seed charges bit-exact simulated I/O and
  holds the *same sample* as its scalar twin, across the geometric
  file, the multi-file structure, and all three baselines, on every
  device kind (cost-only, byte-storing, in-memory).

Statistical acceptance (chi-square membership, KS on estimator
outputs) and the query-side surfaces (``sample_batch`` /
:class:`BatchQuery`, zone-map ``query_batch``, checkpoint round trips,
the sharded service, the managed wrapper) ride on top.
"""

from __future__ import annotations

import collections
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from conftest import (
    TEST_BLOCK,
    keyed_records,
    make_geometric_file,
    make_multi_file,
    small_disk_params,
)
from repro.baselines import (
    DiskReservoirConfig,
    LocalOverwriteReservoir,
    ScanReservoir,
    VirtualMemoryReservoir,
)
from repro.core.buffer import SampleBuffer
from repro.core.checkpoint import load_geometric_file, save_geometric_file
from repro.core.managed import ManagedSample
from repro.core.zonemap import ZoneMapIndex
from repro.estimate.aqp import BatchQuery, SampleQuery
from repro.service import ShardedReservoir
from repro.storage.device import MemoryBlockDevice, SimulatedBlockDevice
from repro.storage.recordbatch import RecordBatch
from repro.storage.records import (
    MIN_RECORD_SIZE,
    Record,
    RecordSchema,
    WeightedRecord,
)
from test_batch_ingest import P_MIN, chi_square_p

# -- helpers -----------------------------------------------------------------


def value_records(n: int, seed: int = 0) -> list[Record]:
    """Records with pseudo-random values (AQP needs a measure column)."""
    rng = random.Random(seed)
    return [Record(key=i, value=rng.gauss(100.0, 15.0), timestamp=float(i))
            for i in range(n)]


def stream_batch(schema: RecordSchema, records: list[Record]) -> RecordBatch:
    return RecordBatch.from_records(schema, records)


def drive_twins(scalar, columnar, records: list[Record],
                chunk: int = 64) -> None:
    """Same stream through both engines via their natural batch paths."""
    schema = RecordSchema(scalar.config.record_size)
    batch = stream_batch(schema, records)
    for start in range(0, len(records), chunk):
        scalar.offer_many(records[start:start + chunk])
        columnar.offer_batch(batch[start:start + chunk])


def sorted_sample_keys(structure) -> list[int]:
    if getattr(structure, "columnar", False):
        return sorted(structure.sample_batch().keys.tolist())
    return sorted(r.key for r in structure.sample())


def assert_twins_identical(scalar, columnar) -> None:
    """Bit-exact I/O and *identical resident sample* between engines.

    ``sample()`` consumes the shared ``random.Random`` stream
    identically on both engines, so its output must match key-for-key.
    ``sample_batch`` draws its pending-eviction victims from the numpy
    generator instead -- a different (equally uniform) draw -- so it is
    checked as the same size over the same resident-plus-pending pool.
    """
    assert scalar.device.stats() == columnar.device.stats()
    if hasattr(scalar.device, "clock"):
        assert scalar.device.clock == columnar.device.clock
    assert scalar.stats().seen == columnar.stats().seen
    scalar_keys = sorted(r.key for r in scalar.sample())
    columnar_keys = sorted(r.key for r in columnar.sample())
    assert scalar_keys == columnar_keys
    batch = columnar.sample_batch()
    assert len(batch) == len(columnar_keys)
    assert len(set(batch.keys.tolist())) == len(batch)


# -- codec byte identity (hypothesis) ----------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
keys_st = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
payload_st = st.binary(max_size=48)


@st.composite
def record_lists(draw):
    n = draw(st.integers(0, 30))
    return [Record(key=draw(keys_st), value=draw(finite),
                   timestamp=draw(finite), payload=draw(payload_st))
            for _ in range(n)]


class TestCodecByteIdentity:
    @given(record_size=st.integers(MIN_RECORD_SIZE, 96),
           records=record_lists())
    @settings(max_examples=60, deadline=None)
    def test_unweighted_round_trip(self, record_size, records):
        """encode_batch bytes == columnar bytes; both decoders agree.

        Payloads longer than the slot's padding are truncated and
        short ones zero-padded by both codecs identically.
        """
        schema = RecordSchema(record_size)
        data = schema.encode_batch(records)
        batch = RecordBatch.from_bytes(schema, data)
        assert batch.to_bytes() == data
        assert schema.encode_many(batch) == data
        assert list(schema.decode_many(data)) == \
            schema.decode_batch(data, len(records))
        assert batch.to_records() == schema.decode_batch(data, len(records))

    @given(record_size=st.integers(MIN_RECORD_SIZE + 8, 96),
           records=record_lists(),
           weight_seed=st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_weighted_round_trip(self, record_size, records, weight_seed):
        schema = RecordSchema(record_size, weighted=True)
        weights = [random.Random(weight_seed + i).uniform(0.0, 10.0)
                   for i in range(len(records))]
        data = schema.encode_batch(records, weights)
        batch = RecordBatch.from_bytes(schema, data)
        assert batch.to_bytes() == data
        decoded = list(schema.decode_many(data))
        assert decoded == schema.decode_batch(data, len(records))
        assert batch.to_records() == decoded
        assert all(isinstance(r, WeightedRecord) for r in decoded)

    @given(records=record_lists())
    @settings(max_examples=40, deadline=None)
    def test_min_record_size_drops_payloads(self, records):
        """The headers-only schema has no payload field at all."""
        schema = RecordSchema(MIN_RECORD_SIZE)
        data = schema.encode_batch(records)
        assert len(data) == MIN_RECORD_SIZE * len(records)
        for got, want in zip(schema.decode_many(data), records):
            assert (got.key, got.value, got.timestamp) == \
                (want.key, want.value, want.timestamp)
            assert got.payload == b""

    @given(keys=st.lists(keys_st, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_from_columns_matches_scalar_codec(self, keys):
        """A batch assembled column-wise encodes byte-identically to
        the scalar codec over the equivalent record objects."""
        schema = RecordSchema(40)
        values = [float(i) for i in range(len(keys))]
        batch = RecordBatch.from_columns(schema, keys, values=values,
                                         timestamps=values)
        records = [Record(key=k, value=v, timestamp=v)
                   for k, v in zip(keys, values)]
        assert batch.to_bytes() == schema.encode_batch(records)

    def test_decode_many_is_zero_copy(self):
        schema = RecordSchema(40)
        data = schema.encode_batch(keyed_records(10))
        batch = schema.decode_many(data)
        assert not batch.array.flags.writeable  # a view of the bytes
        assert batch.array.base is not None


class TestRecordBatchSurface:
    def test_list_compat_shims(self):
        schema = RecordSchema(40)
        records = keyed_records(20)
        batch = RecordBatch.from_records(schema, records)
        assert len(batch) == 20 and bool(batch)
        assert list(batch) == records
        assert batch[3] == records[3]
        assert [r.key for r in batch[5:8]] == [5, 6, 7]
        del batch[15:]
        assert len(batch) == 15
        assert not RecordBatch.empty(schema)

    def test_concat_and_take(self):
        schema = RecordSchema(40)
        a = RecordBatch.from_records(schema, keyed_records(5))
        b = RecordBatch.from_records(schema, keyed_records(3))
        merged = RecordBatch.concat(schema, [a, b])
        assert merged.keys.tolist() == [0, 1, 2, 3, 4, 0, 1, 2]
        assert merged.take([7, 0]).keys.tolist() == [2, 0]


# -- buffer parity -----------------------------------------------------------


class TestBufferParity:
    def test_columnar_buffer_matches_object_buffer(self):
        """Same seed, same stream: identical drains either way."""
        schema = RecordSchema(40)
        records = keyed_records(400)
        batch = stream_batch(schema, records)
        scalar = SampleBuffer(50, random.Random(7))
        columnar = SampleBuffer(50, random.Random(7), schema=schema)
        scalar.extend(records[:50])
        columnar.extend_batch(batch[:50])
        drained_s, _, count_s = scalar.drain()
        drained_c, _, count_c = columnar.drain()
        assert count_s == count_c == 50
        assert [r.key for r in drained_s] == drained_c.keys.tolist()
        i = j = 50
        while i < len(records):
            i += scalar.absorb_many(records, 2000, start=i)
            j += columnar.absorb_batch(batch, 2000, start=j)
            assert i == j
            if scalar.is_full:
                drained_s, _, _ = scalar.drain()
                drained_c, _, _ = columnar.drain()
                assert [r.key for r in drained_s] == \
                    drained_c.keys.tolist()

    def test_pending_view_sees_live_rows(self):
        schema = RecordSchema(40)
        buffer = SampleBuffer(50, random.Random(0), schema=schema)
        buffer.extend_batch(stream_batch(schema, keyed_records(20)))
        view = buffer.pending_view()
        assert view["key"].tolist() == list(range(20))


# -- engine identity: bit-exact I/O and samples ------------------------------


def make_device(kind: str, blocks: int):
    if kind == "memory":
        return MemoryBlockDevice(blocks, TEST_BLOCK)
    return SimulatedBlockDevice(blocks, small_disk_params(),
                                retain_data=(kind == "sim-retain"))


DEVICE_KINDS = ["memory", "sim", "sim-retain"]

BASELINES = [VirtualMemoryReservoir, ScanReservoir, LocalOverwriteReservoir]


class TestEngineIdentity:
    @pytest.mark.parametrize("kind", DEVICE_KINDS)
    def test_geometric_file_twins(self, kind):
        scalar, columnar = [
            self._make_gf(kind, columnar=flag) for flag in (False, True)
        ]
        drive_twins(scalar, columnar, keyed_records(3000))
        assert_twins_identical(scalar, columnar)

    @pytest.mark.parametrize("kind", DEVICE_KINDS)
    def test_multi_file_twins(self, kind):
        scalar, columnar = [
            self._make_multi(kind, columnar=flag) for flag in (False, True)
        ]
        drive_twins(scalar, columnar, keyed_records(3000))
        assert_twins_identical(scalar, columnar)

    @pytest.mark.parametrize("kind", DEVICE_KINDS)
    @pytest.mark.parametrize("cls", BASELINES)
    def test_baseline_twins(self, cls, kind):
        scalar, columnar = [
            self._make_baseline(cls, kind, columnar=flag)
            for flag in (False, True)
        ]
        records = keyed_records(1500)
        for r in records:
            scalar.offer(r)
            columnar.offer(r)
        assert_twins_identical(scalar, columnar)

    @pytest.mark.parametrize("cls", BASELINES)
    def test_baseline_offer_batch_fills_sample(self, cls):
        columnar = self._make_baseline(cls, "sim", columnar=True)
        schema = RecordSchema(columnar.config.record_size)
        batch = stream_batch(schema, keyed_records(1500))
        for start in range(0, 1500, 128):
            columnar.offer_batch(batch[start:start + 128])
        got = columnar.sample_batch()
        assert len(got) == columnar.capacity
        assert set(got.keys.tolist()) <= set(range(1500))

    def test_scalar_offer_loop_matches_on_columnar_file(self):
        """offer() on a columnar file stays bit-exact with scalar."""
        scalar = self._make_gf("sim", columnar=False)
        columnar = self._make_gf("sim", columnar=True)
        for r in keyed_records(2000):
            scalar.offer(r)
            columnar.offer(r)
        assert_twins_identical(scalar, columnar)

    def _make_gf(self, kind, *, columnar):
        from repro.core.geometric_file import (
            GeometricFile,
            GeometricFileConfig,
        )

        config = GeometricFileConfig(
            capacity=800, buffer_capacity=100, record_size=40,
            beta_records=10, retain_records=True, admission="uniform",
            columnar=columnar,
        )
        blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
        return GeometricFile(make_device(kind, blocks), config, seed=5)

    def _make_multi(self, kind, *, columnar):
        from repro.core.multi import MultiFileConfig, MultipleGeometricFiles

        config = MultiFileConfig(
            capacity=800, buffer_capacity=100, record_size=40,
            beta_records=10, retain_records=True, admission="uniform",
            alpha_prime=0.8, columnar=columnar,
        )
        blocks = MultipleGeometricFiles.required_blocks(config, TEST_BLOCK)
        return MultipleGeometricFiles(make_device(kind, blocks), config,
                                      seed=5)

    def _make_baseline(self, cls, kind, *, columnar):
        config = DiskReservoirConfig(
            capacity=600, buffer_capacity=60, record_size=40,
            pool_blocks=4, retain_records=True, admission="uniform",
            columnar=columnar,
        )
        blocks = cls.required_blocks(config, TEST_BLOCK)
        return cls(make_device(kind, blocks), config, seed=5)


# -- segment read-back -------------------------------------------------------


class TestSegmentReadback:
    def test_flushed_segments_decode_to_ledger_slices(self):
        """Bytes on a retaining device decode back to the exact rows
        the newest ledger holds, level by level."""
        from repro.core.geometric_file import (
            GeometricFile,
            GeometricFileConfig,
        )

        config = GeometricFileConfig(
            capacity=600, buffer_capacity=100, record_size=40,
            beta_records=10, retain_records=True, admission="always",
            columnar=True,
        )
        blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
        device = SimulatedBlockDevice(blocks, small_disk_params(),
                                      retain_data=True)
        gf = GeometricFile(device, config, seed=3)
        schema = RecordSchema(40)
        batch = stream_batch(schema, keyed_records(1200))
        for start in range(0, 1200, 100):
            gf.offer_batch(batch[start:start + 100])
        ledger = gf.subsamples[0]  # created by the very last flush
        assert ledger.first_level == 0 and ledger.records is not None
        layout = gf._layout
        offset = 0
        for level, (size, slot) in enumerate(
                zip(ledger.segment_sizes, ledger.slots)):
            n_blocks = schema.blocks_for_records(size, TEST_BLOCK)
            data = device.read_blocks(layout.slot_address(level, slot),
                                      n_blocks)
            on_disk = schema.decode_many(data, size)
            want = ledger.records[offset:offset + size]
            assert on_disk.keys.tolist() == want.keys.tolist()
            assert np.array_equal(on_disk.values, want.values)
            offset += size


# -- statistical acceptance --------------------------------------------------


class TestDistributionalIdentity:
    def test_columnar_membership_is_uniform(self):
        """Chi-square: P[record j resident] = N/stream on the columnar
        engine, against the exact uniform-reservoir expectation."""
        trials, stream = 80, 900
        counts = collections.Counter()
        capacity = None
        schema = RecordSchema(40)
        batch = stream_batch(schema, keyed_records(stream))
        for t in range(trials):
            gf = make_geometric_file(capacity=300, buffer_capacity=30,
                                     seed=t, columnar=True)
            capacity = gf.capacity
            for start in range(0, stream, 128):
                gf.offer_batch(batch[start:start + 128])
            counts.update(gf.sample_batch().keys.tolist())
        expected = {j: trials * capacity / stream for j in range(stream)}
        assert chi_square_p(counts, expected) > P_MIN

    def test_estimator_outputs_match_across_seeds(self):
        """KS: AVG estimates from columnar samples are distributed as
        AVG estimates from scalar samples of the same stream."""
        records = value_records(900, seed=42)
        schema = RecordSchema(40)
        batch = stream_batch(schema, records)
        scalar_avgs, columnar_avgs = [], []
        for t in range(40):
            scalar = make_geometric_file(capacity=300, buffer_capacity=30,
                                         seed=t)
            columnar = make_geometric_file(capacity=300, buffer_capacity=30,
                                           seed=t + 10 ** 6, columnar=True)
            for start in range(0, 900, 128):
                scalar.offer_many(records[start:start + 128])
                columnar.offer_batch(batch[start:start + 128])
            scalar_avgs.append(
                SampleQuery(scalar.sample()).avg().value)
            columnar_avgs.append(
                BatchQuery(columnar.sample_batch()).avg().value)
        p = scipy_stats.ks_2samp(scalar_avgs, columnar_avgs).pvalue
        assert p > P_MIN

    def test_batch_query_agrees_with_sample_query(self):
        """On the SAME sample the two query engines agree to float
        reassociation."""
        records = value_records(600, seed=9)
        schema = RecordSchema(40)
        gf = make_geometric_file(capacity=300, buffer_capacity=30,
                                 columnar=True)
        batch_stream = stream_batch(schema, records)
        for start in range(0, 600, 100):
            gf.offer_batch(batch_stream[start:start + 100])
        seen = gf.stats().seen
        batch = gf.sample_batch()
        rows = batch.to_records()
        bq = BatchQuery(batch, population_size=seen)
        sq = SampleQuery(rows, population_size=seen)
        assert bq.avg().value == pytest.approx(sq.avg().value)
        assert bq.sum().value == pytest.approx(sq.sum().value)
        lo, hi = 90.0, 110.0
        assert (bq.filter("value", lo, hi).avg().value
                == pytest.approx(
                    sq.filter(lambda r: lo <= r.value <= hi).avg().value))
        assert (bq.count(bq.mask("value", low=hi)).value
                == pytest.approx(
                    sq.count(lambda r: r.value >= hi).value))


# -- zone map ----------------------------------------------------------------


class TestZoneMapBatch:
    def _file(self):
        gf = make_geometric_file(capacity=400, buffer_capacity=40,
                                 columnar=True)
        schema = RecordSchema(40)
        batch = stream_batch(schema, keyed_records(1200))
        for start in range(0, 1200, 100):
            gf.offer_batch(batch[start:start + 100])
        return gf

    def test_query_batch_matches_iterator_query(self):
        gf = self._file()
        index = ZoneMapIndex(gf, field="timestamp")
        low, high = 1000.0, 1200.0
        want = sorted(r.key for r in index.query(low, high))
        iter_stats = index.stats()
        got = index.query_batch(low, high)
        batch_stats = index.stats()
        assert sorted(got.keys.tolist()) == want
        assert batch_stats == iter_stats

    def test_query_batch_requires_columnar_file(self):
        gf = make_geometric_file(capacity=200, buffer_capacity=20)
        for r in keyed_records(300):
            gf.offer(r)
        index = ZoneMapIndex(gf, field="value")
        with pytest.raises(TypeError):
            index.query_batch(0.0, 10.0)


# -- checkpoint round trip ---------------------------------------------------


class TestCheckpointColumnar:
    def test_round_trip_restores_columnar_ledgers(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30,
                                 columnar=True)
        schema = RecordSchema(40)
        batch = stream_batch(schema, keyed_records(900))
        for start in range(0, 900, 90):
            gf.offer_batch(batch[start:start + 90])
        sink = io.StringIO()
        save_geometric_file(gf, sink)
        sink.seek(0)
        blocks = gf.device.n_blocks
        restored = load_geometric_file(
            sink, SimulatedBlockDevice(blocks, small_disk_params()))
        assert restored.columnar
        assert sorted_sample_keys(restored) == sorted_sample_keys(gf)
        # Bit-identical continuation: the restored file and the
        # original make the same decisions over the same future stream.
        more = stream_batch(schema, keyed_records(300))
        gf.offer_batch(more)
        restored.offer_batch(more)
        assert sorted_sample_keys(restored) == sorted_sample_keys(gf)


# -- managed wrapper ---------------------------------------------------------


class TestManagedColumnar:
    def test_offer_batch_checkpoints_and_restores(self, tmp_path):
        from repro.core.geometric_file import (
            GeometricFile,
            GeometricFileConfig,
        )

        config = GeometricFileConfig(
            capacity=300, buffer_capacity=30, record_size=40,
            beta_records=4, retain_records=True, admission="uniform",
            columnar=True,
        )
        blocks = GeometricFile.required_blocks(config, TEST_BLOCK)

        def device_factory():
            return SimulatedBlockDevice(blocks, small_disk_params())

        path = tmp_path / "sample.json"
        managed = ManagedSample(path, device_factory, config,
                                checkpoint_every=1)
        schema = RecordSchema(40)
        batch = stream_batch(schema, keyed_records(900))
        for start in range(0, 900, 90):
            managed.offer_batch(batch[start:start + 90])
        assert path.exists()
        assert managed.flushes > 0
        reopened = ManagedSample.restore(path, device_factory)
        assert reopened.columnar
        assert sorted_sample_keys(reopened.structure) == \
            sorted_sample_keys(managed.structure)


# -- sharded service ---------------------------------------------------------


class TestShardedBatchQueries:
    def _config(self):
        from repro.core.geometric_file import GeometricFileConfig

        return GeometricFileConfig(
            capacity=200, buffer_capacity=20, record_size=32,
            beta_records=4, retain_records=True, admission="uniform",
            columnar=True,
        )

    def test_snapshot_batch_and_query_batch(self, tmp_path):
        records = value_records(4000, seed=1)
        with ShardedReservoir(tmp_path, self._config(), shards=4,
                              pool="inline", seed=0) as service:
            service.offer_batch(records)
            batch, seen = service.snapshot_batch(150)
            assert seen == 4000
            assert len(batch) == 150
            assert set(batch.keys.tolist()) <= set(range(4000))
            query = service.query_batch(150)
            estimate = query.avg()
            true_mean = float(np.mean([r.value for r in records]))
            assert abs(estimate.value - true_mean) <= \
                5 * estimate.standard_error + 1e-9
            total = query.count().value
            assert total == pytest.approx(4000, rel=0.25)

    def test_sample_batch_multiset_matches_scalar_merge(self, tmp_path):
        """Same merge RNG state, same k: the columnar merge returns the
        same record multiset as the scalar merge."""
        records = keyed_records(3000)
        with ShardedReservoir(tmp_path, self._config(), shards=4,
                              pool="inline", seed=7) as service:
            service.offer_batch(records)
            scalar_keys = sorted(r.key for r in service.sample(120))
            batch_keys = sorted(
                service.sample_batch(120).keys.tolist())
            assert len(batch_keys) == 120
            assert set(batch_keys) <= set(range(3000))
            assert len(scalar_keys) == 120
