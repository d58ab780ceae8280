"""Tests for geometric-file checkpoint / recovery."""

import base64
import io
import json
import math
import os
import pathlib
import random
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    TEST_BLOCK,
    checkpoint_files,
    make_geometric_file,
    manifest_ledgers,
    small_disk_params,
)
from repro.core.biased_file import BiasedGeometricFile
from repro.core.checkpoint import load_geometric_file, save_geometric_file
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.managed import ManagedSample
from repro.core.multi import MultiFileConfig, MultipleGeometricFiles
from repro.storage.device import SimulatedBlockDevice
from repro.storage.recordbatch import RecordBatch
from repro.storage.records import MIN_RECORD_SIZE, Record, RecordSchema


def feed(gf, n, start=0):
    for i in range(start, start + n):
        gf.offer(Record(key=i, value=float(i), timestamp=float(i)))


def saved_text(gf):
    sink = io.StringIO()
    save_geometric_file(gf, sink)
    return sink.getvalue()


def round_trip(gf, weight_fn=None):
    device = SimulatedBlockDevice(gf.device.n_blocks, small_disk_params())
    return load_geometric_file(io.StringIO(saved_text(gf)), device,
                               weight_fn=weight_fn)


class TestRoundTrip:
    def test_state_survives(self):
        gf = make_geometric_file(capacity=500, buffer_capacity=50)
        feed(gf, 2345)
        restored = round_trip(gf)
        assert restored.stats().seen == gf.stats().seen
        assert restored.stats().samples_added == gf.stats().samples_added
        assert restored.flushes == gf.flushes
        assert restored.disk_size == gf.disk_size
        assert restored.buffer.count == gf.buffer.count
        restored.check_invariants()

    def test_sample_contents_survive(self):
        gf = make_geometric_file(capacity=500, buffer_capacity=50)
        feed(gf, 2000)
        restored = round_trip(gf)
        original_keys = sorted(r.key for ledger in gf.subsamples
                               for r in ledger.records)
        restored_keys = sorted(r.key for ledger in restored.subsamples
                               for r in ledger.records)
        assert original_keys == restored_keys

    def test_continuation_is_bit_identical(self):
        """The restored file must make the same future decisions."""
        gf = make_geometric_file(capacity=400, buffer_capacity=40)
        feed(gf, 1234)
        restored = round_trip(gf)
        feed(gf, 1000, start=1234)
        feed(restored, 1000, start=1234)
        keys_a = sorted(r.key for r in gf.sample())
        keys_b = sorted(r.key for r in restored.sample())
        assert keys_a == keys_b
        assert gf.flushes == restored.flushes
        gf.check_invariants()
        restored.check_invariants()

    def test_mid_startup_checkpoint(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=50)
        feed(gf, 321)
        restored = round_trip(gf)
        assert restored.in_startup
        feed(restored, 2000, start=321)
        restored.check_invariants()
        assert restored.disk_size == 1000

    def test_count_only_checkpoint(self):
        gf = make_geometric_file(capacity=500, buffer_capacity=50,
                                 retain_records=False, admission="always")
        gf.ingest(1777)
        restored = round_trip(gf)
        assert restored.disk_size == gf.disk_size
        assert restored.buffer.count == gf.buffer.count
        restored.ingest(1000)
        restored.check_invariants()

    def test_payloads_survive(self):
        gf = make_geometric_file(capacity=100, buffer_capacity=10)
        for i in range(100):
            gf.offer(Record(key=i, payload=f"p{i}".encode()))
        restored = round_trip(gf)
        payloads = {r.key: r.payload for ledger in restored.subsamples
                    for r in ledger.records}
        assert payloads[42] == b"p42"


class TestBiasedRoundTrip:
    @staticmethod
    def weight_fn(record):
        return math.exp(record.timestamp / 500.0)

    def make_biased(self, weight_fn=None):
        config = GeometricFileConfig(
            capacity=300, buffer_capacity=30, record_size=40,
            retain_records=True, beta_records=4,
        )
        blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
        device = SimulatedBlockDevice(blocks, small_disk_params())
        return BiasedGeometricFile(device, config,
                                   weight_fn or self.weight_fn, seed=0)

    def test_biased_state_survives(self):
        bf = self.make_biased()
        feed(bf, 1500)
        sink = io.StringIO()
        save_geometric_file(bf, sink)
        sink.seek(0)
        device = SimulatedBlockDevice(bf.device.n_blocks,
                                      small_disk_params())
        restored = load_geometric_file(sink, device,
                                       weight_fn=self.weight_fn)
        assert isinstance(restored, BiasedGeometricFile)
        assert restored.total_weight == pytest.approx(bf.total_weight)
        assert restored.multipliers == bf.multipliers
        original = sorted((r.key, w) for r, w in bf.items())
        recovered = sorted((r.key, w) for r, w in restored.items())
        assert original == recovered
        restored.check_invariants()

    def test_biased_restore_requires_weight_fn(self):
        bf = self.make_biased()
        feed(bf, 500)
        sink = io.StringIO()
        save_geometric_file(bf, sink)
        sink.seek(0)
        device = SimulatedBlockDevice(bf.device.n_blocks,
                                      small_disk_params())
        with pytest.raises(ValueError):
            load_geometric_file(sink, device)

    def test_buffer_weight_epoch_survives(self):
        """Checkpoints taken while the buffer's weight epoch is not 1
        continue with bit-identical weights.

        Overflow scaling multiplies the buffer's epoch factor, not its
        stored weights; a restore that folded the factor into the
        weights would compute ``(w*s)*f`` where the uninterrupted file
        computes ``w*(s*f)``.
        """
        def weight_fn(record):
            return math.exp(record.timestamp / 37.0)

        checked = 0
        for stop in range(400, 700, 37):
            bf = self.make_biased(weight_fn)
            feed(bf, stop)
            if bf.weight_epoch == 1.0:
                continue
            restored = round_trip(bf, weight_fn=weight_fn)
            flushes = bf.flushes
            feed(bf, 150, start=stop)
            feed(restored, 150, start=stop)
            assert restored.flushes == bf.flushes > flushes
            assert ([(r.key, w) for r, w in restored.items()]
                    == [(r.key, w) for r, w in bf.items()])
            assert restored.weight_epoch == bf.weight_epoch
            assert (restored.buffer.aux_view().tolist()
                    == bf.buffer.aux_view().tolist())
            checked += 1
        assert checked >= 5


class TestValidation:
    def test_unknown_version_rejected(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30)
        feed(gf, 100)
        sink = io.StringIO()
        save_geometric_file(gf, sink)
        state = json.loads(sink.getvalue())
        state["version"] = 99
        device = SimulatedBlockDevice(gf.device.n_blocks,
                                      small_disk_params())
        with pytest.raises(ValueError):
            load_geometric_file(io.StringIO(json.dumps(state)), device)

    def test_unknown_kind_rejected(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30)
        feed(gf, 100)
        sink = io.StringIO()
        save_geometric_file(gf, sink)
        text = sink.getvalue().replace('"GeometricFile"', '"Mystery"')
        device = SimulatedBlockDevice(gf.device.n_blocks,
                                      small_disk_params())
        with pytest.raises(ValueError):
            load_geometric_file(io.StringIO(text), device)


class TestMultiFileRoundTrip:
    def make_multi(self):
        import conftest
        return conftest.make_multi_file(capacity=600, buffer_capacity=60,
                                        alpha_prime=0.6)

    def test_multi_state_survives_and_continues_identically(self):
        import io as _io

        from repro.core.multi import MultipleGeometricFiles
        from repro.storage.device import SimulatedBlockDevice
        from conftest import small_disk_params

        mf = self.make_multi()
        feed(mf, 2500)
        sink = _io.StringIO()
        save_geometric_file(mf, sink)
        sink.seek(0)
        device = SimulatedBlockDevice(mf.device.n_blocks,
                                      small_disk_params())
        restored = load_geometric_file(sink, device)
        assert isinstance(restored, MultipleGeometricFiles)
        assert restored.n_files == mf.n_files
        assert restored.disk_size == mf.disk_size
        feed(mf, 1500, start=2500)
        feed(restored, 1500, start=2500)
        keys_a = sorted(r.key for r in mf.sample())
        keys_b = sorted(r.key for r in restored.sample())
        assert keys_a == keys_b
        mf.check_invariants()
        restored.check_invariants()

    def test_multi_dummy_slots_restored(self):
        import io as _io

        from repro.storage.device import SimulatedBlockDevice
        from conftest import small_disk_params

        mf = self.make_multi()
        feed(mf, 1800)
        sink = _io.StringIO()
        save_geometric_file(mf, sink)
        sink.seek(0)
        device = SimulatedBlockDevice(mf.device.n_blocks,
                                      small_disk_params())
        restored = load_geometric_file(sink, device)
        for original, recovered in zip(mf.files, restored.files):
            assert original.dummy_slots == recovered.dummy_slots


class TestBiasedMultiRoundTrip:
    @staticmethod
    def weight_fn(record):
        return 1.0 + record.timestamp / 1000.0

    def test_biased_multi_survives_and_continues(self):
        import io as _io

        from repro.core.biased_file import BiasedMultipleGeometricFiles
        from repro.core.multi import MultiFileConfig
        from conftest import small_disk_params

        config = MultiFileConfig(capacity=400, buffer_capacity=40,
                                 record_size=40, retain_records=True,
                                 beta_records=4, alpha_prime=0.6)
        blocks = BiasedMultipleGeometricFiles.required_blocks(config,
                                                              TEST_BLOCK)
        device = SimulatedBlockDevice(blocks, small_disk_params())
        bf = BiasedMultipleGeometricFiles(device, config, self.weight_fn,
                                          seed=0)
        feed(bf, 1800)
        sink = _io.StringIO()
        save_geometric_file(bf, sink)
        sink.seek(0)
        device2 = SimulatedBlockDevice(blocks, small_disk_params())
        restored = load_geometric_file(sink, device2,
                                       weight_fn=self.weight_fn)
        assert isinstance(restored, BiasedMultipleGeometricFiles)
        assert restored.total_weight == pytest.approx(bf.total_weight)
        feed(bf, 600, start=1800)
        feed(restored, 600, start=1800)
        assert (sorted((r.key, w) for r, w in bf.items())
                == sorted((r.key, w) for r, w in restored.items()))
        restored.check_invariants()


# -- format version 2 --------------------------------------------------------


def build(structure, law, seed):
    params = (("weight", "value"),) if law == "aexpj" else ()
    common = dict(capacity=400, buffer_capacity=40, record_size=40,
                  beta_records=4, retain_records=True, admission="uniform",
                  law=law, law_params=params)
    if structure == "multi":
        cls, config = MultipleGeometricFiles, MultiFileConfig(
            alpha_prime=0.6, **common)
    else:
        cls, config = GeometricFile, GeometricFileConfig(**common)
    blocks = cls.required_blocks(config, TEST_BLOCK)
    return cls(SimulatedBlockDevice(blocks, small_disk_params()), config,
               seed=seed)


def stream(start, n):
    """Records with weight classes 1..10 and payloads of 0-14 bytes."""
    return [Record(key=i, value=float(i % 10 + 1), timestamp=float(i),
                   payload=b"p%d" % i if i % 3 else b"")
            for i in range(start, start + n)]


def offer(gf, records, batch=False):
    """Offer ``records`` as one slab or as the record list itself."""
    if batch:
        gf.offer_batch(RecordBatch.from_records(gf.schema, records))
    else:
        gf.offer_many(records)


class TestFormat:
    @given(structure=st.sampled_from(["geometric", "multi"]),
           law=st.sampled_from(["uniform", "aexpj"]),
           batch=st.booleans(), at_flush=st.booleans(),
           n1=st.integers(1, 900), n2=st.integers(1, 300),
           seed=st.integers(0, 1_000))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_save_load_save_is_identical_and_continues_bit_exact(
            self, structure, law, batch, at_flush, n1, n2, seed):
        gf = build(structure, law, seed)
        offer(gf, stream(0, n1), batch)
        seen = n1
        # Step one record at a time to a flush boundary (empty buffer),
        # or to a state with records in the buffer.
        flushes = gf.flushes
        while (gf.flushes == flushes) if at_flush else not gf.buffer.count:
            offer(gf, stream(seen, 1), batch)
            seen += 1
        assert (gf.buffer.count == 0) == at_flush
        text = saved_text(gf)
        assert json.dumps(json.loads(text)) == text
        restored = load_geometric_file(
            io.StringIO(text),
            SimulatedBlockDevice(gf.device.n_blocks, small_disk_params()))
        assert saved_text(restored) == text
        more = stream(seen, n2)
        offer(gf, more, batch)
        offer(restored, more, batch)
        assert saved_text(restored) == saved_text(gf)
        assert (restored.sample(rng=random.Random(1))
                == gf.sample(rng=random.Random(1)))
        restored.check_invariants()

    def test_version_1_document_rejected(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30)
        feed(gf, 100)
        state = json.loads(saved_text(gf))
        # Version 1 stored every record as a [key, value, timestamp,
        # base64 payload] list.
        state["version"] = 1
        state["buffer_records"] = [[r.key, r.value, r.timestamp, ""]
                                   for r in gf.buffer]
        for ledger, saved in zip(gf.subsamples, state["ledgers"]):
            saved["records"] = [[r.key, r.value, r.timestamp, ""]
                                for r in ledger.records]
        device = SimulatedBlockDevice(gf.device.n_blocks,
                                      small_disk_params())
        with pytest.raises(ValueError, match="version 1"):
            load_geometric_file(io.StringIO(json.dumps(state)), device)

    @pytest.mark.parametrize("batch", [False, True])
    def test_payloads_restore_as_the_slot_codec_decodes_them(self, batch):
        """A payload exactly the slot width comes back as
        ``RecordSchema.decode`` returns it (the disk, shm and slab
        contract), whether it arrived through ``offer`` or
        ``offer_many``; one byte longer, or a key past 64 bits, is
        rejected before any state changes, so no record reads back
        differently after a restore."""
        schema = RecordSchema(40)
        width = schema.record_size - MIN_RECORD_SIZE
        offered = {i: Record(key=i, value=float(i), timestamp=float(i),
                             payload=bytes([65 + i % 26]) * width)
                   for i in range(150)}
        gf = make_geometric_file(capacity=100, buffer_capacity=10)
        if batch:
            gf.offer_many(list(offered.values()))
        else:
            for record in offered.values():
                gf.offer(record)
        before = saved_text(gf)
        too_long = Record(key=150, payload=b"x" * (width + 1))
        for verb in (gf.offer, lambda r: gf.offer_many([r])):
            with pytest.raises(ValueError,
                               match=f"record 150: its {width + 1}-byte "
                                     f"payload .* {width}-byte"):
                verb(too_long)
            for key in (1 << 63, -(1 << 63) - 1):
                with pytest.raises(ValueError, match="64-bit key field"):
                    verb(Record(key=key))
        assert saved_text(gf) == before
        restored = round_trip(gf)
        retained = [r for ledger in restored.subsamples
                    for r in ledger.records] + list(restored.buffer)
        assert len(retained) == 100 + restored.buffer.count
        for record in retained:
            assert record == schema.decode(schema.encode(offered[record.key]))
            assert len(record.payload) == width


# -- format version 3: slab files beside a managed manifest ------------------


_CHAIN_LAWS = {
    "uniform": (),
    "aexpj": (("weight", "value"),),
    "window": (("window", 600), ("sample_size", 60)),
}


def chain_config(structure, law):
    common = dict(capacity=400, buffer_capacity=40, record_size=40,
                  beta_records=4, retain_records=True, admission="uniform",
                  law=law, law_params=_CHAIN_LAWS[law])
    if structure == "multi":
        return MultipleGeometricFiles, MultiFileConfig(alpha_prime=0.6,
                                                       **common)
    return GeometricFile, GeometricFileConfig(**common)


class TestSlabFiles:
    @given(structure=st.sampled_from(["geometric", "multi"]),
           law=st.sampled_from(sorted(_CHAIN_LAWS)),
           batch=st.booleans(),
           steps=st.lists(st.integers(1, 400), min_size=1, max_size=14),
           reopen=st.integers(0, 13), seed=st.integers(0, 1_000))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_checkpoint_chain_reopens_bit_exact(
            self, structure, law, batch, steps, reopen, seed):
        """Offers and incremental checkpoints alternate; the sample is
        reopened from disk after checkpoint ``reopen`` and must continue
        exactly like an uninterrupted twin.  After every checkpoint the
        directory holds the manifest and exactly the slabs it names."""
        cls, config = chain_config(structure, law)
        blocks = cls.required_blocks(config, TEST_BLOCK)

        def factory():
            return SimulatedBlockDevice(blocks, small_disk_params())

        kind = "multi" if structure == "multi" else "geometric"
        twin = cls(factory(), config, seed=seed)
        with tempfile.TemporaryDirectory() as directory:
            path = pathlib.Path(directory) / "checkpoint.json"
            managed = ManagedSample(path, factory, config, kind=kind,
                                    checkpoint_every=0, seed=seed)
            seen = 0
            for index, n in enumerate(steps):
                records = stream(seen, n)
                seen += n
                offer(twin, records, batch)
                offer(managed.structure, records, batch)
                managed.checkpoint()
                assert sorted(os.listdir(directory)) == checkpoint_files(path)
                if index == reopen:
                    managed = ManagedSample(path, factory, None, kind=kind)
                    assert saved_text(managed.structure) == saved_text(twin)
            more = stream(seen, 150)
            offer(twin, more, batch)
            offer(managed.structure, more, batch)
            assert saved_text(managed.structure) == saved_text(twin)
            assert (managed.sample(rng=random.Random(1))
                    == twin.sample(rng=random.Random(1)))
            managed.check_invariants()

    def test_half_rule_rewrites_shrunken_slabs(self, tmp_path):
        """A uniform ledger keeps its slab while more than half its rows
        are live and gets a fresh, smaller one at half or below; the
        directory stays within twice the live records' packed bytes
        plus the manifest."""
        cls, config = chain_config("geometric", "uniform")
        blocks = cls.required_blocks(config, TEST_BLOCK)
        path = tmp_path / "checkpoint.json"
        managed = ManagedSample(
            path, lambda: SimulatedBlockDevice(blocks, small_disk_params()),
            config, checkpoint_every=0)
        slab_of: dict[int, str] = {}
        kept = rewritten = 0
        for start in range(0, 12_000, 300):
            offer(managed.structure, stream(start, 300))
            managed.checkpoint()
            for ledger in manifest_ledgers(path):
                name = ledger["slab"]["file"]
                rows = int(name.rsplit("-", 1)[1])
                assert 2 * ledger["live"] > rows
                previous = slab_of.get(ledger["ident"])
                if previous is not None:
                    if previous == name:
                        kept += 1
                    else:
                        rewritten += 1
                        assert rows * 2 <= int(previous.rsplit("-", 1)[1])
                slab_of[ledger["ident"]] = name
            live_bytes = managed.structure.disk_size * config.record_size
            on_disk = sum(os.path.getsize(tmp_path / name)
                          for name in os.listdir(tmp_path))
            assert on_disk <= 2 * live_bytes + path.stat().st_size
        assert kept > rewritten > 0


class TestSlabValidation:
    def checkpointed(self, tmp_path):
        """A checkpoint path and the first slab it names with >1 live."""
        cls, config = chain_config("geometric", "uniform")
        blocks = cls.required_blocks(config, TEST_BLOCK)
        path = tmp_path / "checkpoint.json"
        managed = ManagedSample(
            path, lambda: SimulatedBlockDevice(blocks, small_disk_params()),
            config, checkpoint_every=0)
        offer(managed.structure, stream(0, 1500))
        managed.checkpoint()
        ledger = next(ledger for ledger in manifest_ledgers(path)
                      if ledger["live"] > 1)
        return path, tmp_path / ledger["slab"]["file"], ledger["live"]

    def assert_rejected(self, path, slab, message):
        """Reopening raises a ValueError naming ``slab``, then
        ``message``."""
        cls, config = chain_config("geometric", "uniform")
        blocks = cls.required_blocks(config, TEST_BLOCK)
        with pytest.raises(ValueError,
                           match=f"{re.escape(str(slab))} {message}"):
            ManagedSample.restore(
                path,
                lambda: SimulatedBlockDevice(blocks, small_disk_params()))

    def test_partial_row_rejected(self, tmp_path):
        path, slab, _ = self.checkpointed(tmp_path)
        slab.write_bytes(slab.read_bytes()[:-1])
        self.assert_rejected(path, slab, ".*not a whole number of")

    def test_short_slab_rejected(self, tmp_path):
        path, slab, live = self.checkpointed(tmp_path)
        slab.write_bytes(slab.read_bytes()[:(live - 1) * 40])
        self.assert_rejected(path, slab, f"holds {live - 1} rows")

    def test_altered_last_live_row_rejected(self, tmp_path):
        path, slab, live = self.checkpointed(tmp_path)
        data = bytearray(slab.read_bytes())
        data[(live - 1) * 40] ^= 0xFF  # the low byte of row live-1's key
        slab.write_bytes(bytes(data))
        self.assert_rejected(path, slab, f"row {live - 1} differs")

    def test_missing_slab_rejected(self, tmp_path):
        path, slab, _ = self.checkpointed(tmp_path)
        slab.unlink()
        self.assert_rejected(path, slab, "is missing")

    def test_version_2_document_rejected(self):
        """Version 2 kept every ledger's records inline as one base64
        slab in the document; there is no migration."""
        gf = make_geometric_file(capacity=300, buffer_capacity=30)
        feed(gf, 500)
        state = json.loads(saved_text(gf))
        state["version"] = 2
        for ledger, saved in zip(gf.subsamples, state["ledgers"]):
            del saved["slab"], saved["last"]
            saved["records"] = base64.b64encode(
                gf.schema.encode_batch(ledger.records)).decode("ascii")
            saved["weights"] = saved["aux"] = None
        device = SimulatedBlockDevice(gf.device.n_blocks,
                                      small_disk_params())
        with pytest.raises(ValueError, match="version 2"):
            load_geometric_file(io.StringIO(json.dumps(state)), device)
