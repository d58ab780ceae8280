"""The pluggable sampling-law engine (``repro.sampling.laws``).

Three layers of coverage:

* **Bit-exact twin parity** for the uniform law: a geometric file (or
  multi-file) built with an explicit ``law="uniform"`` must replay the
  pre-refactor RNG streams exactly -- identical sample keys, equal
  DiskStats, equal simulated clock -- against a default-config twin,
  on memory and simulated devices, fed record lists or slabs.

* **Distributional equivalence** for the three new laws: chi-square /
  KS comparisons of the disk engine against the in-memory reference
  twins of :func:`repro.sampling.laws.reference_for` over many seeded
  trials (the same acceptance bar PR 2 set for batched admission).

* **Machinery**: the aux-column plumbing through buffer, ledgers, and
  checkpoints (hypothesis round-trips for all four laws), the law
  guards on uniform-only paths, and crash-replay of a weighted law
  through the sharded service's journal.
"""

from __future__ import annotations

import collections
import io
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from conftest import TEST_BLOCK, keyed_records, small_disk_params
from repro.core.buffer import SampleBuffer
from repro.core.checkpoint import load_geometric_file, save_geometric_file
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.managed import ManagedSample
from repro.core.multi import MultiFileConfig, MultipleGeometricFiles
from repro.sampling import feed_stream
from repro.sampling.laws import (
    AExpJLaw,
    SlidingWindowLaw,
    UniformLaw,
    WeightedReplacementLaw,
    make_law,
    reference_for,
)
from repro.sampling.weights import (
    exp_jump_keys,
    uniform_weight,
    value_proportional,
)
from repro.storage.device import MemoryBlockDevice, SimulatedBlockDevice
from repro.storage.recordbatch import RecordBatch
from repro.storage.records import Record, RecordSchema
from test_batch_ingest import P_MIN, chi_square_p

pytestmark = pytest.mark.laws

#: Ten weight classes, so value-proportional laws have a coarse but
#: well-populated category structure for the chi-square comparisons.
N_CLASSES = 10


def two_sample_p(a: collections.Counter, b: collections.Counter) -> float:
    """Two-sample chi-square over class counts.

    Engine-vs-reference comparisons have sampling noise on *both*
    sides; the one-sample ``chi_square_p`` (which treats its second
    argument as an exact expectation) would double-count that variance
    and trip on healthy runs.
    """
    classes = sorted(set(a) | set(b))
    table = np.array([[a.get(c, 0) for c in classes],
                      [b.get(c, 0) for c in classes]])
    return float(scipy_stats.chi2_contingency(table).pvalue)


def valued_records(n: int, start: int = 0) -> list[Record]:
    """Records whose value (= weight class) cycles through 1..10."""
    return [Record(key=i, value=float(i % N_CLASSES) + 1.0,
                   timestamp=float(i))
            for i in range(start, start + n)]


def law_config(law, law_params=(), *, capacity=100, buffer_capacity=10,
               **kwargs):
    kwargs.setdefault("beta_records", 4)
    kwargs.setdefault("retain_records", True)
    return GeometricFileConfig(
        capacity=capacity, buffer_capacity=buffer_capacity,
        record_size=40, law=law, law_params=law_params, **kwargs)


def law_file(law, law_params=(), *, seed=0, device="memory",
             weight_fn=None, **kwargs) -> GeometricFile:
    config = law_config(law, law_params, **kwargs)
    blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
    if device == "memory":
        dev = MemoryBlockDevice(blocks, TEST_BLOCK)
    else:
        dev = SimulatedBlockDevice(blocks, small_disk_params())
    return GeometricFile(dev, config, seed=seed, weight_fn=weight_fn)


# -- construction and config validation --------------------------------------


class TestMakeLaw:
    def test_names(self):
        assert isinstance(make_law("uniform"), UniformLaw)
        assert isinstance(make_law("aexpj"), AExpJLaw)
        assert isinstance(make_law("wr"), WeightedReplacementLaw)
        law = make_law("window", (("window", 500), ("sample_size", 25)))
        assert isinstance(law, SlidingWindowLaw)
        assert law.window == 500
        assert law.sample_size_for(100) == 25

    def test_unknown_law(self):
        with pytest.raises(ValueError, match="unknown sampling law"):
            make_law("priority")

    def test_window_requires_window_param(self):
        with pytest.raises(ValueError, match="'window', W"):
            make_law("window")

    def test_weight_specs(self):
        record = Record(key=1, value=3.0, timestamp=10.0)
        assert make_law("aexpj").weight_fn(record) == 1.0
        valued = make_law("aexpj", (("weight", "value"),))
        assert valued.weight_fn(record) == pytest.approx(3.0)
        recency = make_law("aexpj", (("weight", "recency"),
                                     ("half_life", 10.0)))
        assert recency.weight_fn(record) == pytest.approx(2.0)

    def test_recency_needs_half_life(self):
        with pytest.raises(ValueError, match="half_life"):
            make_law("aexpj", (("weight", "recency"),))

    def test_unknown_weight_spec(self):
        with pytest.raises(ValueError, match="unknown weight spec"):
            make_law("aexpj", (("weight", "sqrt"),))

    def test_explicit_weight_fn_wins(self):
        law = make_law("aexpj", (("weight", "value"),),
                       weight_fn=uniform_weight)
        assert law.weight_fn is uniform_weight

    def test_config_validates_law_name(self):
        with pytest.raises(ValueError, match="unknown sampling law"):
            law_config("priority")

    def test_non_uniform_law_requires_retention(self):
        with pytest.raises(ValueError, match="retain_records"):
            law_config("aexpj", retain_records=False)

    def test_window_sample_size_must_fit_budget(self):
        with pytest.raises(ValueError, match="candidate budget"):
            law_file("window", (("window", 500), ("sample_size", 150)),
                     capacity=100)

    def test_window_sample_size_must_fit_window(self):
        with pytest.raises(ValueError, match="exceeds the window"):
            law_file("window", (("window", 10), ("sample_size", 25)),
                     capacity=100)

    def test_law_params_survive_config_round_trip(self):
        from dataclasses import asdict

        config = law_config("window", (("window", 500),
                                       ("sample_size", 25)))
        rebuilt = GeometricFileConfig(**asdict(config))
        assert rebuilt.law == "window"
        assert dict(rebuilt.law_params) == {"window": 500,
                                            "sample_size": 25}


# -- uniform twin parity ------------------------------------------------------


class TestUniformTwinParity:
    """law='uniform' must be bit-exact with the default config."""

    @pytest.mark.parametrize("device", ["memory", "sim"])
    def test_single_file_twins(self, device):
        records = valued_records(4000)
        twins = []
        for law_kw in ({}, {"law": "uniform"}):
            config = GeometricFileConfig(
                capacity=300, buffer_capacity=30, record_size=40,
                beta_records=4, retain_records=True, **law_kw)
            blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
            dev = (MemoryBlockDevice(blocks, TEST_BLOCK)
                   if device == "memory"
                   else SimulatedBlockDevice(blocks, small_disk_params()))
            gf = GeometricFile(dev, config, seed=11)
            gf.offer_many(records[:2500])
            for record in records[2500:3000]:
                gf.offer(record)
            gf.offer_many(records[3000:])
            twins.append(gf)
        a, b = twins
        assert [r.key for r in a.sample()] == [r.key for r in b.sample()]
        assert a.device.stats() == b.device.stats()
        assert a._clock() == b._clock()
        assert a.flushes == b.flushes

    def test_weighted_gate_configuration_twins(self):
        """The file and stream the weighted-ingest gate in
        ``benchmarks/perf_smoke.py`` times: 60k records in 2000-record
        batches into a 2000-record file at 50 B records."""
        values = np.random.default_rng(0).uniform(0.0, 1000.0, size=60_000)
        records = [Record(key=i, value=float(v), timestamp=float(i))
                   for i, v in enumerate(values)]
        twins = []
        for law_kw in ({}, {"law": "uniform"}):
            config = GeometricFileConfig(
                capacity=2000, buffer_capacity=200, record_size=50,
                retain_records=True, **law_kw)
            blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
            gf = GeometricFile(
                SimulatedBlockDevice(blocks, small_disk_params()), config,
                seed=0)
            for start in range(0, 60_000, 2000):
                gf.offer_many(records[start:start + 2000])
            twins.append(gf)
        a, b = twins
        assert [r.key for r in a.sample()] == [r.key for r in b.sample()]
        assert a.device.stats() == b.device.stats()
        assert a._clock() == b._clock()

    def test_multi_file_twins(self):
        records = valued_records(5000)
        twins = []
        for law_kw in ({}, {"law": "uniform"}):
            config = MultiFileConfig(
                capacity=400, buffer_capacity=25, record_size=40,
                beta_records=4, retain_records=True, **law_kw)
            blocks = MultipleGeometricFiles.required_blocks(
                config, TEST_BLOCK)
            dev = SimulatedBlockDevice(blocks, small_disk_params())
            gf = MultipleGeometricFiles(dev, config, seed=3)
            gf.offer_many(records)
            twins.append(gf)
        a, b = twins
        assert [r.key for r in a.sample()] == [r.key for r in b.sample()]
        assert a.device.stats() == b.device.stats()
        assert a._clock() == b._clock()

    def test_columnar_twins(self):
        records = valued_records(4000)
        twins = []
        for law_kw in ({}, {"law": "uniform"}):
            config = GeometricFileConfig(
                capacity=300, buffer_capacity=30, record_size=40,
                beta_records=4, retain_records=True, **law_kw)
            blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
            dev = SimulatedBlockDevice(blocks, small_disk_params())
            gf = GeometricFile(dev, config, seed=5)
            for start in range(0, 4000, 500):
                gf.offer_batch(records[start:start + 500])
            twins.append(gf)
        a, b = twins
        assert (a.sample_batch().to_bytes() == b.sample_batch().to_bytes())
        assert a.device.stats() == b.device.stats()
        assert a._clock() == b._clock()

    def test_count_only_ingest_twins(self):
        twins = []
        for law_kw in ({}, {"law": "uniform"}):
            config = GeometricFileConfig(
                capacity=300, buffer_capacity=30, record_size=40,
                beta_records=4, retain_records=False,
                admission="uniform", **law_kw)
            blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
            dev = SimulatedBlockDevice(blocks, small_disk_params())
            gf = GeometricFile(dev, config, seed=2)
            gf.ingest(20_000)
            twins.append(gf)
        a, b = twins
        assert a.device.stats() == b.device.stats()
        assert a._clock() == b._clock()
        assert a.flushes == b.flushes


# -- A-ExpJ distributional equivalence ----------------------------------------


class TestAExpJ:
    TRIALS = 120
    STREAM = 400
    CAPACITY = 60

    def _class_counts(self, records) -> collections.Counter:
        return collections.Counter(int(r.value) for r in records)

    def test_matches_reference_by_weight_class(self):
        """Inclusion frequency per weight class: engine vs reference.

        Heavier records must be over-represented identically in both;
        the reference is dense A-Res over the same key kernel, which
        Efraimidis & Spirakis prove draws the same distribution.
        """
        stream = valued_records(self.STREAM)
        engine_counts: collections.Counter = collections.Counter()
        reference_counts: collections.Counter = collections.Counter()
        for trial in range(self.TRIALS):
            gf = law_file("aexpj", (("weight", "value"),),
                          capacity=self.CAPACITY, seed=trial)
            gf.offer_many(stream)
            engine_counts += self._class_counts(gf.sample())
            ref = reference_for("aexpj", capacity=self.CAPACITY,
                                weight_fn=value_proportional(),
                                seed=10_000 + trial)
            ref.offer_many(stream)
            reference_counts += self._class_counts(ref.sample())
        assert sum(engine_counts.values()) == self.TRIALS * self.CAPACITY
        assert two_sample_p(engine_counts, reference_counts) > P_MIN
        # Heavy classes really are favoured (sanity on both sides).
        assert engine_counts[10] > 2 * engine_counts[1]

    def test_sample_is_distinct_and_capped(self):
        gf = law_file("aexpj", (("weight", "value"),), capacity=80)
        gf.offer_many(valued_records(1500))
        sample = gf.sample()
        keys = [r.key for r in sample]
        assert len(keys) == 80
        assert len(set(keys)) == 80
        gf.check_invariants()

    def test_threshold_rises_monotonically(self):
        gf = law_file("aexpj", (("weight", "value"),), capacity=60)
        thresholds = []
        for start in range(0, 1200, 200):
            gf.offer_many(valued_records(200, start))
            thresholds.append(gf._law._log_t)
        assert thresholds == sorted(thresholds)
        assert thresholds[-1] > -math.inf

    def test_scalar_and_batched_admission_agree(self):
        """offer() and offer_many() draw from the same law (KS)."""
        stream = valued_records(self.STREAM)
        scalar_values, batched_values = [], []
        for trial in range(60):
            a = law_file("aexpj", (("weight", "value"),),
                         capacity=self.CAPACITY, seed=trial)
            for record in stream:
                a.offer(record)
            scalar_values.extend(r.value for r in a.sample())
            b = law_file("aexpj", (("weight", "value"),),
                         capacity=self.CAPACITY, seed=5_000 + trial)
            b.offer_many(stream)
            batched_values.extend(r.value for r in b.sample())
        p = scipy_stats.ks_2samp(scalar_values, batched_values).pvalue
        assert p > P_MIN

    @pytest.mark.parametrize("n", [50, 413])
    def test_sample_keyed_gathers_the_best_rows_first(self, monkeypatch, n):
        """The keyed read ranks on the aux keys, during start-up too,
        and gathers only the rows it returns: any prefix is the best
        of the whole sample, and no row is decoded."""
        gf = law_file("aexpj", (("weight", "value"),), capacity=80)
        gf.offer_many(valued_records(n))
        assert gf.buffer.count > 0
        full = gf.sample_batch()

        def refuse(self):
            raise AssertionError("a slab was decoded")

        monkeypatch.setattr(RecordBatch, "__iter__", refuse)
        monkeypatch.setattr(RecordBatch, "to_records", refuse)
        rows, keys = gf._law.sample_keyed(gf, 7)
        every_row, every_key = gf._law.sample_keyed(gf, gf.sample_size)
        assert gf.sample_size == len(every_row) == len(full) == min(n, 80)
        assert np.all(np.diff(every_key) <= 0)
        np.testing.assert_array_equal(every_row.array[:7], rows.array)
        np.testing.assert_array_equal(every_key[:7], keys)
        assert sorted(every_row.keys) == sorted(full.keys)


# -- weighted with-replacement equivalence ------------------------------------


class TestWeightedReplacement:
    TRIALS = 120
    STREAM = 400
    CAPACITY = 60

    def test_matches_reference_by_weight_class(self):
        """Slot-occupancy frequency per weight class vs i.i.d. slots.

        The engine's slots are negatively correlated (victims drawn
        without replacement), but the per-slot marginals are exactly
        ``w_i / W`` on both sides, so class counts must agree.
        """
        stream = valued_records(self.STREAM)
        engine_counts: collections.Counter = collections.Counter()
        reference_counts: collections.Counter = collections.Counter()
        for trial in range(self.TRIALS):
            gf = law_file("wr", (("weight", "value"),),
                          capacity=self.CAPACITY, seed=trial)
            gf.offer_many(stream)
            engine_counts.update(int(r.value) for r in gf.sample())
            ref = reference_for("wr", capacity=self.CAPACITY,
                                weight_fn=value_proportional(),
                                seed=10_000 + trial)
            ref.offer_many(stream)
            reference_counts.update(int(r.value) for r in ref.sample())
        assert sum(engine_counts.values()) == self.TRIALS * self.CAPACITY
        assert two_sample_p(engine_counts, reference_counts) > P_MIN
        assert engine_counts[10] > 2 * engine_counts[1]

    def test_sample_carries_multiplicity(self):
        """With-replacement: one heavy record may fill many slots."""
        heavy = [Record(key=i, value=1.0, timestamp=float(i))
                 for i in range(300)]
        heavy.append(Record(key=999, value=100_000.0, timestamp=300.0))
        gf = law_file("wr", (("weight", "value"),), capacity=40)
        gf.offer_many(heavy)
        keys = [r.key for r in gf.sample()]
        assert len(keys) == 40
        assert keys.count(999) > 5  # ~all slots belong to the outlier
        gf.check_invariants()

    def test_scalar_and_batched_admission_agree(self):
        stream = valued_records(self.STREAM)
        scalar_values, batched_values = [], []
        for trial in range(60):
            a = law_file("wr", (("weight", "value"),),
                         capacity=self.CAPACITY, seed=trial)
            for record in stream:
                a.offer(record)
            scalar_values.extend(r.value for r in a.sample())
            b = law_file("wr", (("weight", "value"),),
                         capacity=self.CAPACITY, seed=5_000 + trial)
            b.offer_many(stream)
            batched_values.extend(r.value for r in b.sample())
        p = scipy_stats.ks_2samp(scalar_values, batched_values).pvalue
        assert p > P_MIN


# -- sliding window equivalence -----------------------------------------------


class TestSlidingWindow:
    TRIALS = 150
    STREAM = 400
    WINDOW = 200
    SAMPLE = 20
    CAPACITY = 100

    def _engine(self, seed):
        return law_file("window", (("window", self.WINDOW),
                                   ("sample_size", self.SAMPLE)),
                        capacity=self.CAPACITY, seed=seed)

    def test_sample_is_in_window_and_sized(self):
        gf = self._engine(0)
        gf.offer_many(keyed_records(self.STREAM))
        sample = gf.sample()
        assert len(sample) == self.SAMPLE
        keys = [r.key for r in sample]
        assert len(set(keys)) == self.SAMPLE
        assert min(keys) >= self.STREAM - self.WINDOW
        gf.check_invariants()

    def test_uniform_over_window(self):
        """Every in-window record equally likely: chi-square vs flat."""
        stream = keyed_records(self.STREAM)
        counts: collections.Counter = collections.Counter()
        for trial in range(self.TRIALS):
            gf = self._engine(trial)
            gf.offer_many(stream)
            for record in gf.sample():
                bucket = (record.key
                          - (self.STREAM - self.WINDOW)) // 20
                counts[int(bucket)] += 1
        n_buckets = self.WINDOW // 20
        expected = {b: self.TRIALS * self.SAMPLE / n_buckets
                    for b in range(n_buckets)}
        assert chi_square_p(counts, expected) > P_MIN

    def test_matches_reference(self):
        """Engine vs the direct uniform-subset reference (chi-square)."""
        stream = keyed_records(self.STREAM)
        engine_counts: collections.Counter = collections.Counter()
        reference_counts: collections.Counter = collections.Counter()
        for trial in range(self.TRIALS):
            gf = self._engine(trial)
            gf.offer_many(stream)
            engine_counts.update(
                r.key // 20 for r in gf.sample())
            ref = reference_for("window", window=self.WINDOW,
                                sample_size=self.SAMPLE,
                                seed=10_000 + trial)
            ref.offer_many(stream)
            reference_counts.update(r.key // 20 for r in ref.sample())
        assert two_sample_p(engine_counts, reference_counts) > P_MIN

    def test_short_stream_returns_everything_up_to_s(self):
        gf = self._engine(1)
        gf.offer_many(keyed_records(12))
        assert sorted(r.key for r in gf.sample()) == list(range(12))

    def test_overflow_events_counted_when_budget_too_small(self):
        """A candidate budget far below s*(1+ln(W/s)) must overflow."""
        gf = law_file("window", (("window", 2000), ("sample_size", 55)),
                      capacity=60, buffer_capacity=10)
        gf.offer_many(keyed_records(4000))
        assert gf._law.overflow_events > 0
        assert gf._stats_extra()["law"]["overflow_events"] > 0

    def test_default_sample_size_is_quarter_capacity(self):
        gf = law_file("window", (("window", 1000),),
                      capacity=self.CAPACITY)
        gf.offer_many(keyed_records(2000))
        assert len(gf.sample()) == self.CAPACITY // 4


# -- slab verbs for the new laws ------------------------------------------------


class TestColumnarLaws:
    @pytest.mark.parametrize("law,params", [
        ("aexpj", (("weight", "value"),)),
        ("wr", (("weight", "value"),)),
        ("window", (("window", 600), ("sample_size", 30))),
    ])
    def test_offer_batch_and_sample_batch(self, law, params):
        gf = law_file(law, params, capacity=100, device="sim")
        records = valued_records(2000)
        for start in range(0, 2000, 250):
            gf.offer_batch(records[start:start + 250])
        batch = gf.sample_batch()
        expected = 30 if law == "window" else 100
        assert len(batch) == expected
        gf.check_invariants()

    def test_columnar_matches_object_distribution(self):
        """A-ExpJ fed slabs and read by ``sample_batch`` agrees by
        weight class with A-ExpJ fed record lists and read by
        ``sample`` (KS)."""
        stream = valued_records(400)
        object_values, columnar_values = [], []
        for trial in range(60):
            a = law_file("aexpj", (("weight", "value"),), capacity=60,
                         seed=trial)
            a.offer_many(stream)
            object_values.extend(r.value for r in a.sample())
            b = law_file("aexpj", (("weight", "value"),), capacity=60,
                         seed=5_000 + trial)
            b.offer_batch(stream)
            columnar_values.extend(b.sample_batch().values.tolist())
        p = scipy_stats.ks_2samp(object_values, columnar_values).pvalue
        assert p > P_MIN


# -- checkpoint round-trips ---------------------------------------------------


_LAW_CASES = [
    ("uniform", ()),
    ("aexpj", (("weight", "value"),)),
    ("wr", (("weight", "value"),)),
    ("window", (("window", 300), ("sample_size", 20))),
]


class TestCheckpointRoundTrip:
    @given(case=st.sampled_from(_LAW_CASES),
           n1=st.integers(30, 400), n2=st.integers(10, 150),
           seed=st.integers(0, 1_000))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_continuation_is_bit_exact(self, case, n1, n2, seed):
        """Save anywhere in the stream (buffer state included), restore,
        continue: samples, law state, and invariants must match the
        uninterrupted original exactly."""
        law, params = case
        gf = law_file(law, params, capacity=80, seed=seed)
        gf.offer_many(valued_records(n1))
        sink = io.StringIO()
        save_geometric_file(gf, sink)
        blocks = gf.device.n_blocks
        restored = load_geometric_file(
            io.StringIO(sink.getvalue()),
            MemoryBlockDevice(blocks, TEST_BLOCK))
        assert restored._law.state_dict() == gf._law.state_dict()
        more = valued_records(n2, start=n1)
        gf.offer_many(more)
        restored.offer_many(more)
        assert ([r.key for r in gf.sample()]
                == [r.key for r in restored.sample()])
        assert restored._law.state_dict() == gf._law.state_dict()
        gf.check_invariants()
        restored.check_invariants()

    def test_buffer_aux_rides_the_checkpoint(self):
        gf = law_file("aexpj", (("weight", "value"),), capacity=80)
        gf.offer_many(valued_records(83))  # startup leaves buffered rows
        assert gf.buffer.count > 0
        before = gf.buffer.aux_view().copy()
        sink = io.StringIO()
        save_geometric_file(gf, sink)
        restored = load_geometric_file(
            io.StringIO(sink.getvalue()),
            MemoryBlockDevice(gf.device.n_blocks, TEST_BLOCK))
        np.testing.assert_array_equal(restored.buffer.aux_view(), before)

    def test_ledger_aux_survives_including_minus_inf(self):
        gf = law_file("aexpj", (("weight", "value"),), capacity=80)
        gf.offer_many(valued_records(400))
        sink = io.StringIO()
        save_geometric_file(gf, sink)
        restored = load_geometric_file(
            io.StringIO(sink.getvalue()),
            MemoryBlockDevice(gf.device.n_blocks, TEST_BLOCK))
        for original, copy in zip(gf.subsamples, restored.subsamples):
            if original.aux is None:
                assert copy.aux is None
            else:
                np.testing.assert_array_equal(copy.aux, original.aux)

    def test_multi_file_law_round_trip(self):
        config = MultiFileConfig(
            capacity=400, buffer_capacity=25, record_size=40,
            beta_records=4, retain_records=True, law="aexpj",
            law_params=(("weight", "value"),))
        blocks = MultipleGeometricFiles.required_blocks(config, TEST_BLOCK)
        gf = MultipleGeometricFiles(
            MemoryBlockDevice(blocks, TEST_BLOCK), config, seed=6)
        gf.offer_many(valued_records(3000))
        sink = io.StringIO()
        save_geometric_file(gf, sink)
        restored = load_geometric_file(
            io.StringIO(sink.getvalue()),
            MemoryBlockDevice(blocks, TEST_BLOCK))
        more = valued_records(500, start=3000)
        gf.offer_many(more)
        restored.offer_many(more)
        assert ([r.key for r in gf.sample()]
                == [r.key for r in restored.sample()])


# -- crash replay through the sharded service ---------------------------------


class TestServiceCrashReplay:
    def test_weighted_shards_recover_through_the_journal(self, tmp_path):
        """A law='aexpj' service killed mid-stream must lose nothing:
        journal replay reconstructs every shard's weighted reservoir
        and the per-shard seen counters reconcile exactly."""
        from repro.service import ShardedReservoir

        config = law_config("aexpj", (("weight", "value"),),
                            capacity=100, buffer_capacity=10,
                            admission="always")
        records = valued_records(1200)
        with ShardedReservoir(tmp_path / "svc", config, shards=4,
                              pool="inline", seed=0,
                              checkpoint_batches=2) as service:
            batches = [records[i:i + 40] for i in range(0, 1200, 40)]
            for i, batch in enumerate(batches):
                if i == 10:
                    service.kill_shard(1)
                if i == 20:
                    service.kill_shard(3, hard=True)
                service.offer_batch(batch)
            assert service.stats().seen == 1200
            assert service.recoveries == 2
            assert sum(s.seen for s in service.shard_stats()) == 1200
            merged = service.sample(50)
            assert len(merged) == 50
            assert all(r.key < 1200 for r in merged)


# -- ManagedSample integration ------------------------------------------------


class TestManagedLaws:
    def test_plain_kind_accepts_weight_fn(self, tmp_path):
        def device_factory():
            config = law_config("aexpj", capacity=80)
            blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
            return MemoryBlockDevice(blocks, TEST_BLOCK)

        managed = ManagedSample(
            tmp_path / "aexpj.json", device_factory,
            law_config("aexpj", capacity=80), kind="geometric",
            weight_fn=value_proportional(), checkpoint_every=5)
        managed.offer_many(valued_records(600))
        assert len(managed.sample()) == 80
        managed.close()
        # Restore re-supplies the callable; the law state continues.
        reopened = ManagedSample.restore(
            tmp_path / "aexpj.json", device_factory, kind="geometric",
            weight_fn=value_proportional())
        assert reopened.structure._law.state_dict() == \
            managed.structure._law.state_dict()

    def test_named_spec_restores_without_weight_fn(self, tmp_path):
        def device_factory():
            config = law_config("aexpj", (("weight", "value"),),
                                capacity=80)
            blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
            return MemoryBlockDevice(blocks, TEST_BLOCK)

        managed = ManagedSample(
            tmp_path / "v.json", device_factory,
            law_config("aexpj", (("weight", "value"),), capacity=80),
            kind="geometric", checkpoint_every=0)
        managed.offer_many(valued_records(600))
        managed.close()
        reopened = ManagedSample.restore(tmp_path / "v.json",
                                         device_factory, kind="geometric")
        assert reopened.stats().seen == 600


# -- guards on uniform-only paths ---------------------------------------------


class TestLawGuards:
    def test_count_only_ingest_rejected(self):
        gf = law_file("aexpj", (("weight", "value"),))
        with pytest.raises(TypeError, match="count-only"):
            gf.ingest(100)

    def test_feed_stream_rejected(self):
        gf = law_file("aexpj", (("weight", "value"),),
                      admission="uniform")
        with pytest.raises(ValueError, match="uniform N/i law"):
            feed_stream(keyed_records(100), gf)

    def test_aqp_cache_rejected(self):
        gf = law_file("aexpj", (("weight", "value"),))
        with pytest.raises(TypeError, match="uniform"):
            gf.enable_aqp_cache()

    def test_biased_structures_require_uniform_law(self):
        from repro.core.biased_file import BiasedGeometricFile

        config = law_config("aexpj", capacity=100)
        with pytest.raises(ValueError, match="law='uniform'"):
            BiasedGeometricFile(
                MemoryBlockDevice(10, TEST_BLOCK), config,
                value_proportional())

    def test_weight_fn_must_be_positive(self):
        gf = law_file("aexpj", weight_fn=lambda r: 0.0)
        with pytest.raises(ValueError, match="positive"):
            gf.offer(Record(key=0, value=1.0, timestamp=0.0))


# -- the exp-jump key kernel --------------------------------------------------


class TestExpJumpKeys:
    def test_shapes_and_range(self):
        rng = np.random.default_rng(0)
        keys = exp_jump_keys(np.full(1000, 2.0), rng)
        assert keys.shape == (1000,)
        assert np.all(keys <= 0.0)
        assert np.all(np.isfinite(keys))

    def test_consumes_exactly_n_uniforms(self):
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        exp_jump_keys(np.ones(50), a)
        b.random(50)
        assert a.bit_generator.state == b.bit_generator.state

    def test_key_distribution(self):
        """exp(key * w) recovers u ~ Uniform(0, 1] for any weight."""
        rng = np.random.default_rng(1)
        w = np.repeat([0.5, 1.0, 4.0], 4000)
        u = np.exp(exp_jump_keys(w, rng) * w)
        assert scipy_stats.kstest(u, "uniform").pvalue > P_MIN

    def test_heavier_weights_draw_larger_keys(self):
        rng = np.random.default_rng(2)
        light = exp_jump_keys(np.full(4000, 1.0), rng)
        heavy = exp_jump_keys(np.full(4000, 10.0), rng)
        assert heavy.mean() > light.mean()

    def test_rejects_bad_weights(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            exp_jump_keys(np.array([1.0, 0.0]), rng)
        with pytest.raises(ValueError):
            exp_jump_keys(np.ones((2, 2)), rng)

    def test_empty(self):
        rng = np.random.default_rng(0)
        assert exp_jump_keys(np.empty(0), rng).shape == (0,)


# -- aux-column machinery -----------------------------------------------------

SCHEMA = RecordSchema(40)


class TestBufferAux:
    def _buffer(self, capacity=10, aux_width=1):
        return SampleBuffer(capacity, random.Random(0), schema=SCHEMA,
                            aux_width=aux_width)

    def test_append_requires_matching_aux(self):
        buffer = self._buffer()
        record = Record(key=0, value=1.0, timestamp=0.0)
        with pytest.raises(TypeError):
            buffer.append(record)  # aux-carrying buffer, no aux row
        plain = SampleBuffer(4, random.Random(0), schema=SCHEMA)
        with pytest.raises(TypeError):
            plain.append(record, aux=(1.0,))  # aux row, no aux buffer

    def test_aux_requires_retention(self):
        with pytest.raises(ValueError, match="retention"):
            SampleBuffer(4, random.Random(0), aux_width=1)

    def test_uniform_verbs_refuse_aux_buffers(self):
        """The uniform law's verbs carry no aux rows: an aux-carrying
        buffer refuses them (a replacement that carries its aux row is
        the biased files' verb)."""
        buffer = self._buffer()
        record = Record(key=0, value=1.0, timestamp=0.0)
        batch = RecordBatch.from_records(SCHEMA, [record])
        with pytest.raises(TypeError):
            buffer.add_admitted(record, 100)
        with pytest.raises(TypeError):
            buffer.absorb_batch(batch, 100)
        with pytest.raises(TypeError):
            buffer.extend_batch(batch)
        assert buffer.count == 0

    def test_drain_permutes_aux_with_records(self):
        buffer = self._buffer(capacity=8)
        for i in range(8):
            buffer.append(Record(key=i, value=0.0, timestamp=0.0),
                          aux=(float(i) * 10.0,))
        records, count = buffer.drain()
        aux = buffer.take_aux()
        assert count == 8
        assert aux.shape == (8, 1)
        assert [r.key * 10.0 for r in records] == aux[:, 0].tolist()

    def test_take_aux_is_one_shot(self):
        buffer = self._buffer(capacity=2)
        buffer.append(Record(key=0, value=0.0, timestamp=0.0),
                      aux=(1.0,))
        buffer.drain()
        buffer.take_aux()
        with pytest.raises(ValueError):
            buffer.take_aux()

    def test_take_aux_none_for_plain_buffers(self):
        plain = SampleBuffer(4, random.Random(0), schema=SCHEMA)
        plain.append(Record(key=0, value=0.0, timestamp=0.0))
        plain.drain()
        assert plain.take_aux() is None

    def test_replace_swaps_record_keeps_capacity(self):
        plain = SampleBuffer(4, random.Random(0), schema=SCHEMA)
        for i in range(3):
            plain.append(Record(key=i, value=0.0, timestamp=0.0))
        plain.replace(1, Record(key=99, value=0.0, timestamp=0.0))
        assert [r.key for r in plain] == [0, 99, 2]
        with pytest.raises(IndexError):
            plain.replace(3, Record(key=0, value=0.0, timestamp=0.0))


class TestEvictIndices:
    def _flushed_file(self):
        gf = law_file("uniform", capacity=100, buffer_capacity=10)
        gf.offer_many(keyed_records(400))
        return gf

    def test_targeted_eviction_preserves_invariants(self):
        gf = self._flushed_file()
        ledger = next(l for l in gf.subsamples
                      if l.records is not None and l.live >= 3)
        doomed = [ledger.records[0].key, ledger.records[2].key]
        live_before = ledger.live
        ledger.evict_indices(np.array([0, 2]))
        assert ledger.live == live_before - 2
        assert all(r.key not in doomed for r in ledger.records)
        ledger.check_invariant()

    def test_rejects_bad_victim_sets(self):
        gf = self._flushed_file()
        ledger = next(l for l in gf.subsamples
                      if l.records is not None and l.live >= 3)
        with pytest.raises(ValueError):
            ledger.evict_indices(np.array([0, 0]))  # duplicates
        with pytest.raises(ValueError):
            ledger.evict_indices(np.arange(ledger.live + 1))  # too many

    def test_empty_eviction_is_a_no_op(self):
        gf = self._flushed_file()
        ledger = gf.subsamples[0]
        live = ledger.live
        ledger.evict_indices(np.empty(0, dtype=np.int64))
        assert ledger.live == live


# -- stats surface ------------------------------------------------------------


class TestLawStats:
    def test_uniform_law_adds_no_extra(self):
        gf = law_file("uniform")
        assert "law" not in gf._stats_extra()

    @pytest.mark.parametrize("law,params,field", [
        ("aexpj", (("weight", "value"),), "log_threshold"),
        ("wr", (("weight", "value"),), "total_weight"),
        ("window", (("window", 400), ("sample_size", 20)),
         "overflow_events"),
    ])
    def test_law_counters_surface(self, law, params, field):
        gf = law_file(law, params)
        gf.offer_many(valued_records(600))
        extra = gf._stats_extra()["law"]
        assert extra["name"] == law
        assert field in extra
