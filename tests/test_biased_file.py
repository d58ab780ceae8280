"""Tests for biased sampling with the geometric file (Section 7.3)."""

import collections
import math

import pytest

from conftest import TEST_BLOCK, small_disk_params
from repro.core.biased_file import BiasedGeometricFile
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.estimate import horvitz_thompson_count, horvitz_thompson_sum
from repro.sampling.weights import exponential_recency, uniform_weight
from repro.storage.device import SimulatedBlockDevice
from repro.storage.recordbatch import RecordBatch
from repro.storage.records import Record


def make_biased(capacity=500, buffer_capacity=50, weight_fn=uniform_weight,
                seed=0, record_size=40, cls=BiasedGeometricFile):
    config = GeometricFileConfig(
        capacity=capacity, buffer_capacity=buffer_capacity,
        record_size=record_size, retain_records=True,
        beta_records=max(4, buffer_capacity // 10),
    )
    blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
    device = SimulatedBlockDevice(blocks, small_disk_params())
    return cls(device, config, weight_fn, seed=seed)


def feed(bf, n, start=0):
    for i in range(start, start + n):
        bf.offer(Record(key=i, value=1.0, timestamp=float(i)))


class TestConstruction:
    def test_requires_record_retention(self):
        config = GeometricFileConfig(capacity=500, buffer_capacity=50,
                                     record_size=40, retain_records=False)
        device = SimulatedBlockDevice(1000, small_disk_params())
        with pytest.raises(ValueError):
            BiasedGeometricFile(device, config)

    def test_count_only_ingest_rejected(self):
        bf = make_biased()
        with pytest.raises(TypeError):
            bf.ingest(100)

    def test_nonpositive_weight_rejected(self):
        bf = make_biased(weight_fn=lambda r: -1.0)
        with pytest.raises(ValueError):
            bf.offer(Record(key=0))


class TestUniformDegenerate:
    def test_behaves_like_unbiased_file(self):
        bf = make_biased(capacity=500, buffer_capacity=50)
        feed(bf, 3000)
        bf.check_invariants()
        keys = [r.key for r, _ in bf.items()]
        assert len(keys) == 500
        assert len(set(keys)) == 500
        assert bf.total_weight == pytest.approx(3000.0)

    def test_all_true_weights_equal_one_after_startup(self):
        bf = make_biased(capacity=500, buffer_capacity=50)
        feed(bf, 3000)
        post_startup = [w for r, w in bf.items() if r.key >= 500]
        assert post_startup
        assert all(w == pytest.approx(1.0) for w in post_startup)

    def test_startup_records_carry_mean_weight(self):
        bf = make_biased(capacity=500, buffer_capacity=50)
        feed(bf, 500)  # exactly the startup
        for _record, weight in bf.items():
            assert weight == pytest.approx(1.0)
        assert bf.total_weight == pytest.approx(500.0)


class TestBias:
    def test_inclusion_proportional_to_weight(self):
        """Definition 1 at the whole-structure level."""
        def weight_fn(record):
            return 3.0 if record.key % 2 == 0 else 1.0

        trials, capacity, stream = 150, 100, 1000
        counts = collections.Counter()
        for t in range(trials):
            bf = make_biased(capacity=capacity, buffer_capacity=20,
                             weight_fn=weight_fn, seed=3000 + t)
            feed(bf, stream)
            counts.update(r.key for r, _ in bf.items())
        # Restrict to post-startup keys, whose true weight is exact.
        heavy = [counts[k] for k in range(200, stream, 2)]
        light = [counts[k] for k in range(201, stream, 2)]
        ratio = (sum(heavy) / len(heavy)) / (sum(light) / len(light))
        assert ratio == pytest.approx(3.0, rel=0.2)

    def test_recency_bias(self):
        bf = make_biased(capacity=200, buffer_capacity=20,
                         weight_fn=exponential_recency(half_life=500.0))
        feed(bf, 5000)
        mean_key = sum(r.key for r, _ in bf.items()) / 200
        assert mean_key > 3200  # uniform would give ~2500

    def test_overflow_event_fires_and_preserves_size(self):
        def weight_fn(record):
            return 10 ** 5 if record.key == 700 else 1.0

        bf = make_biased(capacity=500, buffer_capacity=50,
                         weight_fn=weight_fn)
        feed(bf, 2000)
        bf.check_invariants()
        assert bf.overflow_events >= 1
        assert len(list(bf.items())) == 500

    def test_huge_record_admitted_with_certainty(self):
        def weight_fn(record):
            return 10 ** 8 if record.key == 600 else 1.0

        hits = 0
        for seed in range(10):
            bf = make_biased(capacity=500, buffer_capacity=50,
                             weight_fn=weight_fn, seed=seed)
            feed(bf, 650)
            if 600 in {r.key for r, _ in bf.items()} | {
                r.key for r in bf.buffer
            }:
                hits += 1
        assert hits == 10


class LoopScaledFile(BiasedGeometricFile):
    """Section 7.3.2's step (1) as the literal loop over every ``M_j``."""

    def _scale_all_weights(self, factor, new_weight):
        multipliers = self.multipliers
        super()._scale_all_weights(factor, new_weight)
        for ident in multipliers:
            multipliers[ident] *= factor
        self.multipliers = multipliers


class TestOverflowScale:
    def test_shared_scale_matches_the_literal_loop(self):
        """Algorithm 4 never reads ``M_j``, so both files admit the
        same records; their true weights agree to rounding."""
        files = [make_biased(capacity=500, buffer_capacity=50,
                             weight_fn=exponential_recency(100.0), seed=3,
                             cls=cls)
                 for cls in (BiasedGeometricFile, LoopScaledFile)]
        for bf in files:
            feed(bf, 3000)
        scaled, looped = files
        assert scaled.overflow_events == looped.overflow_events >= 1000
        got, want = list(scaled.items()), list(looped.items())
        assert [r.key for r, _ in got] == [r.key for r, _ in want]
        for (_, weight), (_, expected) in zip(got, want):
            assert weight == pytest.approx(expected, rel=1e-12)


class TestTrueWeights:
    def test_lemma_3_inclusion_probabilities_sum_to_capacity(self):
        """sum over residents of Pr[r in R] cannot exceed... but the
        sum over the *stream* of |R| w / totalWeight equals |R|; check
        resident probabilities are valid and the HT identity holds."""
        bf = make_biased(capacity=300, buffer_capacity=30)
        feed(bf, 2000)
        for _record, weight in bf.items():
            p = bf.inclusion_probability(weight)
            assert 0.0 < p <= 1.0

    def test_ht_count_is_unbiased(self):
        """Estimate the stream length from the biased sample."""
        def weight_fn(record):
            return math.exp(record.timestamp / 1000.0)

        estimates = []
        for seed in range(25):
            bf = make_biased(capacity=300, buffer_capacity=30,
                             weight_fn=weight_fn, seed=seed)
            feed(bf, 3000)
            est = horvitz_thompson_count(
                bf.items(), bf.total_weight, bf.capacity,
                predicate=lambda r: True,
            )
            estimates.append(est.value)
        mean = sum(estimates) / len(estimates)
        assert mean == pytest.approx(3000, rel=0.1)

    def test_ht_sum_with_predicate(self):
        bf = make_biased(capacity=400, buffer_capacity=40,
                         weight_fn=exponential_recency(half_life=2000.0),
                         seed=9)
        feed(bf, 4000)
        est = horvitz_thompson_sum(
            bf.items(), bf.total_weight, bf.capacity,
            value=lambda r: 1.0,
            predicate=lambda r: r.key < 2000,
        )
        assert est.value == pytest.approx(2000, rel=0.45)

    def test_multipliers_dropped_with_dead_subsamples(self):
        bf = make_biased(capacity=300, buffer_capacity=30)
        feed(bf, 10000)
        alive = {ledger.ident for ledger in bf.subsamples}
        assert set(bf.multipliers) == alive


class TestOfferBatch:
    @pytest.mark.parametrize("multi", [False, True])
    def test_record_batch_takes_the_weighted_path(self, multi):
        """A ``RecordBatch`` runs Algorithm 4, exactly as ``offer_many``
        of its records does (the inherited slab gate would draw the
        uniform admission mask)."""
        def weight(record):
            return 1.0 + record.key % 7

        make = TestBiasedMultiFile.make_biased_multi if multi else make_biased
        direct, batched = make(weight_fn=weight, seed=3), make(
            weight_fn=weight, seed=3)
        records = [Record(key=i, value=1.0, timestamp=float(i))
                   for i in range(3_000)]
        admitted = sum(
            batched.offer_batch(RecordBatch.from_records(
                batched.schema, records[i:i + 256]))
            for i in range(0, len(records), 256))
        assert admitted == direct.offer_many(records)
        assert batched.total_weight == direct.total_weight
        assert batched.stats().as_dict() == direct.stats().as_dict()
        assert batched.sample() == direct.sample()
        batched.check_invariants()


class TestBiasedMultiFile:
    """Sections 6 + 7 composed."""

    @staticmethod
    def make_biased_multi(weight_fn=uniform_weight, seed=0):
        from repro.core.biased_file import BiasedMultipleGeometricFiles
        from repro.core.multi import MultiFileConfig

        config = MultiFileConfig(
            capacity=500, buffer_capacity=50, record_size=40,
            retain_records=True, beta_records=5, alpha_prime=0.6,
        )
        blocks = BiasedMultipleGeometricFiles.required_blocks(
            config, TEST_BLOCK
        )
        device = SimulatedBlockDevice(blocks, small_disk_params())
        return BiasedMultipleGeometricFiles(device, config, weight_fn,
                                            seed=seed)

    def test_basic_operation_and_invariants(self):
        bf = self.make_biased_multi()
        feed(bf, 3000)
        bf.check_invariants()
        items = list(bf.items())
        keys = [r.key for r, _ in items]
        assert len(keys) == 500
        assert len(set(keys)) == 500
        assert bf.total_weight == pytest.approx(3000.0)

    def test_recency_bias_through_striping(self):
        bf = self.make_biased_multi(exponential_recency(half_life=400.0))
        feed(bf, 4000)
        bf.check_invariants()
        mean_key = sum(r.key for r, _ in bf.items()) / 500
        assert mean_key > 2800  # uniform would give ~2000

    def test_ht_count_unbiased(self):
        estimates = []
        for seed in range(15):
            bf = self.make_biased_multi(
                exponential_recency(half_life=800.0), seed=seed
            )
            feed(bf, 2500)
            est = horvitz_thompson_count(
                bf.items(), bf.total_weight, bf.capacity,
                predicate=lambda r: True,
            )
            estimates.append(est.value)
        mean = sum(estimates) / len(estimates)
        assert mean == pytest.approx(2500, rel=0.15)

    def test_count_only_rejected(self):
        bf = self.make_biased_multi()
        with pytest.raises(TypeError):
            bf.ingest(10)

    def test_requires_record_retention(self):
        from repro.core.biased_file import BiasedMultipleGeometricFiles
        from repro.core.multi import MultiFileConfig

        config = MultiFileConfig(capacity=500, buffer_capacity=50,
                                 record_size=40, retain_records=False,
                                 alpha_prime=0.6)
        device = SimulatedBlockDevice(10_000, small_disk_params())
        with pytest.raises(ValueError):
            BiasedMultipleGeometricFiles(device, config)
