"""Tier-1 tests for the sharded sampling service (inline pool).

Everything here runs the real :class:`~repro.service.worker.ShardWorker`
state machine -- partitioning, journaling, checkpoint acks, crash
recovery, merged queries -- through the deterministic single-process
:class:`~repro.service.pool.InlinePool`.  Real-multiprocessing coverage
of the identical protocol lives in ``test_service_mp.py`` behind the
``service`` marker.

The two chi-square tests are the subsystem's acceptance bar: a merged
``sample(k)`` over 4 shards must be indistinguishable from uniform
sampling of the concatenated stream, both when shards retain their
whole partition (isolating the hypergeometric merge) and when eviction
is active end to end (the full pipeline, compared head-to-head against
a single-reservoir service over the same stream).
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from conftest import keyed_records
from repro.core.geometric_file import GeometricFileConfig
from repro.obs import MetricsRegistry, TraceSink, aggregate_stats, stats_from_dict
from repro.service import (
    HashPartitioner,
    RoundRobinPartitioner,
    ShardedReservoir,
    allocate_counts,
    make_partitioner,
    merge_shard_samples,
    mix64,
)
from test_batch_ingest import P_MIN, chi_square_p


def service_config(capacity=200, buffer_capacity=20, record_size=32,
                   **kwargs):
    kwargs.setdefault("beta_records", 4)
    kwargs.setdefault("retain_records", True)
    kwargs.setdefault("admission", "uniform")
    return GeometricFileConfig(
        capacity=capacity, buffer_capacity=buffer_capacity,
        record_size=record_size, **kwargs)


def make_service(root, *, shards=4, seed=0, **kwargs):
    kwargs.setdefault("config", service_config())
    config = kwargs.pop("config")
    return ShardedReservoir(root, config, shards=shards, pool="inline",
                            seed=seed, **kwargs)


# -- partitioning ------------------------------------------------------------


class TestPartitioners:
    def test_hash_partition_is_deterministic_and_complete(self):
        records = keyed_records(500)
        partitioner = HashPartitioner(4)
        parts = partitioner.split(records)
        assert len(parts) == 4
        assert sorted(r.key for part in parts for r in part) == list(
            range(500))
        again = HashPartitioner(4).split(records)
        assert [[r.key for r in p] for p in parts] == [
            [r.key for r in p] for p in again]

    def test_hash_partition_spreads_keys(self):
        parts = HashPartitioner(4).split(keyed_records(2000))
        sizes = [len(p) for p in parts]
        assert min(sizes) > 300  # far from degenerate at fixed keys

    def test_hash_partition_routes_none_round_robin(self):
        parts = HashPartitioner(4).split([None] * 10)
        assert [len(p) for p in parts] == [3, 3, 2, 2]

    def test_round_robin_balances_within_one(self):
        partitioner = RoundRobinPartitioner(3)
        parts = partitioner.split(keyed_records(10))
        sizes = [len(p) for p in parts]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        # The rotation carries across calls.
        more = partitioner.split(keyed_records(2))
        total = [a + len(b) for a, b in zip(sizes, more)]
        assert max(total) - min(total) <= 1

    def test_split_count_sums(self):
        partitioner = make_partitioner("round-robin", 4)
        assert sum(partitioner.split_count(1003)) == 1003

    def test_mix64_is_a_bijection_sample(self):
        values = {mix64(i) for i in range(10_000)}
        assert len(values) == 10_000

    def test_mix64_array_matches_scalar(self):
        from repro.service.partition import mix64_array

        keys = [0, 1, -1, 2 ** 63 - 1, -2 ** 63, 0xDEADBEEF, 42]
        vectorised = mix64_array(np.array(keys, dtype=np.int64))
        assert vectorised.tolist() == [mix64(k) for k in keys]

    def test_split_batch_matches_split_hash(self):
        """Columnar and list hash routing are record-for-record equal."""
        from repro.storage.recordbatch import RecordBatch
        from repro.storage.records import RecordSchema

        records = keyed_records(500)
        batch = RecordBatch.from_records(RecordSchema(32), records)
        list_parts = HashPartitioner(4).split(records)
        batch_parts = HashPartitioner(4).split_batch(batch)
        assert [[r.key for r in part] for part in list_parts] == [
            part.keys.tolist() for part in batch_parts]

    def test_split_batch_matches_split_round_robin(self):
        """Including the rotation counter carrying across calls."""
        from repro.storage.recordbatch import RecordBatch
        from repro.storage.records import RecordSchema

        schema = RecordSchema(32)
        by_list = RoundRobinPartitioner(3)
        by_batch = RoundRobinPartitioner(3)
        for n in (7, 10, 1, 5):
            records = keyed_records(n)
            list_parts = by_list.split(records)
            batch_parts = by_batch.split_batch(
                RecordBatch.from_records(schema, records))
            assert [[r.key for r in part] for part in list_parts] == [
                part.keys.tolist() for part in batch_parts]
        assert by_list._next == by_batch._next

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            make_partitioner("modulo", 4)


# -- merge machinery ---------------------------------------------------------


class TestMerge:
    def test_allocate_counts_sums_to_k(self):
        rng = np.random.default_rng(0)
        for k in (0, 1, 37, 100):
            counts = allocate_counts(rng, [250, 100, 400, 250], k)
            assert sum(counts) == k
            assert all(c >= 0 for c in counts)

    def test_allocate_counts_rejects_overdraw(self):
        with pytest.raises(ValueError):
            allocate_counts(np.random.default_rng(0), [5, 5], 11)

    def test_allocation_follows_seen_proportions(self):
        rng = np.random.default_rng(1)
        totals = [0, 0]
        for _ in range(200):
            a, b = allocate_counts(rng, [300, 100], 40)
            totals[0] += a
            totals[1] += b
        # E[a] = 30 per draw; a loose 3-sigma band at fixed seed.
        assert abs(totals[0] - 6000) < 300

    def test_merge_rejects_short_shard(self):
        payloads = [
            {"seen": 1000, "size": 3,
             "records": keyed_records(3)},
            {"seen": 10, "size": 10, "records": keyed_records(10)},
        ]
        with pytest.raises(ValueError, match="smallest shard reservoir"):
            merge_shard_samples(np.random.default_rng(0), payloads, 8)


# -- ingest / stats round trip ----------------------------------------------


class TestRoundTrip:
    def test_seen_matches_offered(self, tmp_path):
        with make_service(tmp_path / "svc") as service:
            records = keyed_records(1200)
            for start in range(0, 1200, 100):
                service.offer_batch(records[start:start + 100])
            stats = service.stats()
            assert stats.seen == 1200
            assert stats.extra["shards"] == 4
            assert sum(stats.extra["seen_per_shard"]) == 1200
            assert stats.capacity == service.capacity == 800

    def test_per_shard_seen_matches_partitioner(self, tmp_path):
        records = keyed_records(900)
        expected = [len(p) for p in HashPartitioner(4).split(records)]
        with make_service(tmp_path / "svc") as service:
            service.offer_batch(records)
            assert [s.seen for s in service.shard_stats()] == expected

    def test_count_only_ingest(self, tmp_path):
        config = service_config(retain_records=False)
        with make_service(tmp_path / "svc", config=config) as service:
            service.ingest(4000)
            assert service.stats().seen == 4000

    def test_sample_has_k_distinct_offered_keys(self, tmp_path):
        with make_service(tmp_path / "svc") as service:
            service.offer_batch(keyed_records(600))
            sample = service.sample(64)
            keys = [r.key for r in sample]
            assert len(keys) == 64
            assert len(set(keys)) == 64
            assert all(0 <= key < 600 for key in keys)
            assert service.sample(0) == []

    def test_use_after_close_raises(self, tmp_path):
        service = make_service(tmp_path / "svc")
        service.close()
        service.close()  # idempotent
        with pytest.raises(RuntimeError):
            service.offer_batch(keyed_records(2))
        with pytest.raises(RuntimeError):
            service.stats()

    def test_schema_mismatched_batch_rejected_before_journal(
            self, tmp_path):
        """A batch the shards could not apply must be refused up front.

        Journaling it first would poison crash recovery (replay
        re-sends it forever); and on the shm transport the slab codec
        would silently misdecode a resized layout.  So ``offer_batch``
        validates the schema before the hot cache, the journal, or any
        pool sees the batch.
        """
        from repro.storage.recordbatch import RecordBatch
        from repro.storage.records import RecordSchema

        with make_service(tmp_path / "svc") as service:
            wider = RecordBatch.from_records(RecordSchema(40),
                                             keyed_records(10))
            with pytest.raises(ValueError, match="schema"):
                service.offer_batch(wider)
            resized = RecordBatch.from_records(RecordSchema(48),
                                               keyed_records(10))
            with pytest.raises(ValueError, match="schema"):
                service.offer_batch(resized)
            assert service.stats().seen == 0
            assert service.journal_depth == 0
            # The matching schema still flows.
            good = RecordBatch.from_records(RecordSchema(32),
                                            keyed_records(10))
            assert service.offer_batch(good) == 10
            assert service.stats().seen == 10

    def test_overlong_payload_rejected_before_journal(self, tmp_path):
        """A record whose payload overflows its slot is refused before
        the journal sees its batch, for the schema guard's reason: the
        shards would reject it on every replay."""
        from repro.storage.records import Record

        with make_service(tmp_path / "svc") as service:
            service.offer_batch(keyed_records(40))
            depth = service.journal_depth
            width = 32 - 24
            batch = keyed_records(10) + [Record(key=77,
                                                payload=b"x" * (width + 1))]
            with pytest.raises(ValueError,
                               match=f"record 77: its {width + 1}-byte "
                                     f"payload .* {width}-byte"):
                service.offer_batch(batch)
            assert service.journal_depth == depth
            assert service.stats().seen == 40
            assert service.offer_batch(
                [Record(key=78, payload=b"x" * width)]) == 1
            assert service.stats().seen == 41

    def test_invalid_construction(self, tmp_path):
        with pytest.raises(ValueError):
            make_service(tmp_path / "a", shards=0)
        with pytest.raises(ValueError):
            ShardedReservoir(tmp_path / "b", service_config(),
                             pool="threads")
        with pytest.raises(ValueError):
            # Shards must hold uniform samples of their partitions.
            make_service(tmp_path / "c",
                         config=service_config(admission="always"))


# -- uniformity of merged samples (the acceptance bar) -----------------------


class TestMergedUniformity:
    def test_merge_is_uniform_without_eviction(self, tmp_path):
        """4-shard sample(k) is uniform when shards keep everything.

        With 600 records over 4x200 capacity no shard evicts, so each
        reservoir IS its partition and the chi-square isolates the
        hypergeometric allocation plus the workers' uniform subset
        draws -- the merge machinery itself.
        """
        trials, k, n = 200, 60, 600
        counts = collections.Counter()
        with make_service(tmp_path / "svc", seed=11) as service:
            service.offer_batch(keyed_records(n))
            for _ in range(trials):
                for record in service.sample(k):
                    counts[record.key] += 1
        expected = {key: trials * k / n for key in range(n)}
        assert chi_square_p(counts, expected) > P_MIN

    def test_full_pipeline_matches_single_reservoir(self, tmp_path):
        """Sharded sampling with eviction == single-reservoir sampling.

        Per trial, the same 240-record stream runs through a 4-shard
        service (40-record shard reservoirs, eviction active) and a
        single-reservoir service of the same total capacity; one
        merged k-draw from each is tallied per key.  Both tallies must
        be uniform (every stream record equally likely at k/n), and
        homogeneous against each other -- the sharded pipeline is
        statistically indistinguishable from the single reservoir the
        paper maintains.
        """
        trials, k, n = 150, 32, 240
        records = keyed_records(n)
        sharded_counts = collections.Counter()
        single_counts = collections.Counter()
        for trial in range(trials):
            config = service_config(capacity=40, buffer_capacity=8)
            with make_service(tmp_path / f"s4-{trial}", seed=trial,
                              config=config) as service:
                service.offer_batch(records)
                for record in service.sample(k):
                    sharded_counts[record.key] += 1
            config = service_config(capacity=160, buffer_capacity=32)
            with make_service(tmp_path / f"s1-{trial}", shards=1,
                              seed=trial, config=config) as service:
                service.offer_batch(records)
                for record in service.sample(k):
                    single_counts[record.key] += 1
        expected = {key: trials * k / n for key in range(n)}
        assert chi_square_p(sharded_counts, expected) > P_MIN
        assert chi_square_p(single_counts, expected) > P_MIN
        # Two-sample homogeneity: sharded vs single, same categories.
        assert chi_square_p(
            sharded_counts,
            {key: single_counts[key] for key in range(n)}) > P_MIN


# -- AQP over merged samples -------------------------------------------------


class TestEstimates:
    def test_estimate_sum_covers_truth(self, tmp_path):
        n = 800
        config = service_config(capacity=100, buffer_capacity=10)
        with make_service(tmp_path / "svc", seed=3,
                          config=config) as service:
            service.offer_batch(keyed_records(n))
            estimate = service.estimate_sum(80)
            truth = float(sum(range(n)))
            assert estimate.interval(0.99).contains(truth)
            assert estimate.standard_error > 0

    def test_estimate_count_and_avg(self, tmp_path):
        n = 800
        config = service_config(capacity=100, buffer_capacity=10)
        with make_service(tmp_path / "svc", seed=5,
                          config=config) as service:
            service.offer_batch(keyed_records(n))
            count = service.estimate_count(80, lambda r: r.key < 400)
            assert count.interval(0.99).contains(400)
            avg = service.estimate_avg(80, value=lambda r: r.value)
            assert avg.interval(0.99).contains((n - 1) / 2)


# -- durability, journaling, crash recovery ----------------------------------


class TestRecovery:
    def test_journal_prunes_on_checkpoint(self, tmp_path):
        with make_service(tmp_path / "svc",
                          checkpoint_batches=4) as service:
            records = keyed_records(400)
            for start in range(0, 400, 40):
                service.offer_batch(records[start:start + 40])
            # Auto-checkpoints every 4 batches bound the journal.
            assert service.journal_depth <= 4 * service.shards
            service.checkpoint()
            assert service.journal_depth == 0

    def test_kill_respawn_loses_and_duplicates_nothing(self, tmp_path):
        """The acceptance test: crashes cost no records and no dupes.

        Two mid-stream crashes (one mid-protocol, one hard kill), with
        eviction active and checkpoints lagging the stream; afterwards
        the service-level seen, the per-shard seen, the obs counters,
        and the on-disk reservoir contents must all reconcile exactly
        with the 1200 records offered.
        """
        records = keyed_records(1200)
        expected_parts = HashPartitioner(4).split(records)
        config = service_config(capacity=100, buffer_capacity=10)
        registry, trace = MetricsRegistry(), TraceSink()
        with make_service(tmp_path / "svc", config=config,
                          checkpoint_batches=2) as service:
            service.instrument(registry, trace)
            batches = [records[i:i + 40] for i in range(0, 1200, 40)]
            for i, batch in enumerate(batches):
                if i == 10:
                    service.kill_shard(1)
                if i == 20:
                    service.kill_shard(3, hard=True)
                service.offer_batch(batch)
            stats = service.stats()
            assert stats.seen == 1200  # no loss, no double count
            assert [s.seen for s in service.shard_stats()] == [
                len(p) for p in expected_parts]
            assert service.recoveries == 2
            assert stats.extra["recoveries"] == 2
            assert registry.value("events.shard_recovery",
                                  structure=service.name) == 2
            assert trace.counts().get("shard_recovery") == 2
            specs = service.specs
        # Reopen each shard straight from its checkpoint: contents must
        # be a duplicate-free subset of exactly that shard's partition.
        for spec, part in zip(specs, expected_parts):
            managed = spec.restore()
            assert managed.stats().seen == len(part)
            keys = [r.key for r in managed.sample()]
            assert len(keys) == len(set(keys))
            assert set(keys) <= {r.key for r in part}
            assert len(keys) == min(len(part), config.capacity)

    def test_query_after_crash_recovers_first(self, tmp_path):
        with make_service(tmp_path / "svc") as service:
            service.offer_batch(keyed_records(600))
            service.kill_shard(2)
            assert service.stats().seen == 600
            assert service.recoveries == 1
            assert len(service.sample(40)) == 40

    def test_explicit_recover(self, tmp_path):
        with make_service(tmp_path / "svc") as service:
            service.offer_batch(keyed_records(200))
            service.kill_shard(0, hard=True)
            service.kill_shard(1)
            assert service.recover() == 2
            assert service.recover() == 0
            assert service.stats().seen == 200

    def test_reopen_from_root_restores_every_shard(self, tmp_path):
        root = tmp_path / "svc"
        with make_service(root, seed=9) as service:
            service.offer_batch(keyed_records(500))
            before = [s.seen for s in service.shard_stats()]
        with make_service(root, seed=9) as service:
            assert [s.seen for s in service.shard_stats()] == before
            service.offer_batch(keyed_records(100))
            assert service.stats().seen == 600

    def test_kill_bad_shard_id(self, tmp_path):
        with make_service(tmp_path / "svc") as service:
            with pytest.raises(ValueError):
                service.kill_shard(7)


# -- stats aggregation -------------------------------------------------------


class TestAggregation:
    def test_stats_from_dict_round_trip(self, tmp_path):
        with make_service(tmp_path / "svc") as service:
            service.offer_batch(keyed_records(300))
            snapshot = service.shard_stats()[0]
        rebuilt = stats_from_dict(snapshot.as_dict())
        assert rebuilt.seen == snapshot.seen
        assert rebuilt.clock == snapshot.clock
        assert rebuilt.io.seeks == snapshot.io.seeks

    def test_aggregate_clock_is_slowest_shard(self, tmp_path):
        with make_service(tmp_path / "svc") as service:
            service.offer_batch(keyed_records(900))
            shard_stats = service.shard_stats()
            total = service.stats()
        assert total.seen == sum(s.seen for s in shard_stats)
        assert total.clock == max(s.clock for s in shard_stats)
        assert total.io.seeks == sum(s.io.seeks for s in shard_stats)

    def test_aggregate_stats_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_stats([])


class TestScaleOut:
    @staticmethod
    def _drive(root, shards: int) -> ShardedReservoir:
        """The Figure 7(a) smoke reservoir (100k records, 10k buffer)
        split ``shards`` ways and fed 400k count-only records in 4096-row
        batches: each shard owns ``1/shards`` of the reservoir and of
        the stream on its own simulated spindle."""
        config = GeometricFileConfig(
            capacity=100_000 // shards, buffer_capacity=10_000 // shards,
            record_size=50, admission="uniform")
        service = ShardedReservoir(root, config, shards=shards,
                                   pool="inline", partition="round-robin")
        batch = [None] * 4096
        for start in range(0, 400_000, 4096):
            service.offer_batch(batch[:min(4096, 400_000 - start)])
        return service

    def test_four_shards_double_simulated_ingest(self, tmp_path):
        """Four shards ingest >= 2x the records per simulated second of
        one (2.08x measured).  The aggregate clock is the slowest
        shard's, so the ratio measures the layout's I/O parallelism
        and holds on a one-core host."""
        with self._drive(tmp_path / "one", 1) as single:
            single_clock = single.stats().clock
        with self._drive(tmp_path / "four", 4) as sharded:
            assert single_clock / sharded.stats().clock >= 2.0, (
                "the shards have stopped overlapping their I/O")
            assert [s.seen for s in sharded.shard_stats()] == [100_000] * 4
            sharded.kill_shard(0)
            sharded.recover()
            assert sharded.recoveries == 1
            assert sharded.last_recovery_seconds < 30.0
