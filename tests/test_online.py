"""Tests for online aggregation and ripple joins (Section 9)."""

import random
import statistics

import pytest

from repro.estimate import OnlineAggregator, RippleJoin, online_avg
from repro.storage.records import Record


class TestOnlineAggregator:
    def test_welford_matches_batch_statistics(self):
        rng = random.Random(0)
        data = [rng.gauss(5.0, 2.0) for _ in range(500)]
        agg = OnlineAggregator()
        agg.observe_many(data)
        assert agg.avg().value == pytest.approx(statistics.mean(data))
        assert agg.variance == pytest.approx(statistics.variance(data))

    def test_interval_shrinks(self):
        rng = random.Random(1)
        agg = OnlineAggregator()
        widths = []
        for n in range(1, 10_001):
            agg.observe(rng.gauss(0.0, 1.0))
            if n in (100, 1000, 10_000):
                widths.append(agg.avg().standard_error)
        assert widths[0] > 2 * widths[1] > 4 * widths[2]

    def test_sum_requires_population(self):
        agg = OnlineAggregator()
        agg.observe_many([1.0, 2.0])
        with pytest.raises(ValueError):
            agg.sum()

    def test_sum_scales(self):
        agg = OnlineAggregator(population_size=1000)
        agg.observe_many([2.0, 4.0])
        assert agg.sum().value == pytest.approx(3000.0)

    def test_needs_two_observations(self):
        agg = OnlineAggregator()
        agg.observe(1.0)
        with pytest.raises(ValueError):
            agg.avg()

    def test_coverage(self):
        """The running interval covers the truth ~ the stated rate."""
        hits = 0
        for t in range(300):
            rng = random.Random(t)
            agg = OnlineAggregator()
            agg.observe_many(rng.gauss(10.0, 3.0) for _ in range(200))
            if agg.avg().interval(0.95).contains(10.0):
                hits += 1
        assert hits / 300 >= 0.9


class TestOnlineAvgHelper:
    def test_snapshots_and_final_value(self):
        records = [Record(key=i, value=float(i % 7)) for i in range(1000)]
        snaps = list(online_avg(records, every=200,
                                rng=random.Random(0)))
        assert snaps[-1][0] == 1000
        truth = statistics.mean(r.value for r in records)
        assert snaps[-1][1].value == pytest.approx(truth)
        # Interval widths shrink monotonically-ish across snapshots.
        assert snaps[-1][1].standard_error < snaps[0][1].standard_error

    def test_early_snapshot_is_already_close(self):
        """The whole point of online aggregation: stop early."""
        rng = random.Random(5)
        records = [Record(key=i, value=rng.gauss(50.0, 5.0))
                   for i in range(20_000)]
        truth = statistics.mean(r.value for r in records)
        first = next(iter(online_avg(records, every=500,
                                     rng=random.Random(1))))
        n_seen, estimate = first
        assert n_seen == 500
        assert estimate.interval(0.999).contains(truth)

    def test_bad_cadence(self):
        with pytest.raises(ValueError):
            list(online_avg([Record(key=0)], every=0))


def make_join_inputs(n_left=400, n_right=600, n_keys=50, seed=0):
    rng = random.Random(seed)
    left = [Record(key=i, value=float(rng.randrange(n_keys)))
            for i in range(n_left)]
    right = [Record(key=10_000 + i, value=float(rng.randrange(n_keys)))
             for i in range(n_right)]
    true_count = 0
    right_by_key = {}
    for r in right:
        right_by_key.setdefault(r.value, 0)
        right_by_key[r.value] += 1
    for l in left:
        true_count += right_by_key.get(l.value, 0)
    return left, right, true_count


class TestRippleJoin:
    def key(self, record):
        return record.value

    def test_exhaustive_run_is_exact(self):
        """Running the ripple to completion computes the exact join."""
        left, right, truth = make_join_inputs()
        ripple = RippleJoin(left, right, self.key, self.key,
                            rng=random.Random(0))
        ripple.run()
        assert ripple.exhausted
        assert ripple.estimate_count().value == pytest.approx(truth)

    def test_partial_estimates_converge(self):
        left, right, truth = make_join_inputs(seed=3)
        ripple = RippleJoin(left, right, self.key, self.key,
                            rng=random.Random(1))
        errors = []
        for steps, estimate in ripple.snapshots(every=50):
            errors.append(abs(estimate.value - truth) / truth)
        assert errors[-1] < 0.01
        assert statistics.mean(errors[:2]) >= errors[-1]

    def test_estimates_are_unbiased_across_orders(self):
        """At a fixed partial step, the estimate is right on average."""
        left, right, truth = make_join_inputs(seed=7)
        estimates = []
        for t in range(60):
            ripple = RippleJoin(left, right, self.key, self.key,
                                rng=random.Random(t))
            ripple.run(steps=100)
            estimates.append(ripple.estimate_count().value)
        assert statistics.mean(estimates) == pytest.approx(truth,
                                                           rel=0.1)

    def test_population_scale_up(self):
        """Samples standing for larger relations scale the estimate."""
        left, right, truth = make_join_inputs()
        ripple = RippleJoin(left, right, self.key, self.key,
                            left_population=4000, right_population=6000,
                            rng=random.Random(0))
        ripple.run()
        expected = truth * (4000 / 400) * (6000 / 600)
        assert ripple.estimate_count().value == pytest.approx(expected)

    def test_sum_over_join(self):
        left, right, _ = make_join_inputs(seed=2)
        ripple = RippleJoin(
            left, right, self.key, self.key,
            value=lambda l, r: 2.0, rng=random.Random(0),
        )
        ripple.run()
        count = ripple.estimate_count().value
        assert ripple.estimate_sum().value == pytest.approx(2.0 * count)

    def test_sum_requires_value_function(self):
        left, right, _ = make_join_inputs()
        ripple = RippleJoin(left, right, self.key, self.key,
                            rng=random.Random(0))
        ripple.run(steps=10)
        with pytest.raises(ValueError):
            ripple.estimate_sum()

    def test_estimate_before_stepping_rejected(self):
        left, right, _ = make_join_inputs()
        ripple = RippleJoin(left, right, self.key, self.key)
        with pytest.raises(ValueError):
            ripple.estimate_count()

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            RippleJoin([], [Record(key=0)], self.key, self.key)

    def test_interval_coverage_is_reasonable(self):
        """The approximate SE yields sane (if conservative) coverage."""
        left, right, truth = make_join_inputs(seed=11)
        hits = 0
        trials = 80
        for t in range(trials):
            ripple = RippleJoin(left, right, self.key, self.key,
                                rng=random.Random(1000 + t))
            ripple.run(steps=150)
            if ripple.estimate_count().interval(0.95).contains(truth):
                hits += 1
        assert hits / trials >= 0.85
