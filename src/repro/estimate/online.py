"""Online aggregation and ripple joins over maintained samples.

Section 9 places the geometric file next to Berkeley's CONTROL project:
"their algorithms could make use of our samples.  For example, a sample
maintained as a geometric file could easily be used as input to a
ripple join or online aggregation."  This module is that input path:

* :class:`OnlineAggregator` -- the online-aggregation interface
  (Hellerstein, Haas, Wang 1997): feed records one at a time *in random
  order* and read a running estimate whose confidence interval shrinks
  as 1/sqrt(n), letting a user stop as soon as the answer is good
  enough;
* :class:`RippleJoin` -- the ripple join (Haas, Hellerstein 1999):
  progressively estimate an aggregate over ``L JOIN R`` by growing a
  sampled rectangle of pairs, never materialising the join.

Both consume ``list[Record]`` from any of the library's samplers.  The
inputs must be exchangeable (uniformly shuffled); both classes shuffle
internally by default because a geometric file's ``sample()`` output is
ordered by subsample age.

Error bars: the aggregator's are exact CLT intervals.  The ripple
join's use the standard i.i.d.-pairs approximation for the selectivity
variance (the exact ripple-join variance estimator tracks cross-tuple
covariance terms); tests validate the resulting coverage empirically.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from ..storage.records import Record
from .estimators import Estimate


class OnlineAggregator:
    """Running AVG / SUM / COUNT with shrinking confidence intervals.

    Args:
        population_size: the population the observations represent;
            required for SUM/COUNT scale-up, not for AVG.

    Feed observations with :meth:`observe` (they must arrive in random
    order for the intervals to be honest -- see :func:`online_avg` for
    a helper that shuffles a sample and streams snapshots).
    """

    def __init__(self, population_size: int | None = None) -> None:
        if population_size is not None and population_size < 1:
            raise ValueError("population must be positive")
        self._population = population_size
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0  # Welford's running sum of squared deviations

    # -- feeding ----------------------------------------------------------

    def observe(self, value: float) -> None:
        """Incorporate one observation (Welford's update)."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    # -- estimates ----------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def variance(self) -> float:
        """Sample variance of the observations seen so far."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    def avg(self) -> Estimate:
        if self._count < 2:
            raise ValueError("need at least two observations")
        return Estimate(self._mean,
                        math.sqrt(self.variance / self._count))

    def sum(self) -> Estimate:
        """Population SUM (with finite-population correction)."""
        self._need_population()
        avg = self.avg()
        fpc = max(0.0, 1.0 - self._count / self._population)
        return Estimate(self._population * avg.value,
                        self._population * avg.standard_error
                        * math.sqrt(fpc))

    def _need_population(self) -> None:
        if self._population is None:
            raise ValueError("population_size is required for SUM")


def online_avg(sample: Sequence[Record],
               value: Callable[[Record], float] | None = None,
               *, every: int = 100, confidence: float = 0.95,
               rng: random.Random | None = None,
               ) -> Iterator[tuple[int, Estimate]]:
    """Stream (n_seen, running AVG estimate) snapshots over a sample.

    Shuffles the sample (a geometric file's ``sample()`` is ordered by
    subsample age, which is stream order -- not exchangeable), then
    yields a snapshot every ``every`` observations plus a final one.
    This is the user-facing shape of online aggregation: watch the
    interval shrink and stop early.
    """
    if every < 1:
        raise ValueError("snapshot cadence must be at least 1")
    value = value or (lambda r: r.value)
    rng = rng or random.Random()
    shuffled = list(sample)
    rng.shuffle(shuffled)
    aggregator = OnlineAggregator()
    for index, record in enumerate(shuffled, start=1):
        aggregator.observe(value(record))
        if index >= 2 and (index % every == 0 or index == len(shuffled)):
            yield index, aggregator.avg()


class RippleJoin:
    """Progressive estimation of ``|L JOIN R|`` (and SUMs over it).

    The classic square ripple: at step ``k`` the first ``k`` records of
    each (shuffled) side have been read, and every pair among them has
    been inspected -- incrementally, via hash indexes, so step ``k``
    costs O(1 + matches) rather than O(k).  The running estimate scales
    the observed match count by the un-sampled volume:

        count ~ matches_seen * (|L| * |R|) / (l_seen * r_seen)

    Args:
        left, right: the two inputs (samples or full relations).
        left_key, right_key: join-key extractors.
        left_population, right_population: sizes of the relations the
            inputs represent; default to the input sizes (exact join
            over the inputs themselves).
        value: optional per-pair contribution ``f(l, r)`` for SUM
            estimates; defaults to 1 (COUNT).
        rng: shuffle source (inputs are shuffled; pass ``shuffle=False``
            if they are already exchangeable).
    """

    def __init__(
        self,
        left: Sequence[Record],
        right: Sequence[Record],
        left_key: Callable[[Record], Hashable],
        right_key: Callable[[Record], Hashable],
        *,
        left_population: int | None = None,
        right_population: int | None = None,
        value: Callable[[Record, Record], float] | None = None,
        rng: random.Random | None = None,
        shuffle: bool = True,
    ) -> None:
        if not left or not right:
            raise ValueError("both join inputs must be non-empty")
        rng = rng or random.Random()
        self._left = list(left)
        self._right = list(right)
        if shuffle:
            rng.shuffle(self._left)
            rng.shuffle(self._right)
        self._left_key = left_key
        self._right_key = right_key
        self._left_population = left_population or len(self._left)
        self._right_population = right_population or len(self._right)
        if self._left_population < len(self._left) \
                or self._right_population < len(self._right):
            raise ValueError("population smaller than the given input")
        self._value = value
        self._left_index: dict[Hashable, list[Record]] = {}
        self._right_index: dict[Hashable, list[Record]] = {}
        self._left_seen = 0
        self._right_seen = 0
        self._matches = 0
        self._match_sum = 0.0

    # -- observers --------------------------------------------------------

    @property
    def left_seen(self) -> int:
        return self._left_seen

    @property
    def right_seen(self) -> int:
        return self._right_seen

    @property
    def matches_seen(self) -> int:
        return self._matches

    @property
    def exhausted(self) -> bool:
        return (self._left_seen == len(self._left)
                and self._right_seen == len(self._right))

    # -- stepping ----------------------------------------------------------

    def step(self) -> None:
        """Advance the ripple one square: one record from each side."""
        if self._left_seen < len(self._left):
            self._absorb(self._left[self._left_seen], left_side=True)
            self._left_seen += 1
        if self._right_seen < len(self._right):
            self._absorb(self._right[self._right_seen], left_side=False)
            self._right_seen += 1

    def run(self, steps: int | None = None) -> None:
        """Advance ``steps`` squares (all the way by default)."""
        remaining = steps
        while not self.exhausted and (remaining is None or remaining > 0):
            self.step()
            if remaining is not None:
                remaining -= 1

    def _absorb(self, record: Record, *, left_side: bool) -> None:
        if left_side:
            key = self._left_key(record)
            self._left_index.setdefault(key, []).append(record)
            partners = self._right_index.get(key, ())
            pairs = ((record, partner) for partner in partners)
        else:
            key = self._right_key(record)
            self._right_index.setdefault(key, []).append(record)
            partners = self._left_index.get(key, ())
            pairs = ((partner, record) for partner in partners)
        for left_record, right_record in pairs:
            self._matches += 1
            if self._value is not None:
                self._match_sum += self._value(left_record, right_record)

    # -- estimates ----------------------------------------------------------

    def estimate_count(self) -> Estimate:
        """Running estimate of ``|L JOIN R|`` with an approximate SE."""
        if self._left_seen == 0 or self._right_seen == 0:
            raise ValueError("step the ripple before estimating")
        pairs_seen = self._left_seen * self._right_seen
        scale = (self._left_population * self._right_population
                 / pairs_seen)
        selectivity = self._matches / pairs_seen
        # i.i.d.-pairs approximation of Var(selectivity); see module
        # docstring.  Effective sample size is the ripple perimeter,
        # not the full rectangle (pairs sharing a tuple are dependent).
        effective = max(2, min(self._left_seen, self._right_seen))
        variance = selectivity * (1 - selectivity) / effective
        se = (self._left_population * self._right_population
              * math.sqrt(variance))
        return Estimate(self._matches * scale, se)

    def estimate_sum(self) -> Estimate:
        """Running estimate of ``SUM(value)`` over the join."""
        if self._value is None:
            raise ValueError("construct the ripple with a value function")
        if self._matches == 0:
            return Estimate(0.0, 0.0)
        count = self.estimate_count()
        mean_contribution = self._match_sum / self._matches
        return Estimate(count.value * mean_contribution,
                        count.standard_error * abs(mean_contribution))

    def snapshots(self, every: int = 10
                  ) -> Iterator[tuple[int, Estimate]]:
        """Run to exhaustion, yielding (steps, count estimate) as it goes."""
        if every < 1:
            raise ValueError("snapshot cadence must be at least 1")
        steps = 0
        while not self.exhausted:
            self.step()
            steps += 1
            if steps % every == 0 or self.exhausted:
                yield steps, self.estimate_count()
