"""Weighting functions for biased sampling (paper Section 7.1).

The paper "assume[s] the existence of a user-defined weighting function
f which takes as an argument a record r, and returns a real number
greater than 0 that describes the record's utility".  These are the
stock functions the examples and benchmarks use; any callable
``Record -> float`` works.

The time-decay family implements the paper's flagship use case: "in
sensor data management, queries might refer to recent sensor readings
far more frequently than older ones", so recent records are weighted
up.  Note that for streaming use the weight must be computable at
*arrival time* and fixed thereafter -- the algorithms store effective
weights, not the function -- so recency bias is expressed as weights
that *grow* with the record's timestamp: a record that arrives later
gets a larger weight, which is equivalent to exponentially decaying the
importance of older records.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..storage.records import Record

WeightFunction = Callable[[Record], float]


def check_weight(weight) -> float:
    """A weight function's result as a float, if it is finite and
    strictly positive.

    Every biased and weighted structure calls this (or
    :func:`check_weights`) before its state changes: a NaN weight would
    turn ``totalWeight`` into NaN and admit every later record, and an
    infinite one would make ``totalWeight`` infinite and admit none.

    Raises:
        ValueError: for zero, negative, infinite or NaN weights.
    """
    value = float(weight)
    if not 0.0 < value < math.inf:
        raise ValueError(f"weight function returned {weight!r}; "
                         "must be finite and positive")
    return value


def check_weights(weights) -> np.ndarray:
    """:func:`check_weight` over a batch: a float64 vector, if every
    weight is finite and strictly positive."""
    values = np.asarray(weights, dtype=np.float64)
    if values.size and not np.all((values > 0.0) & (values < np.inf)):
        raise ValueError("weight function must return finite, positive "
                         "weights")
    return values


def exp_jump_keys(weights, rng: np.random.Generator) -> np.ndarray:
    """Vectorised Efraimidis-Spirakis key draws, in log domain.

    A weighted-without-replacement sample of size ``N`` is exactly the
    ``N`` records with the largest keys ``u**(1/w)`` with
    ``u ~ Uniform(0, 1]`` (Efraimidis & Spirakis 2006).  This kernel
    draws one key per weight in a single numpy pass and returns
    ``log(u)/w`` -- the log of the key, a strictly monotone transform,
    so "largest key" comparisons are unchanged while tiny
    ``u**(1/w)`` values for heavy batches never underflow.

    Both :class:`~repro.sampling.laws.AExpJLaw` (the dense
    below-threshold path) and the in-memory reference implementation
    draw their keys through this one kernel, so the equivalence suite
    exercises a single key law, not two copies.

    Args:
        weights: positive per-record weights (any array-like).
        rng: a ``numpy.random.Generator``; consumes exactly
            ``len(weights)`` uniforms.

    Returns:
        ``float64`` array of log-keys in ``(-inf, 0]``.

    Raises:
        ValueError: if any weight is not finite and strictly positive.
    """
    w = check_weights(weights)
    if w.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    # 1 - U maps [0, 1) onto (0, 1]: log never sees an exact zero.
    u = 1.0 - rng.random(w.shape[0])
    return np.log(u) / w


def uniform_weight(record: Record) -> float:
    """f(r) = 1: biased machinery degenerates to uniform sampling."""
    return 1.0


def exponential_recency(half_life: float) -> WeightFunction:
    """Recency bias with a half-life, expressed in timestamp units.

    A record produced ``half_life`` later than another is twice as
    likely to be retained.  Implemented as ``f(r) = 2**(t / half_life)``;
    only weight *ratios* matter to the sampling distribution
    (Definition 1 normalises by the total weight).

    Raises:
        ValueError: if ``half_life`` is not positive.
    """
    if half_life <= 0:
        raise ValueError("half_life must be positive")

    def weight(record: Record) -> float:
        return math.pow(2.0, record.timestamp / half_life)

    return weight


def linear_recency(slope: float, floor: float = 1.0) -> WeightFunction:
    """Weight growing linearly with the timestamp: ``floor + slope*t``."""
    if slope < 0 or floor <= 0:
        raise ValueError("slope must be non-negative and floor positive")

    def weight(record: Record) -> float:
        return floor + slope * record.timestamp

    return weight


def value_proportional(epsilon: float = 1e-12) -> WeightFunction:
    """Weight proportional to |value| -- over-represent large outliers.

    This mirrors the variance-reduction heuristics the paper cites
    ([4][5][6][12][13]): the records that dominate a SUM's variance are
    exactly the large ones, so sampling them preferentially and
    reweighting at query time (Horvitz-Thompson, see
    :mod:`repro.estimate.estimators`) slashes the error.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    def weight(record: Record) -> float:
        return abs(record.value) + epsilon

    return weight


def clamped(fn: WeightFunction, low: float, high: float) -> WeightFunction:
    """Clamp another weight function into ``[low, high]``.

    Useful to tame "wildly fluctuating" f (paper Section 7.2), which
    otherwise forces frequent true-weight rescaling.
    """
    if not (0 < low <= high):
        raise ValueError("need 0 < low <= high")

    def weight(record: Record) -> float:
        return min(high, max(low, fn(record)))

    return weight
