"""Biased reservoir sampling (paper Section 7, Algorithm 4).

A biased sample over-represents important records: the probability that
the j-th stream record is resident is ``|R| * f(r_j) / sum_k f(r_k)``
(Definition 1).  Algorithm 4 achieves this by admitting record ``i``
with probability ``|R| * f(r_i) / totalWeight`` and evicting a
*uniformly* chosen resident (Lemma 2 proves the invariant).

Early in the stream the admission "probability" can exceed one, which
would break Lemma 2.  Section 7.3.2 repairs this by scaling the *true
weight* of every existing record up whenever that happens, so that the
sample remains a correct biased sample for a perturbed weighting
function f' that the library can always evaluate (Definition 2 /
Lemma 3).  The guarantees, verbatim from the paper:

1. a record's true weight equals ``f(r_j)`` exactly if no later record
   overflowed (``|R| f(r_i) / totalWeight <= 1`` for all ``i > j``);
2. the true weight is always computable, so Horvitz-Thompson style
   unbiased estimates remain available regardless.

Implementation note -- rather than multiplying every resident's weight
on each overflow (O(|R|) per event), we keep a global scale factor
``G`` and store each resident's weight *relative to the scale at its
admission*: ``true(r) = G * stored(r)``.  An overflow multiplies ``G``.
This is algebraically identical to the paper's per-subsample multiplier
scheme (which :mod:`repro.core.biased_file` implements literally for
the on-disk case) and is exact, not an approximation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from ..storage.records import Record
from .weights import WeightFunction, check_weight, uniform_weight

#: Fold the scale factor back into stored weights past this magnitude,
#: long before float64 precision becomes a concern.
_RENORMALIZE_ABOVE = 1e100


@dataclass
class _Resident:
    """A sampled record and its scale-relative stored weight."""

    record: Record
    stored_weight: float


class BiasedReservoir:
    """Fixed-size biased sample of a stream (Algorithm 4 + Section 7.3.2).

    Args:
        capacity: sample size ``|R|``.
        weight_fn: the user utility function ``f``; must return a
            strictly positive float.  Defaults to uniform weighting, in
            which case the structure behaves exactly like
            :class:`~repro.sampling.reservoir.ReservoirSample`.
        rng: randomness source.
    """

    def __init__(self, capacity: int,
                 weight_fn: WeightFunction = uniform_weight,
                 rng: random.Random | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.weight_fn = weight_fn
        self._rng = rng or random.Random()
        self._residents: list[_Resident] = []
        self._seen = 0
        self._scale = 1.0
        #: Sum of *true* weights over every record the stream has
        #: produced (the paper's totalWeight, kept in true-weight units).
        self._total_weight = 0.0
        self._overflow_events = 0
        self._fill_weight = 0.0  # sum of f over the first |R| records

    # -- observers --------------------------------------------------------

    @property
    def seen(self) -> int:
        return self._seen

    @property
    def total_weight(self) -> float:
        """The paper's ``totalWeight``: sum of true weights so far."""
        return self._total_weight

    @property
    def overflow_events(self) -> int:
        """How many times Section 7.3.2 rescaling fired."""
        return self._overflow_events

    @property
    def is_full(self) -> bool:
        return len(self._residents) == self.capacity

    def __len__(self) -> int:
        return len(self._residents)

    def __iter__(self) -> Iterator[Record]:
        return (resident.record for resident in self._residents)

    def items(self) -> Iterator[tuple[Record, float]]:
        """Yield ``(record, true_weight)`` pairs for every resident."""
        for resident in self._residents:
            yield resident.record, self._scale * resident.stored_weight

    def true_weight_of(self, index: int) -> float:
        """True weight of the resident at position ``index``."""
        return self._scale * self._residents[index].stored_weight

    def inclusion_probability(self, true_weight: float) -> float:
        """``Pr[r in R]`` for a resident with the given true weight.

        This is Lemma 3's guarantee:
        ``|R| * true_weight / totalWeight``.
        """
        if self._total_weight == 0:
            raise ValueError("no records offered yet")
        return min(1.0, self.capacity * true_weight / self._total_weight)

    # -- mutation ---------------------------------------------------------

    def offer(self, record: Record) -> Record | None:
        """Present one stream record; returns the evicted record, if any.

        Raises:
            ValueError: if the weight function returns a value that is
                not finite and positive for this record.
        """
        weight = check_weight(self.weight_fn(record))
        self._seen += 1

        # -- start-up: the first |R| records enter unconditionally.  Each
        # gets effective weight 1; once the reservoir fills, the shared
        # multiplier totalWeight/|R| gives them all the *mean* true
        # weight ("a necessary evil", Section 7.3.2).
        if len(self._residents) < self.capacity:
            self._fill_weight += weight
            self._residents.append(_Resident(record, 0.0))
            if len(self._residents) == self.capacity:
                self._total_weight = self._fill_weight
                mean_true = self._fill_weight / self.capacity
                stored = mean_true / self._scale
                for resident in self._residents:
                    resident.stored_weight = stored
            return None

        self._total_weight += weight
        admit_probability = self.capacity * weight / self._total_weight
        if admit_probability > 1.0:
            # Section 7.3.2: scale every existing true weight so the
            # new record's admission probability is exactly one.
            scale_up = admit_probability
            self._scale *= scale_up
            self._total_weight = self.capacity * weight
            self._overflow_events += 1
            self._maybe_renormalize()
            admit_probability = 1.0

        if self._rng.random() >= admit_probability:
            return None
        victim = self._rng.randrange(self.capacity)
        evicted = self._residents[victim].record
        self._residents[victim] = _Resident(record, weight / self._scale)
        return evicted

    def extend(self, records) -> None:
        """Offer every record of an iterable in order."""
        for record in records:
            self.offer(record)

    def _maybe_renormalize(self) -> None:
        if self._scale <= _RENORMALIZE_ABOVE:
            return
        for resident in self._residents:
            resident.stored_weight *= self._scale
        self._scale = 1.0
