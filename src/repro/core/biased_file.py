"""Biased sampling with the geometric file (paper Section 7.3).

The disk mechanics of the geometric file are untouched by biased
sampling: Algorithm 4 evicts *uniformly* -- bias enters only through
the admission probability ``|R| * f(r) / totalWeight`` -- so the flush,
segment, stack and read machinery is inherited verbatim from the
unbiased structures.  What Section 7.3 adds is the weight bookkeeping:

* every record's *effective weight* ``r.weight`` is stored with it:
  here aux column 0 of the buffer's and every ledger's slab, which the
  drain permutes and evictions truncate in step with the rows;
* every subsample carries an in-memory *weight multiplier* ``M_j``;
  the true weight of a record is ``M_j * r.weight`` (Definition 2).
  The file stores each ``M_j`` divided by one shared scale factor, so
  an overflow event scales every multiplier by scaling that factor;
* during start-up all records get effective weight 1, and when the
  reservoir fills every initial subsample's multiplier is set to the
  *mean* weight ``totalWeight / |R|`` ("a necessary evil");
* when a record arrives whose admission probability would exceed one,
  every existing multiplier and every buffered weight is scaled up so
  that it is exactly one, and ``totalWeight`` is reset to
  ``|R| * f(r)`` (Section 7.3.2's three steps).  Both scalings are
  O(1): the multipliers through their shared scale, the buffered
  weights through an epoch factor (the buffer stores each weight
  divided by the factor of its moment, and the flush multiplies the
  drained column by the factor when the buffer becomes a subsample).

Lemma 3's guarantee -- ``Pr[r in R] = |R| * M(r) * r.weight /
totalWeight`` -- is what :meth:`BiasedSamplingMixin.items` exposes to
the Horvitz-Thompson estimators in :mod:`repro.estimate`.

Both the single-file (:class:`BiasedGeometricFile`) and the Section 6
multi-file (:class:`BiasedMultipleGeometricFiles`) hosts are provided;
the weighted machinery is a mixin because it is orthogonal to the
physical layout.  Biased operation requires record retention (weights
are per-record state), so the count-only benchmark fast path is
disabled.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..sampling.weights import (
    WeightFunction,
    check_weight,
    check_weights,
    uniform_weight,
)
from ..storage.device import BlockDevice
from ..storage.recordbatch import RecordBatch
from ..storage.records import Record
from .geometric_file import GeometricFile, GeometricFileConfig
from .multi import MultiFileConfig, MultipleGeometricFiles
from .subsample import SubsampleLedger

#: Fold the buffer's epoch factor into its stored weights past this
#: magnitude, long before float64 precision becomes a concern.
_RENORMALIZE_ABOVE = 1e100


class BiasedSamplingMixin:
    """Algorithm 4 admission plus Section 7.3 weight bookkeeping.

    Host requirements (both geometric structures satisfy them): the
    startup/flush machinery of the unbiased structures
    (``buffer``, ``in_startup``, ``_startup_sizes``, ``_startup_flush``,
    ``_flush``, ``_new_ledger``) and a :meth:`_biased_ledgers` iterator.
    """

    #: The effective weight rides aux column 0 of every slab.
    _structure_aux = 1

    # -- host hook ----------------------------------------------------------

    def _biased_ledgers(self) -> Iterable[SubsampleLedger]:
        raise NotImplementedError

    # -- shared initialisation ------------------------------------------------

    def _init_biased(self, weight_fn: WeightFunction) -> None:
        self.weight_fn = weight_fn
        #: Sum of true weights over every stream record so far
        #: (the paper's ``totalWeight``).
        self.total_weight = 0.0
        #: Per-subsample weight multipliers over the shared scale,
        #: ident -> M_j / _multiplier_scale (see :attr:`multipliers`).
        self._multipliers: dict[int, float] = {}
        #: Section 7.3.2's overflow factors since the last fold: every
        #: true multiplier is its stored one times this scale.
        self._multiplier_scale = 1.0
        self.overflow_events = 0
        #: Section 7.3.2's overflow factor since the last flush: a
        #: buffered record's effective weight is its stored weight
        #: times this epoch.
        self.weight_epoch = 1.0

    @property
    def multipliers(self) -> dict[int, float]:
        """Per-subsample weight multipliers, ident -> true ``M_j``."""
        scale = self._multiplier_scale
        return {ident: m * scale for ident, m in self._multipliers.items()}

    @multipliers.setter
    def multipliers(self, true_multipliers: dict[int, float]) -> None:
        self._multipliers = dict(true_multipliers)
        self._multiplier_scale = 1.0

    def fold_multiplier_scale(self) -> None:
        """Store the true multipliers and reset the shared scale to one.

        Checkpoints fold first, so a saved file and its restore compute
        every later ``M_j`` with the same float operations.
        """
        self.multipliers = self.multipliers

    # -- stream interface -------------------------------------------------------

    def offer(self, record: Record) -> None:
        """Present one stream record (Algorithm 4 admission)."""
        self._check_engine()
        self._check_payloads((record,))
        self._offer_weighted(record, check_weight(self.weight_fn(record)))

    def offer_many(self, records) -> int:
        """Present a batch of records through the weighted path.

        Algorithm 4's admission probability depends on ``totalWeight``,
        which every record updates, so the decisions are inherently
        sequential -- this exists for interface parity with the uniform
        structures (the inherited vectorised gate would apply the wrong
        admission law), not as a fast path.  Every record is weighed and
        checked before the first one is counted, so a bad weight leaves
        no half-counted batch behind.
        """
        self._check_engine()
        records = list(records)
        self._check_payloads(records)
        fn = self.weight_fn
        weights = check_weights([fn(record) for record in records])
        before = self._samples_added
        offer = self._offer_weighted
        for record, weight in zip(records, weights.tolist()):
            offer(record, weight)
        return self._samples_added - before

    def offer_batch(self, batch) -> int:
        """Present a batch (``RecordBatch`` or sequence of records)
        through the weighted path.

        The inherited slab gate would draw the uniform admission mask,
        the wrong law for Algorithm 4, so a ``RecordBatch`` is decoded
        once (the weight function reads records) and offered like a
        record list.
        """
        if isinstance(batch, RecordBatch):
            batch = batch.to_records()
        return self.offer_many(batch)

    def ingest(self, n: int) -> None:
        """Count-only ingestion is undefined for weighted streams."""
        raise TypeError(
            "biased sampling needs each record's weight; use offer()"
        )

    def _offer_weighted(self, record: Record, weight: float) -> None:
        """Algorithm 4 for one record whose weight is already checked."""
        self._seen += 1
        self.total_weight += weight
        if self.in_startup:
            # Start-up: everything is admitted with effective weight 1;
            # multipliers are fixed up when the reservoir completes.
            self._samples_added += 1
            self.buffer.append(record, aux=(1.0,))
            if self.buffer.count >= self._startup_sizes[self._startup_index]:
                was_last = (self._startup_index
                            == len(self._startup_sizes) - 1)
                self._startup_flush()
                if was_last:
                    self._finish_startup_weights()
            return

        admit_probability = (self.capacity * weight) / self.total_weight
        if admit_probability > 1.0:
            self._scale_all_weights(admit_probability, weight)
            admit_probability = 1.0
        if self._rng.random() >= admit_probability:
            return
        self._samples_added += 1
        self.buffer.add_admitted(record, self.capacity,
                                 aux=(weight / self.weight_epoch,))
        if self.buffer.is_full:
            self._flush()

    # -- weighted views -----------------------------------------------------------

    def items(self) -> Iterator[tuple[Record, float]]:
        """Yield ``(record, true_weight)`` for every disk-resident record.

        True weight is ``M_j * effective_weight`` (Definition 2); with
        ``totalWeight`` this gives Lemma 3's inclusion probabilities,
        ready for :func:`repro.estimate.horvitz_thompson_sum`.
        """
        multipliers = self.multipliers
        for ledger in self._biased_ledgers():
            multiplier = multipliers.get(ledger.ident, 1.0)
            weights = ledger.aux[:, 0].tolist()
            for record, weight in zip(ledger.records.to_records(), weights):
                yield record, multiplier * weight

    def true_weight_total(self) -> float:
        """Sum of resident true weights (diagnostic; <= total_weight)."""
        return sum(weight for _record, weight in self.items())

    def inclusion_probability(self, true_weight: float) -> float:
        """Lemma 3: ``Pr[r in R] = |R| * true_weight / totalWeight``."""
        if self.total_weight <= 0:
            raise ValueError("no records offered yet")
        return min(1.0, self.capacity * true_weight / self.total_weight)

    def check_invariants(self) -> None:
        super().check_invariants()
        for ledger in self._biased_ledgers():
            if ledger.aux is None:
                raise AssertionError(
                    f"subsample {ledger.ident} lost its weight column")

    # -- internals ------------------------------------------------------------------

    def _scale_all_weights(self, factor: float, new_weight: float) -> None:
        """Section 7.3.2's three steps, each O(1)."""
        self._multiplier_scale *= factor               # step (1)
        if self._multiplier_scale > _RENORMALIZE_ABOVE:
            self.fold_multiplier_scale()
        self.weight_epoch *= factor                    # step (2)
        if self.weight_epoch > _RENORMALIZE_ABOVE:
            self.buffer.aux_view()[:, 0] *= self.weight_epoch
            self.weight_epoch = 1.0
        self.total_weight = self.capacity * new_weight  # step (3)
        self.overflow_events += 1
        self._emit("overflow", what="weight", factor=factor)

    def _finish_startup_weights(self) -> None:
        """Give the initial subsamples the mean true weight.

        "When the reservoir is finished filling, M_i is set to
        totalWeight / |R| for every one of the initial subsamples."
        """
        self.multipliers = dict.fromkeys(self._multipliers,
                                         self.total_weight / self.capacity)

    def _stats_extra(self) -> dict:
        extra = super()._stats_extra()
        extra["overflow_events"] = self.overflow_events
        extra["total_weight"] = self.total_weight
        return extra

    def _new_ledger(self, sizes, first_level, tail, records, aux):
        # The drained buffer becomes a subsample: its stored weights
        # times the epoch are the effective weights it keeps on disk.
        aux[:, 0] *= self.weight_epoch
        self.weight_epoch = 1.0
        ledger = super()._new_ledger(sizes, first_level, tail, records, aux)
        # "When the buffer fills and the jth subsample is ... written to
        # disk, M_j is set to 1."  (Start-up multipliers are rewritten
        # by _finish_startup_weights once the reservoir completes.)
        self._multipliers[ledger.ident] = 1.0 / self._multiplier_scale
        return ledger

    def _flush(self) -> None:
        super()._flush()
        self._drop_dead_multipliers()

    def _drop_dead_multipliers(self) -> None:
        alive = {ledger.ident for ledger in self._biased_ledgers()}
        for ident in list(self._multipliers):
            if ident not in alive:
                del self._multipliers[ident]

    @staticmethod
    def _require_record_retention(config: GeometricFileConfig) -> None:
        if not config.retain_records:
            raise ValueError(
                "biased sampling stores per-record weights; configure "
                "retain_records=True"
            )
        if config.law != "uniform":
            raise ValueError(
                "biased structures implement Algorithm 4 directly and "
                "require law='uniform'; use the plain structures with "
                f"law={config.law!r} instead"
            )


class BiasedGeometricFile(BiasedSamplingMixin, GeometricFile):
    """A single geometric file maintaining a Definition 1 biased sample.

    Args:
        device: backing store (sized via
            :meth:`~repro.core.geometric_file.GeometricFile.required_blocks`).
        config: sizing; must have ``retain_records=True``.
        weight_fn: the user utility function ``f``; must return finite,
            strictly positive weights.  With the default uniform weight
            the structure behaves exactly like its parent (tested).
        seed: RNG seed.
    """

    name = "biased geo file"

    def __init__(self, device: BlockDevice, config: GeometricFileConfig,
                 weight_fn: WeightFunction = uniform_weight,
                 *, seed: int | None = 0) -> None:
        self._require_record_retention(config)
        super().__init__(device, config, seed=seed)
        self._init_biased(weight_fn)

    def _biased_ledgers(self):
        return self.subsamples


class BiasedMultipleGeometricFiles(BiasedSamplingMixin,
                                   MultipleGeometricFiles):
    """Sections 6 and 7 composed: a striped, biased disk-resident sample.

    The paper presents the two extensions separately but they are
    orthogonal: bias only changes admission and the in-memory weight
    bookkeeping, striping only changes the physical layout, so the
    terabyte-scale configuration with a recency-weighted sample is
    exactly this class.
    """

    name = "biased multiple geo files"

    def __init__(self, device: BlockDevice, config: MultiFileConfig,
                 weight_fn: WeightFunction = uniform_weight,
                 *, seed: int | None = 0) -> None:
        self._require_record_retention(config)
        super().__init__(device, config, seed=seed)
        self._init_biased(weight_fn)

    def _biased_ledgers(self):
        return self._all_ledgers()
