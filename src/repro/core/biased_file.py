"""Biased sampling with the geometric file (paper Section 7.3).

The disk mechanics of the geometric file are untouched by biased
sampling: Algorithm 4 evicts *uniformly* -- bias enters only through
the admission probability ``|R| * f(r) / totalWeight`` -- so the flush,
segment, and stack machinery is inherited verbatim from the unbiased
structures.  What Section 7.3 adds is the weight bookkeeping:

* every record's *effective weight* ``r.weight`` is stored with it
  (here: a weights list parallel to each ledger's record list; on a
  byte-backed deployment the weighted
  :class:`~repro.storage.records.RecordSchema` stores it in the
  record slot);
* every subsample carries an in-memory *weight multiplier* ``M_j``;
  the true weight of a record is ``M_j * r.weight`` (Definition 2);
* during start-up all records get effective weight 1, and when the
  reservoir fills every initial subsample's multiplier is set to the
  *mean* weight ``totalWeight / |R|`` ("a necessary evil");
* when a record arrives whose admission probability would exceed one,
  every existing multiplier and every buffered weight is scaled up so
  that it is exactly one, and ``totalWeight`` is reset to
  ``|R| * f(r)`` (Section 7.3.2's three steps, implemented literally).

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

from ..reservoir import StreamReservoir
from ..sampling.weights import WeightFunction, uniform_weight
from ..storage.device import BlockDevice
from ..storage.recordbatch import RecordBatch
from ..storage.records import Record
from .geometric_file import GeometricFile, GeometricFileConfig
from .multi import MultiFileConfig, MultipleGeometricFiles
from .subsample import SubsampleLedger


class BiasedSamplingMixin:
    """Algorithm 4 admission plus Section 7.3 weight bookkeeping.

    Host requirements (both geometric structures satisfy them): the
    startup/flush machinery of the unbiased structures
    (``buffer``, ``in_startup``, ``_startup_sizes``, ``_startup_flush``,
    ``_flush``, ``_new_ledger``) and a :meth:`_biased_ledgers` iterator.

    Weights ride lists parallel to each ledger's records, so a biased
    host keeps record lists (not slabs) in its buffer and ledgers, and
    reads materialise them.
    """

    _slab_ledgers = False

    # -- host hook ----------------------------------------------------------

    def _biased_ledgers(self) -> Iterable[SubsampleLedger]:
        raise NotImplementedError

    # -- shared initialisation ------------------------------------------------

    def _init_biased(self, weight_fn: WeightFunction) -> None:
        self.weight_fn = weight_fn
        #: Sum of true weights over every stream record so far
        #: (the paper's ``totalWeight``).
        self.total_weight = 0.0
        #: Per-subsample weight multipliers, ident -> M_j.
        self.multipliers: dict[int, float] = {}
        self.overflow_events = 0

    # -- stream interface -------------------------------------------------------

    def offer(self, record: Record) -> None:
        """Present one stream record (Algorithm 4 admission)."""
        self._check_engine()
        self._check_payloads((record,))
        weight = self.weight_fn(record)
        if weight <= 0:
            raise ValueError(
                f"weight function returned {weight!r}; must be positive"
            )
        self._seen += 1

        if self.in_startup:
            # Start-up: everything is admitted with effective weight 1;
            # multipliers are fixed up when the reservoir completes.
            self.total_weight += weight
            self._samples_added += 1
            self.buffer.append(record, weight=1.0)
            if self.buffer.count >= self._startup_sizes[self._startup_index]:
                was_last = (self._startup_index
                            == len(self._startup_sizes) - 1)
                self._startup_flush()
                if was_last:
                    self._finish_startup_weights()
            return

        self.total_weight += weight
        admit_probability = (self.capacity * weight) / self.total_weight
        if admit_probability > 1.0:
            self._scale_all_weights(admit_probability, weight)
            admit_probability = 1.0
        if self._rng.random() >= admit_probability:
            return
        self._samples_added += 1
        self.buffer.add_admitted(record, self.capacity, weight=weight)
        if self.buffer.is_full:
            self._flush()

    def offer_many(self, records) -> int:
        """Present a batch of records through the weighted path.

        Algorithm 4's admission probability depends on ``totalWeight``,
        which every record updates, so the decisions are inherently
        sequential -- this exists for interface parity with the uniform
        structures (the inherited vectorised gate would apply the wrong
        admission law), not as a fast path.
        """
        records = list(records)
        self._check_payloads(records)
        before = self._samples_added
        offer = self.offer
        for record in records:
            offer(record)
        return self._samples_added - before

    def offer_batch(self, batch) -> int:
        """Present a batch (``RecordBatch`` or sequence of records)
        through the weighted path.

        The inherited slab gate would draw the uniform admission mask,
        the wrong law for Algorithm 4, so a ``RecordBatch`` is decoded
        once and offered like a record list.
        """
        if isinstance(batch, RecordBatch):
            batch = batch.to_records()
        return self.offer_many(batch)

    def ingest(self, n: int) -> None:
        """Count-only ingestion is undefined for weighted streams."""
        raise TypeError(
            "biased sampling needs each record's weight; use offer()"
        )

    # -- reads ------------------------------------------------------------------

    def sample(self, k: int | None = None, *, rng=None) -> list[Record]:
        """The resident records, each pending one displacing a uniform
        disk record (Algorithm 4 evicts uniformly); optionally thinned
        to a uniform ``k``-subset.  ``rng`` is a ``random.Random``."""
        self.flush_barrier()
        gen = rng if rng is not None else self._rng
        disk = [record for ledger in self._biased_ledgers()
                for record in ledger.records or ()]
        pending = list(self.buffer)
        if self.in_startup:
            full = disk + pending
        else:
            full = StreamReservoir.apply_pending(disk, pending, gen)
        return self._thin_records(full, k, rng)

    def sample_batch(self, k: int | None = None, *, rng=None):
        """:meth:`sample` encoded as one ``RecordBatch``."""
        return StreamReservoir.sample_batch(self, k, rng=rng)

    # -- weighted views -----------------------------------------------------------

    def items(self) -> Iterator[tuple[Record, float]]:
        """Yield ``(record, true_weight)`` for every disk-resident record.

        True weight is ``M_j * effective_weight`` (Definition 2); with
        ``totalWeight`` this gives Lemma 3's inclusion probabilities,
        ready for :func:`repro.estimate.horvitz_thompson_sum`.
        """
        for ledger in self._biased_ledgers():
            multiplier = self.multipliers.get(ledger.ident, 1.0)
            records = ledger.records or []
            weights = ledger.weights or []
            for record, weight in zip(records, weights):
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
            if ledger.weights is None or ledger.records is None:
                raise AssertionError("biased ledger lost its weights")
            if len(ledger.weights) != len(ledger.records):
                raise AssertionError(
                    f"subsample {ledger.ident}: {len(ledger.weights)} "
                    f"weights for {len(ledger.records)} records"
                )

    # -- internals ------------------------------------------------------------------

    def _scale_all_weights(self, factor: float, new_weight: float) -> None:
        """Section 7.3.2's three steps, verbatim."""
        for ident in self.multipliers:
            self.multipliers[ident] *= factor          # step (1)
        self.buffer.scale_weights(factor)              # step (2)
        self.total_weight = self.capacity * new_weight  # step (3)
        self.overflow_events += 1
        self._emit("overflow", what="weight", factor=factor)

    def _finish_startup_weights(self) -> None:
        """Give the initial subsamples the mean true weight.

        "When the reservoir is finished filling, M_i is set to
        totalWeight / |R| for every one of the initial subsamples."
        """
        mean_weight = self.total_weight / self.capacity
        for ident in self.multipliers:
            self.multipliers[ident] = mean_weight

    def _stats_extra(self) -> dict:
        extra = super()._stats_extra()
        extra["overflow_events"] = self.overflow_events
        extra["total_weight"] = self.total_weight
        return extra

    def _new_ledger(self, sizes, first_level, tail, records):
        ledger = super()._new_ledger(sizes, first_level, tail, records)
        # "When the buffer fills and the jth subsample is ... written to
        # disk, M_j is set to 1."  (Start-up multipliers are rewritten
        # by _finish_startup_weights once the reservoir completes.)
        self.multipliers[ledger.ident] = 1.0
        return ledger

    def _flush(self) -> None:
        # The host drains the buffer (which co-shuffles weights with
        # records) and attaches both to the new ledger.
        super()._flush()
        self._drop_dead_multipliers()

    def _drop_dead_multipliers(self) -> None:
        alive = {ledger.ident for ledger in self._biased_ledgers()}
        for ident in list(self.multipliers):
            if ident not in alive:
                del self.multipliers[ident]

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
        weight_fn: the user utility function ``f``; must be strictly
            positive.  With the default uniform weight the structure
            behaves exactly like its parent (tested).
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
