"""Common interface for disk-based reservoir maintainers.

The paper benchmarks five alternatives -- virtual memory, scan
(massive rebuild), localized overwrite, the geometric file, and
multiple geometric files -- against one task: keep a disk-resident
reservoir of ``N`` records fed from a stream, admitting records online.
:class:`StreamReservoir` is that task as an abstract base class, so the
benchmark harness (:mod:`repro.bench`) can drive any of them
identically.

Three ingestion paths exist:

* :meth:`offer` -- record-at-a-time, exact, keeps record payloads when
  the implementation retains them.  Tests and examples use this.
* :meth:`offer_many` -- the batch fast path: one vectorised admission
  draw for a whole slice of the stream, then a single
  :meth:`_admit_many` call.  Same output distribution as a loop of
  ``offer`` calls (tested), at a fraction of the per-record Python
  cost.  See docs/PERFORMANCE.md.
* :meth:`ingest` -- count-only fast path for paper-scale benchmark
  runs (billions of records).  Implementations advance all counters and
  charge all I/O exactly as ``offer`` would, but skip per-record Python
  objects.  See DESIGN.md on scale substitution.

Admission follows Algorithm 1: record ``i`` of the stream enters with
probability ``N / i`` (``mode="uniform"``).  The paper's throughput
experiments instead assume "every record produced by the stream was
sampled" (Section 8) -- recency-biased, as the paper notes -- which is
``mode="always"``; each method's relative throughput is identical, just
scaled.
"""

from __future__ import annotations

import abc
import random
from typing import Literal

import numpy as np

from .obs.stats import ReservoirStats
from .storage.records import Record

AdmissionMode = Literal["always", "uniform"]

#: numpy's Generator.hypergeometric requires ngood, nbad < 1e9 each.
_NUMPY_HYPERGEOMETRIC_LIMIT = 10 ** 9


def hypergeometric(rng: np.random.Generator, ngood: int, nbad: int,
                   nsample: int) -> int:
    """Hypergeometric draw that tolerates paper-scale populations.

    Within numpy's supported range (ngood, nbad < 1e9) the draw is
    exact.  Beyond it -- which only billion-record benchmark runs
    reach -- the draw falls back to a Binomial(nsample, ngood/total)
    approximation clipped to the hypergeometric support; at the
    buffer-to-reservoir ratios involved (B/N <= 1%) the variance
    discrepancy is below 1% and no test-scale code path uses it.
    """
    if nsample > ngood + nbad:
        raise ValueError("cannot sample more than the population")
    if ngood < _NUMPY_HYPERGEOMETRIC_LIMIT and nbad < _NUMPY_HYPERGEOMETRIC_LIMIT:
        return int(rng.hypergeometric(ngood, nbad, nsample))
    p = ngood / (ngood + nbad)
    draw = int(rng.binomial(nsample, p))
    return max(max(0, nsample - nbad), min(draw, min(ngood, nsample)))


def draw_victim_counts(rng: np.random.Generator, lives: list[int],
                       count: int) -> list[int]:
    """Algorithm 3's randomized partitioning as one vectorised draw.

    Returns how many of ``count`` uniformly-chosen victims land in each
    population of ``lives`` -- the multivariate hypergeometric
    distribution.  Uses numpy's O(n) "marginals" sampler when the total
    population is within its 1e9 limit, else falls back to sequential
    conditional draws through :func:`hypergeometric`.
    """
    if count < 0:
        raise ValueError("victim count must be non-negative")
    total = sum(lives)
    if count > total:
        raise ValueError("more victims than live records")
    if count == 0:
        return [0] * len(lives)
    if total < _NUMPY_HYPERGEOMETRIC_LIMIT and len(lives) > 1:
        colors = np.asarray(lives, dtype=np.int64)
        draw = rng.multivariate_hypergeometric(colors, count,
                                               method="marginals")
        return [int(k) for k in draw]
    if len(lives) > 1 and total < 2 * (_NUMPY_HYPERGEOMETRIC_LIMIT - 1):
        # Exact conditional decomposition: split the populations into
        # two halves of roughly equal mass, draw the first half's share
        # with one (exact-when-in-range) hypergeometric, recurse.
        # Keeps the fast vectorised path available for reservoirs just
        # past numpy's 1e9 limit (the paper's 50 GiB / 50 B
        # configuration is 1.07e9 records).  A single population can
        # itself exceed the limit (a huge first cohort); both the split
        # draw and the recursion go through the safe wrapper, which
        # degrades that one draw to a clipped binomial.
        split = _balanced_split(lives, total)
        first_total = sum(lives[:split])
        k_first = hypergeometric(rng, first_total, total - first_total,
                                 count)
        return (draw_victim_counts(rng, lives[:split], k_first)
                + draw_victim_counts(rng, lives[split:], count - k_first))
    counts: list[int] = []
    remaining_total = total
    remaining_draw = count
    for live in lives:
        if remaining_draw == 0:
            counts.append(0)
            continue
        if live == remaining_total:
            k = remaining_draw
        else:
            k = hypergeometric(rng, live, remaining_total - live,
                               remaining_draw)
        counts.append(k)
        remaining_total -= live
        remaining_draw -= k
    if remaining_draw != 0:
        raise AssertionError("victim draw did not exhaust the flush")
    return counts


def draw_victim_counts_array(rng: np.random.Generator, lives: np.ndarray,
                             count: int) -> np.ndarray:
    """Array-native :func:`draw_victim_counts` for the flush hot path.

    ``lives`` is an int64 population vector (typically a view into a
    :class:`VictimScratch` buffer, so steady-state flushes allocate no
    per-flush Python lists).  The common case -- every population within
    numpy's 1e9 limit -- is a single ``multivariate_hypergeometric``
    call; anything larger falls back to the exact list-based
    decomposition.
    """
    if count < 0:
        raise ValueError("victim count must be non-negative")
    m = int(lives.shape[0])
    total = int(lives.sum())
    if count > total:
        raise ValueError("more victims than live records")
    if count == 0:
        return np.zeros(m, dtype=np.int64)
    if m == 1:
        return np.array([count], dtype=np.int64)
    if total < _NUMPY_HYPERGEOMETRIC_LIMIT:
        return rng.multivariate_hypergeometric(lives, count,
                                               method="marginals")
    return np.asarray(
        draw_victim_counts(rng, [int(v) for v in lives], count),
        dtype=np.int64,
    )


class VictimScratch:
    """A reusable population buffer for Algorithm 3's victim draws.

    Steady-state flushing previously rebuilt a Python list of subsample
    sizes and converted it to a fresh numpy array on *every* flush; this
    scratch hands out views into one preallocated int64 buffer that
    grows geometrically and is reused across flushes.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = np.empty(0, dtype=np.int64)

    def view(self, n: int) -> np.ndarray:
        """A writable length-``n`` view, reallocating only on growth."""
        if self._buf.shape[0] < n:
            self._buf = np.empty(max(n, 2 * self._buf.shape[0], 16),
                                 dtype=np.int64)
        return self._buf[:n]


def bulk_generator(rng: random.Random | np.random.Generator
                   ) -> np.random.Generator:
    """A numpy ``Generator`` for one bulk draw.

    A ``random.Random`` gives one ``getrandbits(64)`` word to seed a
    fresh generator, so a whole permutation or ``k``-subset costs its
    stream one word instead of a Python-level draw per element; a numpy
    ``Generator`` is returned as is.
    """
    if isinstance(rng, random.Random):
        return np.random.default_rng(rng.getrandbits(64))
    return rng


def draw_distinct(rng: random.Random | np.random.Generator, n: int,
                  k: int) -> np.ndarray:
    """A uniform, uniformly ordered ``k``-subset of ``range(n)``: one
    ``choice(n, k)`` without replacement from ``rng`` (a
    ``random.Random`` through :func:`bulk_generator`)."""
    return bulk_generator(rng).choice(n, size=k, replace=False)


def _distinct_integers(rng: np.random.Generator, low: int, high: int,
                       k: int) -> np.ndarray:
    """A uniform random ``k``-subset of ``[low, high)`` in O(k) memory.

    Rejection-based: overdraw, deduplicate, repeat until ``k`` distinct
    values exist, then thin to exactly ``k`` (uniform by exchangeability
    of the values).  Callers guarantee ``k`` is at most half the range,
    so the expected number of rounds is O(1).
    """
    span = high - low
    if k >= span:
        return np.arange(low, high, dtype=np.int64)
    values = np.unique(rng.integers(low, high, size=k, dtype=np.int64))
    while values.shape[0] < k:
        extra = rng.integers(low, high, size=2 * (k - values.shape[0]) + 8,
                             dtype=np.int64)
        values = np.unique(np.concatenate([values, extra]))
    if values.shape[0] > k:
        values = rng.choice(values, size=k, replace=False)
    return values


def _balanced_split(lives: list[int], total: int) -> int:
    """Index splitting ``lives`` into two halves of roughly equal mass.

    Both halves must be non-empty and each below numpy's limit; the
    caller guarantees ``total < 2 * (limit - 1)``, so the split point
    nearest the mass midpoint always satisfies that.
    """
    target = total // 2
    acc = 0
    for index, live in enumerate(lives):
        acc += live
        if acc >= target:
            split = index + 1
            break
    else:  # pragma: no cover - loop always crosses total // 2
        split = len(lives) - 1
    return min(max(1, split), len(lives) - 1)


class StreamReservoir(abc.ABC):
    """A fixed-capacity disk-resident sample fed online from a stream.

    Args:
        capacity: reservoir size ``N`` in records.
        admission: ``"always"`` admits every stream record (the paper's
            benchmark mode); ``"uniform"`` applies the ``N/i``
            reservoir gate so the maintained sample is uniform.
        seed: RNG seed; drives both the ``random.Random`` used for
            per-record decisions and the numpy generator used for
            batched draws.
        law: the :class:`~repro.sampling.laws.SamplingLaw` owning every
            admission decision; ``None`` means the paper's uniform law.
            Non-uniform laws supersede ``admission``.
    """

    #: Short name used in benchmark tables ("geo file", "scan", ...).
    name: str = "reservoir"

    def __init__(self, capacity: int, *, admission: AdmissionMode = "always",
                 seed: int | None = 0, law=None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if admission not in ("always", "uniform"):
            raise ValueError(f"unknown admission mode {admission!r}")
        if law is None:
            from .sampling.laws import UniformLaw
            law = UniformLaw()
        self._law = law
        self.capacity = capacity
        self.admission = admission
        self._rng = random.Random(seed)
        self._np_rng = np.random.default_rng(
            seed if seed is not None else None
        )
        #: Minimum useful ingest chunk for the benchmark runner
        #: (flush-based structures override with their flush quantum).
        self.chunk_floor = 1
        #: Flush engine (repro.pipeline.FlushEngine), attached by
        #: disk-backed subclasses; None for purely in-memory paths.
        self._engine = None
        # Stream position (records offered) and admissions; exposed
        # through stats().
        self._seen = 0
        self._samples_added = 0
        # Hot AQP subsample (repro.estimate.planner.HotSubsample),
        # attached by enable_aqp_cache(); None keeps every ingest hook
        # a single attribute check.
        self._hot = None
        #: Schema whose payload slot offered records must fit, set by
        #: structures that keep records as offered (see
        #: RecordSchema.check_payloads); None skips the check.
        self._payload_schema = None
        # Observability hooks, attached by instrument().
        self._obs_name: str = self.name
        self._registry = None
        self._trace = None
        self._event_counters: dict = {}

    # -- abstract hooks ----------------------------------------------------

    @abc.abstractmethod
    def _admit(self, record: Record | None) -> None:
        """Accept one admitted record (``None`` in count-only mode)."""

    @abc.abstractmethod
    def _admit_count(self, n: int) -> None:
        """Accept ``n`` admitted records without materialising them."""

    def _admit_many(self, records: list[Record | None]) -> None:
        """Accept a batch of admitted records (subclass batch hook).

        The default is the per-record loop, so every structure gets
        :meth:`offer_many` for free; flush-based structures override
        this with a buffer-level batch absorb.
        """
        admit = self._admit
        for record in records:
            admit(record)

    def _clock(self) -> float:
        """Simulated disk seconds consumed so far (subclass hook)."""
        return 0.0

    # -- pipelined flushing -------------------------------------------------

    def _check_engine(self) -> None:
        """Surface a parked writer-thread fault on the ingest path.

        Cheap enough for the per-record loop: two attribute reads when
        healthy.  Raises :class:`~repro.pipeline.PipelineWriteError`
        until :meth:`clear_fault` is called; the in-memory ledgers are
        authoritative, so no admitted record is lost either way.
        """
        engine = self._engine
        if engine is not None and engine.fault is not None:
            engine.check()

    def flush_barrier(self) -> None:
        """Wait until every background flush has reached the device.

        A no-op for synchronous engines.  Required before reading
        device state (checkpoints, retained-byte verification); also
        surfaces any parked writer fault.
        """
        engine = self._engine
        if engine is not None:
            engine.barrier()

    def close(self) -> None:
        """Drain pending flushes and stop the writer thread (if any).

        The structure stays usable afterwards -- a later flush restarts
        the writer lazily.
        """
        engine = self._engine
        if engine is not None:
            engine.close()

    def clear_fault(self) -> None:
        """Acknowledge a background-flush failure and resume."""
        engine = self._engine
        if engine is not None:
            engine.clear_fault()

    def _submit_plan(self, plan, records: int) -> None:
        """Hand one flush plan to the engine (subclass flush helper).

        Converts the drained record count into simulated fill seconds
        (the ``stream_rate`` config knob), forwards to the engine, and
        emits the ``flush_pipelined`` / ``io_coalesced`` trace events
        plus the queue-depth/stall gauges on the ingest thread.
        """
        engine = self._engine
        plan.records = records
        rate = getattr(getattr(self, "config", None), "stream_rate", None)
        fill = records / rate if rate else 0.0
        summary = engine.submit(plan, fill_seconds=fill)
        if engine.pipeline:
            self._emit("flush_pipelined", records=records,
                       queue_depth=engine.queue_depth)
        if (summary["merged"] or summary["bridged_blocks"]
                or summary["overhead_saved"]):
            self._emit("io_coalesced", **summary)
        if self._registry is not None:
            labels = {"structure": self._obs_name}
            self._registry.gauge("pipeline.queue_depth", **labels).set(
                engine.queue_depth)
            self._registry.gauge("pipeline.stall_seconds", **labels).set(
                engine.stall_seconds)

    # -- observability ------------------------------------------------------

    def stats(self) -> ReservoirStats:
        """Frozen snapshot of progress and cost; see :class:`ReservoirStats`.

        Every structure answers this identically: stream position,
        admissions, flushes, simulated clock, the backing device's
        cumulative I/O counters, and structure-specific extras.
        """
        # Device counters are only coherent once in-flight background
        # flushes land; the barrier is a no-op for synchronous engines.
        self.flush_barrier()
        io = None
        device = getattr(self, "device", None)
        device_stats = getattr(device, "stats", None)
        if callable(device_stats):
            io = device_stats()
        extra = self._stats_extra()
        if self._engine is not None:
            extra = {**extra, "pipeline": self._engine.stats()}
        return ReservoirStats(
            name=self.name,
            capacity=self.capacity,
            seen=self._seen,
            samples_added=self._samples_added,
            flushes=int(getattr(self, "flushes", 0)),
            clock=self._clock(),
            io=io,
            extra=extra,
        )

    def _stats_extra(self) -> dict:
        """Structure-specific counters for :meth:`stats` (subclass hook)."""
        return {}

    def instrument(self, registry, trace=None, *, name: str | None = None) -> None:
        """Attach a metrics registry (and optionally a trace sink).

        The backing device mirrors its I/O counters into ``registry``
        under the ``structure=name`` label, and every structural event
        (flush, segment overwrite, ...) bumps an ``events.*`` counter
        and lands in ``trace``.  Instrumentation charges no simulated
        time: instrumented and bare runs produce identical clocks.

        Args:
            registry: a :class:`repro.obs.MetricsRegistry`.
            trace: optional :class:`repro.obs.TraceSink`.
            name: label value; defaults to the structure's ``name``.
        """
        self._obs_name = name if name is not None else self.name
        self._registry = registry
        self._trace = trace
        self._event_counters = {}
        device = getattr(self, "device", None)
        device_instrument = getattr(device, "instrument", None)
        if callable(device_instrument):
            device_instrument(registry, name=self._obs_name)

    def _emit(self, kind: str, **fields) -> None:
        """Record one structural event on the attached observers.

        A no-op (beyond two attribute checks) when the structure is not
        instrumented, so emission sites can be unconditional.
        """
        if self._registry is not None:
            counter = self._event_counters.get(kind)
            if counter is None:
                counter = self._registry.counter(
                    f"events.{kind}", structure=self._obs_name)
                self._event_counters[kind] = counter
            counter.inc()
        if self._trace is not None:
            self._trace.emit(kind, self._obs_name, self._clock(), **fields)

    # -- hot AQP subsample ---------------------------------------------------

    def enable_aqp_cache(self, budget: int = 4096, *, seed: int = 0):
        """Attach (or return) the memory-resident AQP hot subsample.

        Every record-bearing ingest verb feeds the cache from then on;
        count-only paths mark it incoherent (see
        :class:`repro.estimate.planner.HotSubsample`).  The cache owns
        an independent RNG, so enabling it never perturbs the
        structure's own streams -- an instrumented twin stays bit-exact.
        Idempotent: a second call returns the existing cache.
        """
        if not self._law.is_uniform:
            raise TypeError(
                f"AQP hot cache assumes a uniform stream sample; "
                f"law {self._law.name!r} maintains a different "
                "distribution")
        if self._hot is None:
            from .estimate.planner import HotSubsample
            schema = getattr(self, "schema", None)
            if schema is None:
                from .storage.records import RecordSchema
                record_size = getattr(getattr(self, "config", None),
                                      "record_size", 100)
                schema = RecordSchema(record_size)
            self._hot = HotSubsample(schema, budget, seed=seed,
                                     stream_seen=self._seen)
        return self._hot

    @property
    def aqp_cache(self):
        """The attached hot subsample, or ``None``."""
        return self._hot

    # -- ingestion ---------------------------------------------------------

    @property
    def law(self):
        """The :class:`~repro.sampling.laws.SamplingLaw` in charge."""
        return self._law

    def offer(self, record: Record) -> None:
        """Present one stream record (record-level exact path)."""
        self._check_engine()
        self._check_payloads((record,))
        self._seen += 1
        if self._hot is not None:
            self._hot.observe(record)
        if self._law.admit(self, record):
            self._samples_added += 1
            self._admit(record)

    def offer_many(self, records) -> int:
        """Present a batch of stream records (vectorised fast path).

        One numpy draw decides every admission in the batch, and the
        admitted records reach the structure through a single
        :meth:`_admit_many` call, so the per-record Python cost
        collapses to array slicing.  The output distribution is
        identical to calling :meth:`offer` once per record (tested in
        ``tests/test_batch_ingest.py``); only the RNG stream consumed
        differs.

        Args:
            records: a sequence of records (``None`` payloads are legal
                in count-only mode, exactly as for :meth:`offer`).

        Returns:
            The number of records admitted into the reservoir.
        """
        self._check_engine()
        if not isinstance(records, (list, tuple)):
            records = list(records)
        self._check_payloads(records)
        n = len(records)
        if n == 0:
            return 0
        if self._hot is not None:
            self._hot.observe_many(records)
        first = self._seen + 1
        last = self._seen + n
        self._seen = last
        admitted = self._law.select_many(self, records, first, last)
        if admitted:
            self._samples_added += len(admitted)
            self._admit_many(admitted)
        return len(admitted)

    def offer_batch(self, batch) -> int:
        """Present a batch of stream records (the protocol batch verb).

        Accepts either a
        :class:`~repro.storage.recordbatch.RecordBatch` or any plain
        sequence of records -- the one batch entry point the unified
        :class:`~repro.core.protocols.Reservoir` protocol names.  A
        ``RecordBatch`` takes the columnar twin of :meth:`offer_many`:
        the admission mask is the same single vectorised draw, but the
        admitted records stay a column slab end to end -- they reach
        the structure through :meth:`_admit_batch`, which columnar
        structures implement with slice copies (structures without a
        columnar path decode once and fall through to
        :meth:`_admit_many`; identical admission law either way).  A
        plain sequence routes to :meth:`offer_many` unchanged.

        Returns:
            The number of records admitted into the reservoir.
        """
        from .storage.recordbatch import RecordBatch

        if not isinstance(batch, RecordBatch):
            return self.offer_many(batch)
        self._check_engine()
        n = len(batch)
        if n == 0:
            return 0
        if self._hot is not None:
            self._hot.observe_batch(batch)
        first = self._seen + 1
        last = self._seen + n
        self._seen = last
        admitted = self._law.select_batch(self, batch, first, last)
        count = len(admitted)
        if count:
            self._samples_added += count
            if isinstance(admitted, RecordBatch):
                self._admit_batch(admitted)
            else:
                # Record-decoding laws hand back a plain list; route it
                # through the object batch hook.
                self._admit_many(admitted if isinstance(admitted, list)
                                 else list(admitted))
        return count

    def _check_payloads(self, records) -> None:
        """Reject a record whose payload is wider than its slot before
        any state changes (a ``RecordBatch`` cannot carry one)."""
        if self._payload_schema is not None:
            self._payload_schema.check_payloads(records)

    def _admit_batch(self, batch) -> None:
        """Columnar admit hook; the default decodes to the object path."""
        self._admit_many(list(batch))

    # -- protocol queries --------------------------------------------------

    def snapshot(self, k: int | None = None, *, rng=None):
        """(:meth:`sample` result, stream position) in one call.

        The record-object twin of :meth:`snapshot_batch` and the
        :class:`~repro.core.protocols.Reservoir` protocol's consistent
        read: the returned ``seen`` count is the population size AQP
        estimators scale the sample by.  Subclasses provide
        ``sample()``; structures running count-only raise the same
        ``TypeError`` their ``sample()`` does.
        """
        return self.sample(k, rng=rng), self._seen

    def checkpoint(self) -> None:
        """Make the current state durable (protocol durability verb).

        For a bare structure durability means the backing device has
        absorbed every admitted record: this is :meth:`flush_barrier`.
        Wrappers that own persistent state override it with a real
        checkpoint write (:class:`~repro.core.managed.ManagedSample`
        saves its state file, the sharded service checkpoints every
        shard); the contract is identical -- on return, the work
        admitted before the call has reached its backing store.
        """
        self.flush_barrier()

    # -- reads -------------------------------------------------------------

    # A record-keeping structure exposes its resident slabs as
    # ``iter_ledgers()`` (objects with ``live`` and a ``records`` slab),
    # its pending rows as ``buffer.pending_view()`` and whether it is
    # still filling as ``in_startup``; the law assembles reads from
    # those.

    @property
    def sample_size(self) -> int:
        """Records a full :meth:`sample_batch` returns right now."""
        return self._law.sample_size(self)

    def sample(self, k: int | None = None, *, rng=None) -> list[Record]:
        """:meth:`sample_batch`'s rows as records (record-keeping mode).

        Args:
            k: optionally a uniform ``k``-subset; ``None`` returns the
                full reservoir.
            rng: a ``random.Random`` or ``numpy.random.Generator`` for
                every draw of the read.  Without one, both draws come
                from one generator seeded by one word of the
                structure's ``random.Random`` (:func:`bulk_generator`),
                and none from its numpy generator.
        """
        gen = bulk_generator(self._rng if rng is None else rng)
        return self._read(k, gen, gen).to_records()

    def sample_batch(self, k: int | None = None, *, rng=None):
        """The current reservoir, or a uniform ``k``-subset of it, as
        one :class:`~repro.storage.recordbatch.RecordBatch`.

        At flush boundaries the reservoir is exactly the disk-resident
        sample; in between, each buffered row displaces a uniform disk
        row, so a read is a valid size-``min(N, seen)`` sample at any
        instant.  A uniform-law ``k``-read gathers only its ``k`` rows
        (see :meth:`~repro.sampling.laws.UniformLaw.read_batch`).

        Args:
            k: optionally a uniform ``k``-subset, uniformly ordered.
            rng: a ``numpy.random.Generator`` (or ``random.Random``)
                for every draw of the read, so a query need not touch
                the structure's own streams.  Without one, the pending
                rows' victims come from a generator seeded by one word
                of the structure's ``random.Random``
                (:func:`bulk_generator`) and the ``k`` positions from
                its numpy generator (one ``choice(size, k)``), so a
                read moves each stream by a fixed budget whatever it
                returns.
        """
        if rng is None:
            return self._read(k, bulk_generator(self._rng), self._np_rng)
        gen = bulk_generator(rng)
        return self._read(k, gen, gen)

    def _read(self, k: int | None, victims_rng, positions_rng):
        from .storage.recordbatch import RecordBatch

        self.flush_barrier()
        schema = self._payload_schema
        if schema is None:
            raise TypeError(f"{self.name} is running in count-only mode")
        return RecordBatch(schema, self._law.read_batch(
            self, k, victims_rng, positions_rng))

    def snapshot_batch(self, k: int | None = None, *, rng=None):
        """(:meth:`sample_batch` result, stream position) in one call.

        The columnar twin of the sharded service's ``snapshot``: the
        returned ``seen`` count is what merge allocation weighs.
        """
        return self.sample_batch(k, rng=rng), self._seen

    def ingest(self, n: int) -> None:
        """Present ``n`` stream records (count-only fast path)."""
        self._check_engine()
        if n < 0:
            raise ValueError("cannot ingest a negative count")
        if n == 0:
            return
        if self._hot is not None:
            self._hot.observe_count(n)
        self._seen += n
        admitted = self._law.select_count(self, n)
        if admitted:
            self._samples_added += admitted
            self._admit_count(admitted)

    # -- protected feeder API -----------------------------------------------
    #
    # Skip-based drivers (repro.sampling.feeder) decide admissions
    # *outside* the reservoir -- the gap draw is the N/i law -- and use
    # these two hooks to report the outcome, instead of poking _seen /
    # _samples_added / _admit directly.  Keeping the writes here means
    # stats() invariants and future batch hooks hold for every caller.

    def _advance_skipped(self, n: int) -> None:
        """Record that ``n`` stream records passed by unsampled."""
        if n < 0:
            raise ValueError("cannot skip a negative number of records")
        if self._hot is not None:
            # Skipped records never materialise, so the hot subsample
            # cannot stay a uniform sample of the stream: mark it
            # incoherent and let the planner's next escalation re-seed.
            self._hot.observe_count(n)
        self._seen += n

    def _accept(self, record: Record | None) -> None:
        """Accept one stream record whose admission was decided upstream."""
        if self._hot is not None:
            self._hot.observe_count(1)
        self._seen += 1
        self._samples_added += 1
        self._admit(record)

    def _accept_many(self, records: list[Record | None]) -> None:
        """Batch form of :meth:`_accept` (one :meth:`_admit_many` call)."""
        if not records:
            return
        if self._hot is not None:
            self._hot.observe_count(len(records))
        self._seen += len(records)
        self._samples_added += len(records)
        self._admit_many(records)

    @staticmethod
    def apply_pending_batch(disk: np.ndarray, pending: np.ndarray,
                            rng: random.Random | np.random.Generator
                            ) -> np.ndarray:
        """Materialise a valid sample mid-flush, over structured rows.

        Each buffered row joined the reservoir by (deferred) evicting
        one uniformly random *disk-resident* row -- sequential draws
        without replacement, i.e. a uniform random ``len(pending)``-
        subset of the disk rows dies (:func:`draw_distinct`).  Victims
        are overwritten *in place* by the pending rows: the multiset
        survivors-plus-pending, one fancy-index write instead of an
        O(n) rebuild.  ``disk`` must be a freshly allocated array the
        caller owns -- typically the ``np.concatenate`` of ledger slabs.
        """
        if len(pending) == 0:
            return disk
        if len(pending) > len(disk):
            raise ValueError("more pending records than disk residents")
        victims = draw_distinct(rng, len(disk), len(pending))
        disk[victims] = pending
        return disk

    #: Dense-draw chunk bound for _count_uniform_admissions: caps every
    #: transient allocation at ~8 MB regardless of the ingest size.
    _ADMISSION_CHUNK = 1 << 20

    def _count_uniform_admissions(self, n: int) -> int:
        """Exactly sample how many of ``n`` offers pass the ``N/i`` gate.

        The count is a Poisson-binomial draw (position ``i`` admits
        independently with probability ``min(1, N/i)``), decomposed into
        chunks of bounded memory so ``ingest(10**9)`` never allocates an
        O(n) array:

        * positions at or below ``N`` always admit -- O(1);
        * a chunk ``[a, b]`` with ``b < 2a`` and ``N/a <= 1/2`` is drawn
          in two exact stages: ``K ~ Binomial(b - a + 1, N/a)``
          candidate positions (a uniform K-subset of the chunk), each
          thinned with probability ``(N/j) / (N/a) = a/j`` -- O(K)
          memory with ``E[K] <= (b - a + 1) / 2``;
        * the few chunks where ``N/a > 1/2`` (positions within 2x of
          capacity) fall back to the dense vectorised Bernoulli draw,
          bounded by ``_ADMISSION_CHUNK`` positions.

        The two-stage split is exact: a Bernoulli(``N/j``) event is the
        conjunction of independent Bernoulli(``N/a``) and
        Bernoulli(``a/j``) events, and the Binomial successes of i.i.d.
        trials form a uniform subset of the positions.
        """
        last = self._seen
        first = last - n + 1
        rng = self._np_rng
        capacity = self.capacity
        admitted = 0
        if first <= capacity:
            bound = min(last, capacity)
            admitted += bound - first + 1
            first = bound + 1
        a = first
        while a <= last:
            b = min(last, 2 * a - 1, a + self._ADMISSION_CHUNK - 1)
            length = b - a + 1
            p_max = capacity / a
            if p_max > 0.5:
                positions = np.arange(a, b + 1, dtype=np.float64)
                admitted += int(((rng.random(length) * positions)
                                 < capacity).sum())
            else:
                k = int(rng.binomial(length, p_max))
                if k:
                    if 2 * k > length:
                        # An extreme binomial draw can exceed the
                        # rejection sampler's guarantee; a dense draw
                        # over the (chunk-bounded) range stays exact.
                        pool = rng.permutation(
                            np.arange(a, b + 1, dtype=np.int64))
                        candidates = pool[:k]
                    else:
                        candidates = _distinct_integers(rng, a, b + 1, k)
                    admitted += int(((rng.random(k) * candidates) < a).sum())
            a = b + 1
        return admitted
