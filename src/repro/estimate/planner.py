"""Tiered AQP answering: a hot in-memory subsample with escalation.

The geometric file keeps the *full* sample on disk, but most queries
need only a small fraction of it to hit their error target (the paper's
Section 2 arithmetic: required sample size grows with the squared
coefficient of variation, not the data size).  This module adds the
memory tier:

* :class:`HotSubsample` -- a bounded, memory-resident uniform
  sub-reservoir of the offered stream, kept coherent with ingest by the
  ``enable_aqp_cache`` hooks every reservoir front-end grew.  Records
  live in one columnar numpy slab (the record schema's packed dtype),
  so answering from the cache is a handful of array reductions.
* :class:`QueryPlanner` -- given an aggregate with an accuracy target
  ``(error, confidence)``, computes the CLT bound on the cached
  subsample first; if the bound holds the answer is served from memory
  (no engine call, no ``flush_barrier``), otherwise the planner sizes a
  disk draw from the *observed* variance (:func:`required_sample_size`)
  and escalates through the engine's columnar ``snapshot_batch`` path.

Uniformity of the cache is the classic reservoir argument, stated in
the same exchangeability terms as :mod:`repro.core.subsample`: stream
record ``i`` is admitted with probability ``min(1, m / i)`` and, once
the slab is full, overwrites a uniformly chosen resident -- so at every
stream position the cached set is a uniform ``m``-subset of the records
seen (chi-square tested under sustained overwrite churn).
:meth:`HotSubsample.refresh` reuses the ledger machinery directly: the
escalation draw is wrapped, pre-shuffled, in a tail-only
:class:`~repro.core.subsample.SubsampleLedger` and thinned with its
``evict`` tail-pop -- a uniform choice for an exchangeable sequence,
the exact contract the ledger documents.

Coherence protocol: the cache subscribes to the record-bearing ingest
verbs (``offer`` / ``offer_many`` / ``offer_batch``).  Paths that
advance the stream without materialising payloads (count-only
``ingest``, skip-gap feeders) mark the cache *incoherent*; the planner
then escalates every query until a disk draw arrives, and re-seeds the
cache from that draw (a uniform sample of the whole stream), restoring
coherence automatically.  See docs/AQP.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.subsample import SubsampleLedger
from ..storage.recordbatch import RecordBatch
from ..storage.records import Record, RecordSchema
from .aqp import BatchQuery
from .clt import ConfidenceInterval, required_sample_size
from .estimators import Estimate, estimate_mean, estimate_sum

#: Default cache budget in records (~400 KB at 100 B records): large
#: enough to certify a 5%-error aggregate at cv <= 1.6, small enough to
#: be irrelevant next to the buffer the structure already holds.
DEFAULT_BUDGET = 4096


class HotSubsample:
    """A bounded memory-resident uniform sub-reservoir of the stream.

    Args:
        schema: record schema; supplies the slab dtype.
        budget: maximum cached records ``m``.
        seed: seed for the cache's *own* numpy generator.  The cache
            never draws from the owning structure's RNG streams, so
            enabling it leaves ingest, flush, and query draws
            bit-exact with an uncached twin (a gated property).
        stream_seen: the owning engine's stream position at enable
            time.  Non-zero means records already passed unobserved,
            so the cache starts incoherent and waits for the first
            escalation draw to seed it.
    """

    def __init__(self, schema: RecordSchema, budget: int = DEFAULT_BUDGET,
                 *, seed: int = 0, stream_seen: int = 0) -> None:
        if budget < 2:
            raise ValueError("cache budget must be at least 2")
        if stream_seen < 0:
            raise ValueError("stream_seen must be non-negative")
        self.schema = schema
        self.budget = budget
        # Effective reservoir size: shrinks only when a refresh draw is
        # smaller than the budget (Algorithm R stays uniform at any
        # fixed m; growing m mid-stream would not).
        self._m = budget
        self._array = np.zeros(budget, dtype=schema.dtype)
        self.fill = 0
        #: Stream records this cache has accounted for (its population).
        self.seen = int(stream_seen)
        #: False once stream records passed without payloads; queries
        #: must escalate until :meth:`refresh` re-seeds the cache.
        self.coherent = stream_seen == 0
        self.admissions = 0
        self.replacements = 0
        self.refreshes = 0
        self._rng = np.random.default_rng(
            np.random.SeedSequence([seed & 0xFFFFFFFF, 0xA9B]))

    # -- ingest subscription ------------------------------------------------

    def observe(self, record: Record | None) -> None:
        """Account one offered stream record (admit w.p. ``m/seen``)."""
        self.seen += 1
        if record is None:
            self.coherent = False
            return
        m = self._m
        if self.fill < m and self.coherent:
            self._array[self.fill] = self._encode(record)
            self.fill += 1
            self.admissions += 1
        elif self._rng.random() * self.seen < m:
            victim = int(self._rng.integers(m))
            self._array[victim] = self._encode(record)
            self.admissions += 1
            self.replacements += 1

    def observe_many(self, records) -> None:
        """Account a batch of offered records (one vectorised draw).

        Same admission law as :meth:`observe` record by record --
        position ``i`` admits with probability ``min(1, m/i)``, each
        overflow admission overwriting a uniformly chosen resident --
        with the uniforms drawn in one block.  ``None`` payloads
        (count-only callers) mark the cache incoherent.
        """
        n = len(records)
        if n == 0:
            return
        if any(r is None for r in records):
            self.seen += n
            self.coherent = False
            return
        rows = self._admitted_rows(
            n, lambda idx: RecordBatch.from_records(
                self.schema, [records[i] for i in idx]).array)
        if rows is not None:
            self._place(rows)

    def observe_batch(self, batch: RecordBatch) -> None:
        """Columnar twin of :meth:`observe_many` (no record objects)."""
        if batch.schema.dtype != self.schema.dtype:
            self.observe_many(list(batch))
            return
        n = len(batch)
        if n == 0:
            return
        rows = self._admitted_rows(n, lambda idx: batch.array[idx])
        if rows is not None:
            self._place(rows)

    def observe_count(self, n: int) -> None:
        """Account ``n`` stream records that carried no payloads."""
        if n < 0:
            raise ValueError("cannot observe a negative count")
        if n == 0:
            return
        self.seen += n
        self.coherent = False

    def _admitted_rows(self, n: int, gather) -> np.ndarray | None:
        """Advance ``seen`` by ``n`` and gather the admitted rows.

        ``gather`` maps admitted batch indices to structured rows, so
        only admitted records pay encoding cost (after warm-up the
        expected count per batch is ``m * ln(last/first)``).
        """
        first = self.seen + 1
        self.seen += n
        m = self._m
        if not self.coherent:
            # The slab no longer represents the stream; keep counting
            # but stop admitting until refresh() re-seeds it.
            return None
        positions = np.arange(first, first + n, dtype=np.float64)
        mask = (self._rng.random(n) * positions) < m
        if first <= m:
            mask[:max(0, m - first + 1)] = True
        index = np.flatnonzero(mask)
        if index.shape[0] == 0:
            return None
        return gather(index)

    def _place(self, rows: np.ndarray) -> None:
        """Write admitted rows: fill free slots, then overwrite victims.

        Victim indices are i.i.d. uniform over the slab (drawn with
        replacement, later writes winning), matching the sequential
        one-victim-per-admission law.
        """
        m = self._m
        warm = min(len(rows), m - self.fill)
        if warm > 0:
            self._array[self.fill:self.fill + warm] = rows[:warm]
            self.fill += warm
        rest = rows[warm:]
        if len(rest):
            victims = self._rng.integers(0, m, size=len(rest))
            self._array[victims] = rest
            self.replacements += len(rest)
        self.admissions += len(rows)

    # -- refresh / repair ----------------------------------------------------

    def refresh(self, sample, seen: int) -> None:
        """Re-seed the cache from a uniform draw of the whole stream.

        ``sample`` is a fresh engine draw (a :class:`RecordBatch` or a
        record list) representing stream position ``seen``.  The draw
        is shuffled into exchangeable order and, when larger than the
        budget, thinned through a tail-only
        :class:`~repro.core.subsample.SubsampleLedger` -- ``evict``
        pops from the end, a uniform choice for a pre-shuffled
        sequence, which is exactly the ledger's documented eviction
        contract.  Restores coherence.
        """
        if isinstance(sample, RecordBatch):
            batch = sample
            if batch.schema.dtype != self.schema.dtype:
                batch = RecordBatch.from_records(self.schema, list(batch))
        else:
            batch = RecordBatch.from_records(self.schema, list(sample))
        if seen < len(batch):
            raise ValueError("stream position smaller than the draw")
        slab = batch.take(self._rng.permutation(len(batch)))
        if len(slab) > self.budget:
            ledger = SubsampleLedger(ident=-1, segment_sizes=(),
                                     first_level=0, tail_size=len(slab),
                                     records=slab)
            ledger.evict(len(slab) - self.budget)
            ledger.check_invariant()
        self._m = min(self.budget, len(slab))
        self.fill = len(slab)
        self._array[:self.fill] = slab.array
        self.seen = int(seen)
        self.coherent = True
        self.refreshes += 1

    # -- queries -------------------------------------------------------------

    def view(self) -> RecordBatch:
        """The cached records as a zero-copy :class:`RecordBatch`."""
        return RecordBatch(self.schema, self._array[:self.fill])

    def query(self) -> BatchQuery:
        """A :class:`BatchQuery` over the cache, scaled by its ``seen``."""
        return BatchQuery(self.view(), self.seen)

    def staleness(self, engine_seen: int | None = None) -> float:
        """Fraction of the stream the cache has not accounted for."""
        if engine_seen is None:
            return 0.0 if self.coherent else 1.0
        if engine_seen <= 0:
            return 0.0
        behind = max(0, engine_seen - self.seen)
        if behind == 0 and not self.coherent:
            return 1.0
        return behind / engine_seen

    def check_invariant(self) -> None:
        """Assert the cache's conservation laws hold."""
        if not 0 <= self.fill <= self._m <= self.budget:
            raise AssertionError(
                f"hot subsample: fill={self.fill} m={self._m} "
                f"budget={self.budget}")
        if self.coherent and self.fill != min(self.seen, self._m):
            raise AssertionError(
                f"hot subsample: fill={self.fill} for seen={self.seen}, "
                f"m={self._m}")

    def _encode(self, record: Record) -> np.ndarray:
        return np.frombuffer(self.schema.encode(record),
                             dtype=self.schema.dtype)[0]


@dataclass(frozen=True)
class AqpAnswer:
    """One planned aggregate answer.

    Attributes:
        estimate: the point estimate with its standard error.
        interval: the CLT interval at the answering confidence.
        tier: ``"cache"`` (served from memory) or ``"disk"``
            (escalated to an engine draw).
        n_used: sample rows the estimate was computed from.
        target_met: whether the interval meets the relative-error
            target (an escalated answer can still miss it when the
            engine cannot supply enough rows).
        k_drawn: escalation draw size (``None`` for cache hits).
        reason: why the planner escalated (``None`` for cache hits).
    """

    estimate: Estimate
    interval: ConfidenceInterval
    tier: str
    n_used: int
    target_met: bool
    k_drawn: int | None = None
    reason: str | None = None

    @property
    def value(self) -> float:
        return self.estimate.value


class QueryPlanner:
    """Tiered SUM/COUNT/AVG answering over any protocol reservoir.

    Args:
        engine: anything implementing the unified
            :class:`~repro.core.protocols.Reservoir` protocol and the
            ``enable_aqp_cache`` hook (``GeometricFile``,
            ``MultipleGeometricFiles``, ``ManagedSample``,
            ``ShardedReservoir``, ``ServeClient``).
        error: default relative-error target, e.g. ``0.01``.
        confidence: default confidence, e.g. ``0.95``.
        budget: hot-subsample budget in records.
        seed: seed for the cache's own RNG (never the engine's).
        min_cache_rows: below this many cached rows the planner always
            escalates (CLT bounds on a handful of rows are noise).
        safety: multiplier on the variance-derived draw size, absorbing
            the sampling error of the variance estimate itself.
        max_draw: hard cap on escalation draws; defaults to the
            engine's per-structure capacity (per *shard* for the
            sharded service -- the largest merged draw that is always
            answerable).
    """

    name = "aqp planner"

    def __init__(self, engine, *, error: float = 0.01,
                 confidence: float = 0.95, budget: int = DEFAULT_BUDGET,
                 seed: int = 0, min_cache_rows: int = 64,
                 safety: float = 1.5, max_draw: int | None = None) -> None:
        if not 0.0 < error:
            raise ValueError("error target must be positive")
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if min_cache_rows < 2:
            raise ValueError("min_cache_rows must be at least 2")
        if safety < 1.0:
            raise ValueError("safety multiplier must be >= 1")
        self.engine = engine
        self.error = error
        self.confidence = confidence
        self.min_cache_rows = min_cache_rows
        self.safety = safety
        self.cache: HotSubsample = engine.enable_aqp_cache(budget, seed=seed)
        self._shards = int(getattr(engine, "shards", 1) or 1)
        self._max_draw = (max_draw if max_draw is not None
                          else self._infer_max_draw())
        self._snapshot_batch = getattr(engine, "snapshot_batch", None)
        self.queries = 0
        self.hits = 0
        self.escalations = 0
        self._engine_seen = self.cache.seen
        # Observability hooks (mirrors the structures' _emit pattern).
        self._registry = None
        self._trace = None
        self._obs_name = self.name
        self._event_counters: dict = {}

    # -- aggregates ----------------------------------------------------------

    def sum(self, column: str = "value", *,
            where: tuple[str, float, float] | None = None,
            error: float | None = None,
            confidence: float | None = None) -> AqpAnswer:
        """Population SUM(column), rows outside ``where`` contributing 0.

        ``where`` is an optional range predicate ``(column, low, high)``
        in :meth:`BatchQuery.filter` style.
        """
        return self._answer("sum", column, where, error, confidence)

    def count(self, where: tuple[str, float, float] | None = None, *,
              error: float | None = None,
              confidence: float | None = None) -> AqpAnswer:
        """Population COUNT of rows matching ``where`` (all when None)."""
        return self._answer("count", "value", where, error, confidence)

    def avg(self, column: str = "value", *,
            where: tuple[str, float, float] | None = None,
            error: float | None = None,
            confidence: float | None = None) -> AqpAnswer:
        """Mean of ``column`` over rows matching ``where``."""
        return self._answer("avg", column, where, error, confidence)

    # -- the tiered answer path ----------------------------------------------

    def _answer(self, kind: str, column: str,
                where: tuple[str, float, float] | None,
                error: float | None, confidence: float | None) -> AqpAnswer:
        error = self.error if error is None else error
        confidence = self.confidence if confidence is None else confidence
        self.queries += 1
        cache_q = self._usable_cache()
        if cache_q is not None:
            result = self._estimate(kind, cache_q, column, where)
            if result is not None:
                est, n_used = result
                interval = est.interval(confidence)
                if self._bound_holds(est, interval, error):
                    self.hits += 1
                    self._emit("aqp_cache_hit", aggregate=kind,
                               n=n_used, half_width=interval.half_width,
                               error=error)
                    self._gauges()
                    return AqpAnswer(est, interval, "cache", n_used,
                                     target_met=True)
        return self._escalate(kind, column, where, error, confidence,
                              cache_q)

    def _escalate(self, kind: str, column: str,
                  where: tuple[str, float, float] | None,
                  error: float, confidence: float,
                  cache_q: BatchQuery | None) -> AqpAnswer:
        if not self.cache.coherent:
            reason = "incoherent"
        elif cache_q is None:
            reason = "cold"
        else:
            reason = "bound_missed"
        k = self._plan_draw(kind, column, where, error, confidence, cache_q)
        batch, seen = self._draw(k)
        self._engine_seen = seen
        if not self.cache.coherent:
            # The draw is a uniform sample of the whole stream: re-seed
            # the cache from it so coherence self-heals after count-only
            # ingest (take() below copies, the estimate keeps its rows).
            self.cache.refresh(batch, seen)
        q = BatchQuery(batch, seen)
        result = self._estimate(kind, q, column, where)
        if result is None:
            # Degenerate even at disk size (an empty filter): report a
            # zero estimate with an infinite interval rather than fail.
            est = Estimate(0.0, math.inf)
            n_used = len(q)
        else:
            est, n_used = result
        interval = est.interval(confidence)
        self.escalations += 1
        self._emit("aqp_escalate", aggregate=kind, k=len(q), reason=reason)
        self._gauges()
        return AqpAnswer(est, interval, "disk", n_used,
                         target_met=self._bound_holds(est, interval, error),
                         k_drawn=len(q), reason=reason)

    # -- estimation helpers --------------------------------------------------

    def _usable_cache(self) -> BatchQuery | None:
        cache = self.cache
        if not cache.coherent or cache.fill < self.min_cache_rows:
            return None
        return cache.query()

    def _estimate(self, kind: str, q: BatchQuery, column: str,
                  where: tuple[str, float, float] | None
                  ) -> tuple[Estimate, int] | None:
        """(estimate, rows used) for one aggregate; None if degenerate."""
        n = len(q)
        if n < 2:
            return None
        values = q.batch.column(column).astype(np.float64, copy=False)
        mask = None
        if where is not None:
            mask = q.mask(*where)
        if kind == "avg":
            matching = values if mask is None else values[mask]
            if len(matching) < 2:
                return None
            return estimate_mean(matching), int(len(matching))
        if kind == "count":
            rows = (np.ones(n) if mask is None
                    else mask.astype(np.float64))
        else:
            rows = values if mask is None else np.where(mask, values, 0.0)
        return estimate_sum(rows, q._population), n

    @staticmethod
    def _bound_holds(est: Estimate, interval: ConfidenceInterval,
                     error: float) -> bool:
        if est.value == 0.0:
            return interval.half_width == 0.0
        return interval.half_width <= error * abs(est.value)

    # -- draw sizing ---------------------------------------------------------

    def _plan_draw(self, kind: str, column: str,
                   where: tuple[str, float, float] | None,
                   error: float, confidence: float,
                   cache_q: BatchQuery | None) -> int | None:
        """Choose ``k`` from the cache-observed variance.

        Without a usable cache there is nothing to size from, so the
        planner draws the engine default (``k=None``: the full
        structure / one shard's capacity) -- the same draw the
        pre-planner ``estimate_*`` path always paid.
        """
        ceiling = self._draw_ceiling()
        if cache_q is None or len(cache_q) < 2:
            return ceiling
        values = cache_q.batch.column(column).astype(np.float64, copy=False)
        mask = cache_q.mask(*where) if where is not None else None
        if kind == "avg":
            matching = values if mask is None else values[mask]
            selectivity = len(matching) / len(values)
            if len(matching) < 2 or selectivity <= 0.0:
                return ceiling
            rows, scale = matching, 1.0 / selectivity
        else:
            if kind == "count":
                rows = (np.ones(len(values)) if mask is None
                        else mask.astype(np.float64))
            else:
                rows = values if mask is None else np.where(mask, values, 0.0)
            scale = 1.0
        mean = float(rows.mean())
        std = float(rows.std(ddof=1))
        if mean == 0.0 or std == 0.0:
            return ceiling
        needed = required_sample_size(std, mean, error, confidence)
        k = math.ceil(needed * scale * self.safety)
        k = max(k, self.min_cache_rows)
        if ceiling is not None:
            k = min(k, ceiling)
        return k

    def _draw_ceiling(self) -> int | None:
        """The largest escalation draw that is always answerable."""
        bounds = []
        if self._max_draw is not None:
            bounds.append(self._max_draw)
        seen = max(self.cache.seen, self._engine_seen)
        if seen > 0:
            # Early in the stream a structure holds only `seen` records
            # (one shard roughly seen/shards); never over-ask.
            bounds.append(max(self.min_cache_rows,
                              seen // self._shards))
        return min(bounds) if bounds else None

    def _infer_max_draw(self) -> int | None:
        config = getattr(self.engine, "config", None)
        capacity = getattr(config, "capacity", None)
        if capacity is not None:
            return int(capacity)
        hello = getattr(self.engine, "hello", None)
        if callable(hello):
            try:
                meta = hello()
                capacity = int(meta.get("capacity", 0))
                shards = max(1, int(meta.get("shards", 1)))
                if capacity > 0:
                    self._shards = shards
                    return capacity // shards
            except Exception:
                return None
        capacity = getattr(self.engine, "capacity", None)
        if capacity is not None:
            return int(capacity) // self._shards
        return None

    def _draw(self, k: int | None):
        """One engine snapshot, columnar when the engine can."""
        try:
            if self._snapshot_batch is not None:
                return self._snapshot_batch(k)
        except ValueError:
            # k outran what the engine currently holds (a racing
            # estimate early in the stream): fall back to the always-
            # answerable engine default.
            return self._snapshot_batch(None)
        except TypeError:
            self._snapshot_batch = None  # engine has no columnar path
        records, seen = self.engine.snapshot(k)
        return RecordBatch.from_records(self.cache.schema, records), seen

    # -- observability -------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Fraction of planned queries answered from the cache."""
        return self.hits / self.queries if self.queries else 0.0

    def instrument(self, registry, trace=None, *,
                   name: str | None = None) -> None:
        """Attach observers: ``aqp_cache_hit``/``aqp_escalate`` trace
        events plus ``aqp.hit_rate`` / ``aqp.cache_staleness`` /
        ``aqp.cache_fill`` gauges."""
        self._obs_name = name if name is not None else self.name
        self._registry = registry
        self._trace = trace
        self._event_counters = {}

    def _emit(self, kind: str, **fields) -> None:
        if self._registry is not None:
            counter = self._event_counters.get(kind)
            if counter is None:
                counter = self._registry.counter(
                    f"events.{kind}", structure=self._obs_name)
                self._event_counters[kind] = counter
            counter.inc()
        if self._trace is not None:
            self._trace.emit(kind, self._obs_name, 0.0, **fields)

    def _gauges(self) -> None:
        if self._registry is None:
            return
        labels = {"structure": self._obs_name}
        self._registry.gauge("aqp.hit_rate", **labels).set(self.hit_rate)
        self._registry.gauge("aqp.cache_staleness", **labels).set(
            self.cache.staleness(self._engine_seen))
        self._registry.gauge("aqp.cache_fill", **labels).set(self.cache.fill)
