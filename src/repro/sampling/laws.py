"""Pluggable sampling laws over the geometric-file machinery.

The disk machinery of this repo -- buffer flushes, segment ladders,
LIFO stacks, columnar slabs, pipelined flush plans, checkpoints -- was
built for one law: the source paper's uniform reservoir sample.  This
module factors the *law* out of the *machinery*.  A
:class:`SamplingLaw` owns every distribution-bearing decision:

* **admission** -- which stream records enter the structure at all
  (scalar, vectorised-batch, and count-only forms);
* **placement** -- how an admitted record lands in the
  :class:`~repro.core.buffer.SampleBuffer` (Algorithm 2 replacement
  for the uniform law, plain staging for key-based laws, multiplicity
  fan-out for with-replacement);
* **victim selection** -- which resident records die at each flush
  (Algorithm 3's multivariate hypergeometric for uniform-victim laws,
  key-ordered culls for the others);
* **auxiliary state** -- per-record columns (keys, stream positions)
  carried in lock-step with the records through buffer, ledgers, and
  checkpoints;
* **materialisation** -- how a query-time sample is assembled from
  disk residents plus the in-flight buffer.

Four laws ship:

``uniform``
    The paper's Algorithm 1/2/3.  An engine constructed with the
    default config and one with ``law="uniform"`` are bit-exact twins
    (samples, DiskStats, clock).

``aexpj``
    Efraimidis-Spirakis weighted-without-replacement (A-ExpJ).  Each
    record draws a key ``u**(1/w)`` (kept in log domain, see
    :func:`~repro.sampling.weights.exp_jump_keys`); the maintained
    sample is exactly the ``N`` largest keys seen.  Batched admission
    uses the exponential-jump skip: with threshold key ``T`` the
    weight to skip is ``log(u)/log(T)``, the weighted analogue of the
    PR 2 Algorithm-Z gap draws.  Between flushes the threshold is the
    *flush-time* threshold -- a stale lower bound -- which admits a
    superset that the flush culls; since the final sample is the top
    ``N`` keys of *all* records regardless of processing order, and a
    key below the flush threshold can never re-enter the top ``N``
    (thresholds only rise), the maintained distribution is exact.

``wr``
    Weighted *with* replacement (Startek-style): the reservoir is
    ``N`` exchangeable slots and record ``i`` with weight ``w_i``
    replaces ``m_i ~ Binomial(N, w_i / W_i)`` of them (``W_i`` the
    running weight total).  The ``m_i`` copies land by replacing
    ``k ~ Hypergeometric(count, N - count, m_i)`` distinct buffered
    records and joining with the rest, so the existing
    uniform-victim flush machinery applies unchanged.  Per-slot
    marginals are exactly ``P(slot = i) = w_i / W``; the joint law is
    negatively correlated across slots (victims are drawn without
    replacement), a variance-reducing coupling of the i.i.d.-slot
    reference.

``window``
    Sliding-window priority sampling (Babcock/Datar/Motwani): every
    record is admitted with a key and its stream position; the
    logical sample is the top-``s`` keys among the last ``window``
    records.  The reservoir capacity ``N`` is the *candidate budget*:
    flush victims are expired records and dominated records (more
    than ``s`` newer records carry higher keys), so the expected
    candidate need is ``s * (1 + ln(window / s))``.  When the budget
    forces a true candidate out, :attr:`SlidingWindowLaw.\
overflow_events` counts it -- the windowed analogue of the paper's
    stack-overflow accounting.  A ``weight`` spec adds time-decay
    priority inside the window.

See docs/SAMPLING_LAWS.md for the law matrix, config keys, and bench
numbers.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import deque
from typing import Callable

import numpy as np

from ..reservoir import StreamReservoir, draw_distinct, hypergeometric
from ..storage.recordbatch import RecordBatch
from ..storage.records import Record
from .weights import (
    WeightFunction,
    check_weight,
    check_weights,
    exp_jump_keys,
    exponential_recency,
    uniform_weight,
    value_proportional,
)

#: Registered law names, accepted by ``GeometricFileConfig.law``.
LAW_NAMES = ("uniform", "aexpj", "wr", "window")

#: Named weight specs accepted in ``law_params`` (picklable stand-ins
#: for weight callables, so law configs cross process boundaries).
WEIGHT_SPECS = ("uniform", "value", "recency")


def _resolve_weight_fn(params: dict, weight_fn: WeightFunction | None
                       ) -> WeightFunction:
    """Pick the weight function: an explicit callable wins, else the
    picklable named spec from ``law_params`` (the sharded service can
    only ship plain data to worker processes)."""
    if weight_fn is not None:
        return weight_fn
    spec = params.get("weight", "uniform")
    if spec == "uniform":
        return uniform_weight
    if spec == "value":
        return value_proportional()
    if spec == "recency":
        half_life = params.get("half_life")
        if half_life is None:
            raise ValueError(
                "weight spec 'recency' needs a ('half_life', h) param")
        return exponential_recency(float(half_life))
    raise ValueError(
        f"unknown weight spec {spec!r}; expected one of {WEIGHT_SPECS} "
        "or pass weight_fn=")


def make_law(name: str, params: tuple = (),
             weight_fn: WeightFunction | None = None) -> "SamplingLaw":
    """Instantiate a law from its config spelling.

    Args:
        name: one of :data:`LAW_NAMES`.
        params: ``(key, value)`` pairs -- the
            ``GeometricFileConfig.law_params`` field (plain data, so it
            survives ``asdict``/JSON/pickle round trips).
        weight_fn: optional callable overriding the named weight spec
            for the weighted laws.
    """
    kv = dict(params)
    if name == "uniform":
        return UniformLaw()
    if name == "aexpj":
        return AExpJLaw(_resolve_weight_fn(kv, weight_fn))
    if name == "wr":
        return WeightedReplacementLaw(_resolve_weight_fn(kv, weight_fn))
    if name == "window":
        window = kv.get("window")
        if window is None:
            raise ValueError(
                "law 'window' needs a ('window', W) entry in law_params")
        return SlidingWindowLaw(
            int(window),
            sample_size=(int(kv["sample_size"])
                         if "sample_size" in kv else None),
            weight_fn=_resolve_weight_fn(kv, weight_fn),
        )
    raise ValueError(f"unknown sampling law {name!r}; "
                     f"expected one of {LAW_NAMES}")


class SamplingLaw:
    """Strategy protocol every sampling law implements.

    One law instance is bound to one structure (laws carry mutable
    state: thresholds, weight totals, pending auxiliary rows).  The
    engine calls the hooks in a fixed order:

    admission (``StreamReservoir`` verbs)
        :meth:`admit` / :meth:`select_many` / :meth:`select_batch` /
        :meth:`select_count` decide which records enter.  Laws with
        per-record auxiliary state stash one aux row per admitted
        record; placement consumes the stash in order.

    placement (``GeometricFile`` / ``MultipleGeometricFiles``)
        :meth:`place` / :meth:`place_many` / :meth:`place_batch` /
        :meth:`place_count` move admitted records into the buffer and
        trigger startup/steady flushes at the law's boundaries.

    victims (flush time)
        With :attr:`uniform_victims` the file keeps its Algorithm 3
        hypergeometric eviction; otherwise :meth:`plan_victims` picks
        the dead by content (keys/positions), applying old-ledger
        evictions itself and returning the drained-row victims for
        the freshly written ledger.

    reads (query time)
        :meth:`materialize_batch` assembles the current logical sample
        from the ledgers' slabs plus the buffer's; :meth:`read_batch`
        answers a ``k``-read, by default by thinning that, and
        :meth:`sample_size` says how many rows a full read holds.

    checkpoints
        :meth:`state_dict` / :meth:`restore_state` round-trip the
        law's scalar state; aux rows ride the ledger/buffer codecs.
    """

    name = "abstract"
    #: True only for :class:`UniformLaw` -- gates the bit-exact legacy
    #: paths (feeder skips, AQP hot cache, count-only ingest).
    is_uniform = False
    #: Flush victims are a uniform subset of residents: keep the
    #: file's Algorithm 3 eviction and ``apply_pending_batch`` reads.
    uniform_victims = False
    #: float64 aux columns carried per record (0 = none).
    aux_width = 0
    #: The law's samples can be merged across independent structures
    #: by ranking a shared per-record key (:meth:`sample_keyed`); the
    #: sharded service uses this for exact distributed queries.
    mergeable_by_key = False

    # -- admission ---------------------------------------------------------

    def admit(self, res: StreamReservoir, record: Record | None) -> bool:
        raise NotImplementedError

    def select_many(self, res: StreamReservoir, records, first: int,
                    last: int) -> list:
        raise NotImplementedError

    def select_batch(self, res: StreamReservoir, batch, first: int,
                     last: int):
        """Columnar admission; the default decodes to the object law.

        Key-based laws need per-record weight/key draws, so the batch
        verb decodes once and runs :meth:`select_many`; the admitted
        records still land in the columnar slab via placement.
        """
        return self.select_many(res, list(batch), first, last)

    def select_count(self, res: StreamReservoir, n: int) -> int:
        raise TypeError(
            f"law {self.name!r} needs each record's content; "
            "count-only ingest() is uniform-law only")

    # -- placement ---------------------------------------------------------

    def place(self, gf, record: Record | None) -> None:
        raise NotImplementedError

    def place_many(self, gf, records: list) -> None:
        for record in records:
            self.place(gf, record)

    def place_batch(self, gf, batch) -> None:
        self.place_many(gf, list(batch))

    def place_count(self, gf, n: int) -> None:
        raise TypeError(
            f"law {self.name!r} cannot place anonymous records")

    # -- victims -----------------------------------------------------------

    def plan_victims(self, gf, drained, drained_aux: np.ndarray,
                     count: int) -> np.ndarray:
        """Choose flush victims by content (non-uniform-victim laws).

        Called with the freshly drained records *before* the new
        ledger exists.  Must evict exactly ``count`` records in total:
        old-ledger victims are applied here via
        :meth:`~repro.core.subsample.SubsampleLedger.evict_indices`;
        the returned int64 array indexes victims among the drained
        records, which the file applies to the new ledger after its
        segments are written (booked as ghost stack debt, exactly like
        a uniform eviction outrunning the segment cascade).
        """
        raise NotImplementedError

    # -- reads -------------------------------------------------------------

    def materialize_batch(self, gf, gen) -> np.ndarray:
        raise NotImplementedError

    def read_batch(self, gf, k: int | None, victims_rng,
                   positions_rng) -> np.ndarray:
        """Rows of a ``k``-read (``None``: the whole sample).

        Materialise-then-thin: ``victims_rng`` places the pending rows,
        then ``positions_rng`` draws a uniform ``k``-subset, in uniform
        order, of the materialised rows (each a numpy ``Generator``, or
        a ``random.Random`` that :func:`~repro.reservoir.draw_distinct`
        converts).
        """
        combined = self.materialize_batch(gf, victims_rng)
        if k is None:
            return combined
        if k > len(combined):
            raise ValueError(
                f"cannot draw {k} records from a sample of {len(combined)}")
        return combined[draw_distinct(positions_rng, len(combined), k)]

    def sample_size(self, gf) -> int:
        """Rows a full read holds right now (materialises to count them;
        laws with uniform victims override)."""
        return len(self.materialize_batch(gf, np.random.default_rng(0)))

    # -- checkpoint --------------------------------------------------------

    def state_dict(self) -> dict | None:
        """JSON-safe scalar state (``None`` when stateless)."""
        return None

    def restore_state(self, state: dict) -> None:
        pass

    def stats_extra(self) -> dict:
        """Law counters surfaced through ``stats().extra['law']``."""
        return {}

    def validate_config(self, config) -> None:
        """Reject config combinations the law cannot honour."""

    # -- shared helpers ----------------------------------------------------

    def _disk_parts(self, gf) -> list[np.ndarray]:
        return [ledger.records.array for ledger in gf.iter_ledgers()
                if ledger.records is not None and len(ledger.records)]

    def _all_rows(self, gf) -> np.ndarray:
        """Every resident row, then every pending one: the row order of
        the aux keys :meth:`_disk_aux` and ``aux_view`` concatenate."""
        parts = self._disk_parts(gf)
        pending = gf.buffer.pending_view()
        if len(pending):
            parts = parts + [pending]
        return (np.concatenate(parts) if parts
                else np.empty(0, dtype=gf.schema.dtype))

    def _materialize_pending(self, gf, gen) -> np.ndarray:
        """Disk rows with each pending row overwriting a uniform victim
        (every row while the reservoir is still filling)."""
        dtype = gf.schema.dtype
        parts = self._disk_parts(gf)
        pending = gf.buffer.pending_view()
        if gf.in_startup:
            if len(pending):
                parts = parts + [pending]
            return (np.concatenate(parts) if parts
                    else np.empty(0, dtype=dtype))
        combined = (np.concatenate(parts) if parts
                    else np.empty(0, dtype=dtype))
        return StreamReservoir.apply_pending_batch(combined, pending, gen)

    @staticmethod
    def _pending_apply_size(gf) -> int:
        """Full-read size when pending rows displace disk rows."""
        disk = sum(ledger.live for ledger in gf.iter_ledgers())
        return disk + gf.buffer.count if gf.in_startup else disk

    def _disk_aux(self, gf) -> np.ndarray:
        parts = [ledger.aux for ledger in gf.iter_ledgers()
                 if ledger.aux is not None and len(ledger.aux)]
        if not parts:
            return np.zeros((0, self.aux_width))
        return np.concatenate(parts)

    def _gather_eviction_pool(self, gf, drained_aux: np.ndarray):
        """(ledgers, aux, owner, row) over residents plus the drain.

        ``owner`` holds the ledger index (``-1`` for drained rows) and
        ``row`` the index within that owner, so a victim subset maps
        straight back to per-ledger ``evict_indices`` calls.  Iterates
        ledgers in the same order the materialise helpers concatenate
        them, keeping every row <-> aux pairing aligned.
        """
        ledgers = list(gf.iter_ledgers())
        aux_parts, owner_parts, row_parts = [], [], []
        for index, ledger in enumerate(ledgers):
            aux = ledger.aux
            n = 0 if aux is None else len(aux)
            if not n:
                continue
            aux_parts.append(aux)
            owner_parts.append(np.full(n, index, dtype=np.int64))
            row_parts.append(np.arange(n, dtype=np.int64))
        n = len(drained_aux)
        aux_parts.append(drained_aux)
        owner_parts.append(np.full(n, -1, dtype=np.int64))
        row_parts.append(np.arange(n, dtype=np.int64))
        return (ledgers, np.concatenate(aux_parts),
                np.concatenate(owner_parts), np.concatenate(row_parts))

    def _apply_victims(self, ledgers, owner: np.ndarray, row: np.ndarray,
                       victims: np.ndarray) -> np.ndarray:
        """Evict old-ledger victims; return the drained-row victims."""
        v_owner = owner[victims]
        v_row = row[victims]
        for index in np.unique(v_owner):
            if index < 0:
                continue
            ledgers[int(index)].evict_indices(v_row[v_owner == index])
        return np.sort(v_row[v_owner == -1])


class UniformLaw(SamplingLaw):
    """The source paper's law: Algorithm 1's ``N/i`` gate, Algorithm 2's
    placement and Algorithm 3's uniform victims.

    Scalar verbs draw from the structure's ``random.Random``; the batch
    and count-only verbs decide admissions, joins and victim counts
    from its numpy ``Generator`` alone, so on those verbs the simulated
    disk per seed does not depend on how the ``random.Random`` is spent
    (drains and reads take one word of it each).  ``law="uniform"`` and
    the default construction are bit-exact twins (tested).
    """

    name = "uniform"
    is_uniform = True
    uniform_victims = True

    # -- admission (StreamReservoir.offer*/ingest bodies) ------------------

    def admit(self, res: StreamReservoir, record: Record | None) -> bool:
        if res.admission == "always" or res._seen <= res.capacity:
            return True
        return res._rng.random() * res._seen < res.capacity

    def select_many(self, res: StreamReservoir, records, first: int,
                    last: int) -> list:
        n = len(records)
        if res.admission == "always" or last <= res.capacity:
            return records if isinstance(records, list) else list(records)
        positions = np.arange(first, last + 1, dtype=np.float64)
        mask = (res._np_rng.random(n) * positions) < res.capacity
        if first <= res.capacity:
            mask[:res.capacity - first + 1] = True
        return [records[i] for i in np.flatnonzero(mask)]

    def select_batch(self, res: StreamReservoir, batch, first: int,
                     last: int):
        n = len(batch)
        if res.admission == "always" or last <= res.capacity:
            return batch
        positions = np.arange(first, last + 1, dtype=np.float64)
        mask = (res._np_rng.random(n) * positions) < res.capacity
        if first <= res.capacity:
            mask[:res.capacity - first + 1] = True
        return batch.take(np.flatnonzero(mask))

    def select_count(self, res: StreamReservoir, n: int) -> int:
        if res.admission == "always":
            return n
        return res._count_uniform_admissions(n)

    # -- placement (GeometricFile._admit* bodies) --------------------------

    def place(self, gf, record: Record | None) -> None:
        if gf.in_startup:
            gf.buffer.append(record)
            if gf.buffer.count >= gf._startup_sizes[gf._startup_index]:
                gf._startup_flush()
            return
        gf.buffer.add_admitted(record, gf.capacity)
        if gf.buffer.is_full:
            gf._flush()

    def place_many(self, gf, records: list) -> None:
        if gf.config.retain_records:
            # A record list reaches the slab buffer encoded once.
            if any(record is None for record in records):
                raise ValueError("record-retaining buffer needs the record")
            self.place_batch(gf, RecordBatch.from_records(gf.schema, records))
            return
        # Count-only: place_batch's draws, with nothing to store.
        i = 0
        n = len(records)
        while i < n:
            if gf.in_startup:
                target = gf._startup_sizes[gf._startup_index]
                take = min(n - i, target - gf.buffer.count)
                gf.buffer.append_count(take)
                i += take
                if gf.buffer.count >= target:
                    gf._startup_flush()
            else:
                i += gf.buffer.absorb_count(n - i, gf.capacity)
                if gf.buffer.is_full:
                    gf._flush()

    def place_batch(self, gf, batch) -> None:
        i = 0
        n = len(batch)
        while i < n:
            if gf.in_startup:
                target = gf._startup_sizes[gf._startup_index]
                take = min(n - i, target - gf.buffer.count)
                gf.buffer.extend_batch(batch[i:i + take])
                i += take
                if gf.buffer.count >= target:
                    gf._startup_flush()
            else:
                i += gf.buffer.absorb_batch(batch, gf.capacity, start=i)
                if gf.buffer.is_full:
                    gf._flush()

    def place_count(self, gf, n: int) -> None:
        while n > 0:
            if gf.in_startup:
                target = gf._startup_sizes[gf._startup_index]
            else:
                target = gf.buffer.capacity
            take = min(n, target - gf.buffer.count)
            gf.buffer.append_count(take)
            n -= take
            if gf.buffer.count >= target:
                if gf.in_startup:
                    gf._startup_flush()
                else:
                    gf._flush()

    # -- reads (GeometricFile.sample* bodies) ------------------------------

    def materialize_batch(self, gf, gen) -> np.ndarray:
        return self._materialize_pending(gf, gen)

    def sample_size(self, gf) -> int:
        return self._pending_apply_size(gf)

    def read_batch(self, gf, k: int | None, victims_rng,
                   positions_rng) -> np.ndarray:
        """A ``k``-read that gathers only the ``k`` rows it returns.

        It makes materialise-then-thin's draws, in its order and with
        its checks between them -- the pending rows' victims among the
        disk rows, then ``k`` positions of the materialised order -- and
        resolves each position without building that order: a victim
        position yields its pending row, any other disk position its
        (ledger, row) pair, found by a ``searchsorted`` over the
        ledgers' cumulative live counts.  From the same generator
        states it returns the very rows materialise-then-thin does.
        """
        if k is None:
            return self.materialize_batch(gf, victims_rng)
        ledgers = [ledger for ledger in gf.iter_ledgers() if ledger.live]
        lives = np.fromiter((ledger.live for ledger in ledgers),
                            dtype=np.int64, count=len(ledgers))
        ends = np.cumsum(lives)
        disk = int(ends[-1]) if len(ends) else 0
        pending = gf.buffer.pending_view()
        startup = gf.in_startup
        size = disk + len(pending) if startup else disk
        victims = None
        if len(pending) and not startup:
            if len(pending) > disk:
                raise ValueError("more pending records than disk residents")
            victims = draw_distinct(victims_rng, disk, len(pending))
        if k > size:
            raise ValueError(
                f"cannot draw {k} records from a sample of {size}")
        positions = draw_distinct(positions_rng, size, k)
        out = np.empty(k, dtype=gf.schema.dtype)
        on_disk = positions < disk
        if startup:
            # Past the disk rows, materialised order appends the buffer.
            tail = ~on_disk
            out[tail] = pending[positions[tail] - disk]
        elif victims is not None:
            order = np.argsort(victims)
            ranked = victims[order]
            slot = np.minimum(np.searchsorted(ranked, positions),
                              len(ranked) - 1)
            hit = ranked[slot] == positions
            out[hit] = pending[order[slot[hit]]]
            on_disk &= ~hit
        where = np.flatnonzero(on_disk)
        owner = np.searchsorted(ends, positions[where], side="right")
        rows = positions[where] - (ends - lives)[owner]
        by_owner = np.argsort(owner, kind="stable")
        bounds = np.searchsorted(owner[by_owner],
                                 np.arange(len(ledgers) + 1))
        for index, ledger in enumerate(ledgers):
            pick = by_owner[bounds[index]:bounds[index + 1]]
            if len(pick):
                out[where[pick]] = ledger.records.array[rows[pick]]
        return out


class _WeightedLaw(SamplingLaw):
    """Shared weight plumbing for the non-uniform laws."""

    def __init__(self, weight_fn: WeightFunction) -> None:
        self.weight_fn = weight_fn
        #: Aux rows stashed at admission, consumed by placement in
        #: admission order.  Always empty between ingest verbs, so
        #: checkpoints never need to serialise it.
        self._stash: deque = deque()

    def _weight_of(self, record: Record) -> float:
        return check_weight(self.weight_fn(record))

    def _weights_of(self, records) -> np.ndarray:
        fn = self.weight_fn
        return check_weights(np.fromiter(
            (fn(r) for r in records), dtype=np.float64, count=len(records)))

    def place(self, gf, record: Record | None) -> None:
        gf.buffer.append(record, aux=self._stash.popleft())
        if gf.in_startup:
            if gf.buffer.count >= gf._startup_sizes[gf._startup_index]:
                gf._startup_flush()
        elif gf.buffer.is_full:
            gf._flush()

    def place_many(self, gf, records: list) -> None:
        stash = self._stash
        buffer = gf.buffer
        for record in records:
            buffer.append(record, aux=stash.popleft())
            if gf.in_startup:
                if buffer.count >= gf._startup_sizes[gf._startup_index]:
                    gf._startup_flush()
            elif buffer.is_full:
                gf._flush()


class AExpJLaw(_WeightedLaw):
    """Efraimidis-Spirakis weighted-without-replacement (A-ExpJ).

    State: the log-domain threshold key ``log T`` -- the smallest key
    that survived the last flush cull (``-inf`` until the reservoir
    first overflows).  Admission keeps any key above the threshold;
    the flush keeps the top ``N`` keys of residents plus drain and
    raises the threshold to the new minimum survivor.

    Exactness: the target sample is the top ``N`` keys over *all*
    stream records (Efraimidis & Spirakis 2006), an order-free
    criterion.  The stale (flush-time) threshold admits a superset of
    the true top ``N`` -- never a subset, since thresholds only rise
    -- and the cull discards exactly the surplus, so the maintained
    sample is distributionally exact at every flush boundary, and
    query-time materialisation applies the same top-``N`` rule to the
    buffered surplus in between.
    """

    name = "aexpj"
    aux_width = 1  # log-domain key
    mergeable_by_key = True

    def __init__(self, weight_fn: WeightFunction) -> None:
        super().__init__(weight_fn)
        self._log_t = -math.inf

    # -- admission ---------------------------------------------------------

    def admit(self, res: StreamReservoir, record: Record) -> bool:
        weight = self._weight_of(record)
        log_t = self._log_t
        if log_t == -math.inf:
            u = 1.0 - res._rng.random()
            self._stash.append((math.log(u) / weight,))
            return True
        # key > T  <=>  u > T**w: draw u conditioned on admission.
        t_pow = math.exp(log_t * weight)
        u = res._rng.random()
        if u <= t_pow:
            return False
        self._stash.append((math.log(u) / weight,))
        return True

    def select_many(self, res: StreamReservoir, records, first: int,
                    last: int) -> list:
        if not isinstance(records, list):
            records = list(records)
        weights = self._weights_of(records)
        log_t = self._log_t
        rng = res._np_rng
        if log_t == -math.inf:
            keys = exp_jump_keys(weights, rng)
            self._stash.extend((float(key),) for key in keys)
            return records
        # Exponential jump: the weight mass to skip past is
        # X = log(u) / log(T); the record whose cumulative weight
        # crosses X is the next admission, with its key drawn
        # conditioned on exceeding T.  One uniform per admission plus
        # one per jump -- O(admitted), not O(batch).
        cumulative = np.cumsum(weights)
        n = len(records)
        admitted: list = []
        stash = self._stash
        position = 0.0
        while True:
            u = rng.random()
            if u <= 0.0:  # pragma: no cover - measure-zero guard
                u = np.nextafter(0, 1)
            position += math.log(u) / log_t
            index = int(np.searchsorted(cumulative, position, side="left"))
            if index >= n:
                break
            weight = float(weights[index])
            t_pow = math.exp(log_t * weight)
            key_u = t_pow + (1.0 - t_pow) * rng.random()
            stash.append((math.log(key_u) / weight,))
            admitted.append(records[index])
            position = float(cumulative[index])
        return admitted

    # -- victims -----------------------------------------------------------

    def plan_victims(self, gf, drained, drained_aux: np.ndarray,
                     count: int) -> np.ndarray:
        ledgers, aux, owner, row = self._gather_eviction_pool(
            gf, drained_aux)
        total = aux.shape[0]
        n_evict = total - gf.capacity
        if n_evict <= 0:
            return np.empty(0, dtype=np.int64)
        keys = aux[:, 0]
        order = np.argsort(keys, kind="stable")
        victims = order[:n_evict]
        # The smallest surviving key is the new admission threshold.
        self._log_t = float(keys[order[n_evict]])
        return self._apply_victims(ledgers, owner, row, victims)

    # -- materialisation ---------------------------------------------------

    def _top_k_indices(self, gf, keys: np.ndarray) -> np.ndarray:
        k = min(keys.shape[0], gf.capacity)
        if k == keys.shape[0]:
            return np.arange(k, dtype=np.int64)
        return np.argsort(keys, kind="stable")[keys.shape[0] - k:]

    def _keys(self, gf) -> np.ndarray:
        return np.concatenate(
            [self._disk_aux(gf)[:, 0], gf.buffer.aux_view()[:, 0]])

    def materialize_batch(self, gf, gen) -> np.ndarray:
        return self._all_rows(gf)[self._top_k_indices(gf, self._keys(gf))]

    def sample_size(self, gf) -> int:
        rows = gf.buffer.count + sum(
            len(ledger.aux) for ledger in gf.iter_ledgers()
            if ledger.aux is not None)
        return min(rows, gf.capacity)

    def sample_keyed(self, gf, k: int) -> tuple[RecordBatch, np.ndarray]:
        """The current sample's best ``k`` rows, best key first, with
        their log keys.

        A record's key depends only on the record (and its own uniform
        draw), never on which reservoir holds it, so keys rank records
        across *independent* structures: the union's A-ExpJ sample is
        exactly the global top-``k`` of the concatenated keyed samples.
        The sharded service's merge layer relies on this, so the rows
        are ranked even while the reservoir is still filling.  The
        ranking reads only the keys; just the ``k`` returned rows are
        gathered.
        """
        keys = self._keys(gf)
        top = np.argsort(keys, kind="stable")[::-1][:min(k, gf.capacity)]
        return RecordBatch(gf.schema, self._all_rows(gf)[top]), keys[top]

    # -- checkpoint --------------------------------------------------------

    def state_dict(self) -> dict:
        return {"log_threshold": self._log_t}

    def restore_state(self, state: dict) -> None:
        self._log_t = float(state["log_threshold"])

    def stats_extra(self) -> dict:
        return {"log_threshold": self._log_t}


class WeightedReplacementLaw(_WeightedLaw):
    """Weighted with-replacement sampling over ``N`` exchangeable slots.

    State: the running weight total ``W``.  Record ``i`` replaces
    ``m_i ~ Binomial(N, w_i / W_i)`` slots; since victims are uniform
    distinct slots, the copies ride the existing uniform machinery:
    ``k ~ Hypergeometric(count, N - count, m_i)`` copies overwrite
    distinct buffered records, the remaining ``m_i - k`` join the
    buffer and each dooms one uniform disk resident at the next flush
    (Algorithm 3 unchanged, hence :attr:`uniform_victims`).

    Per-slot marginals are exact (``P(slot = i) = w_i / W`` by
    induction on the survival recursion); the slots are negatively
    correlated rather than i.i.d. because victims are drawn without
    replacement, and copies of a multiplicity spanning a flush
    boundary resolve their victims in the later epoch.
    """

    name = "wr"
    uniform_victims = True

    def __init__(self, weight_fn: WeightFunction) -> None:
        super().__init__(weight_fn)
        self._total = 0.0
        #: Multiplicities of admitted records, consumed by placement.
        self._pending: deque[int] = deque()

    # -- admission ---------------------------------------------------------

    def admit(self, res: StreamReservoir, record: Record) -> bool:
        weight = self._weight_of(record)
        self._total += weight
        m = int(res._np_rng.binomial(res.capacity, weight / self._total))
        if m == 0:
            return False
        self._pending.append(m)
        return True

    def select_many(self, res: StreamReservoir, records, first: int,
                    last: int) -> list:
        if not isinstance(records, list):
            records = list(records)
        weights = self._weights_of(records)
        if not weights.size:
            return []
        cumulative = self._total + np.cumsum(weights)
        m = res._np_rng.binomial(res.capacity, weights / cumulative)
        self._total = float(cumulative[-1])
        admitted_idx = np.flatnonzero(m > 0)
        self._pending.extend(int(v) for v in m[admitted_idx])
        return [records[i] for i in admitted_idx]

    # -- placement ---------------------------------------------------------

    def place(self, gf, record: Record | None) -> None:
        m = self._pending.popleft()
        while m > 0 and gf.in_startup:
            gf.buffer.append(record)
            m -= 1
            if gf.buffer.count >= gf._startup_sizes[gf._startup_index]:
                gf._startup_flush()
        if m <= 0:
            return
        count = gf.buffer.count
        in_buffer = 0
        if count > 0:
            in_buffer = hypergeometric(
                gf._np_rng, count, gf.capacity - count, m)
        if in_buffer:
            for slot in gf._rng.sample(range(count), in_buffer):
                gf.buffer.replace(slot, record)
        for _ in range(m - in_buffer):
            gf.buffer.append(record)
            if gf.buffer.is_full:
                gf._flush()

    def place_many(self, gf, records: list) -> None:
        for record in records:
            self.place(gf, record)

    # -- reads (uniform victims => uniform pending apply) -------------------

    def materialize_batch(self, gf, gen) -> np.ndarray:
        return self._materialize_pending(gf, gen)

    def sample_size(self, gf) -> int:
        return self._pending_apply_size(gf)

    # -- checkpoint --------------------------------------------------------

    def state_dict(self) -> dict:
        return {"total_weight": self._total}

    def restore_state(self, state: dict) -> None:
        self._total = float(state["total_weight"])

    def stats_extra(self) -> dict:
        return {"total_weight": self._total}


class SlidingWindowLaw(_WeightedLaw):
    """Priority sampling over the last ``window`` stream records.

    Every record is admitted (the newest record is always a sample
    candidate) carrying two aux columns: a priority key (weighted like
    A-ExpJ, so a ``recency`` weight spec yields time-decay inside the
    window) and its stream position.  The logical sample is the
    top-``sample_size`` keys among in-window records; the reservoir
    capacity ``N`` bounds the *candidate set*, whose expected need is
    ``s * (1 + ln(window / s))`` (Babcock et al. 2002) -- size ``N``
    generously above that, e.g. ``N >= s * (2 + ln(window / s))``.

    Flush victims, worst first: expired records, then dominated ones
    (dominance rank = number of newer in-window records with a higher
    key; rank ``>= s`` means the record can never re-enter the
    sample), then -- only if the candidate budget still overflows --
    true candidates by worst rank, counted in
    :attr:`overflow_events`.
    """

    name = "window"
    aux_width = 2  # (log key, stream position)

    def __init__(self, window: int, *, sample_size: int | None = None,
                 weight_fn: WeightFunction = uniform_weight) -> None:
        super().__init__(weight_fn)
        if window < 1:
            raise ValueError("window must be at least 1")
        if sample_size is not None and sample_size < 1:
            raise ValueError("sample_size must be positive")
        self.window = window
        self._sample_size = sample_size
        self.overflow_events = 0

    def sample_size_for(self, capacity: int) -> int:
        """The logical sample size ``s`` (defaults to ``N // 4``,
        leaving budget for the ``s * ln(window/s)`` candidate tail)."""
        if self._sample_size is not None:
            return self._sample_size
        return max(1, capacity // 4)

    def validate_config(self, config) -> None:
        s = self.sample_size_for(config.capacity)
        if s > config.capacity:
            raise ValueError(
                f"sample_size {s} exceeds the candidate budget "
                f"(capacity {config.capacity})")
        if s > self.window:
            raise ValueError(
                f"sample_size {s} exceeds the window {self.window}")

    # -- admission (everything enters; the key decides survival) -----------

    def admit(self, res: StreamReservoir, record: Record) -> bool:
        weight = self._weight_of(record)
        u = 1.0 - res._rng.random()
        self._stash.append((math.log(u) / weight, float(res._seen)))
        return True

    def select_many(self, res: StreamReservoir, records, first: int,
                    last: int) -> list:
        if not isinstance(records, list):
            records = list(records)
        keys = exp_jump_keys(self._weights_of(records), res._np_rng)
        positions = np.arange(first, last + 1, dtype=np.float64)
        self._stash.extend(
            (float(k), float(p)) for k, p in zip(keys, positions))
        return records

    # -- victims -----------------------------------------------------------

    def plan_victims(self, gf, drained, drained_aux: np.ndarray,
                     count: int) -> np.ndarray:
        ledgers, aux, owner, row = self._gather_eviction_pool(
            gf, drained_aux)
        total = aux.shape[0]
        n_evict = total - gf.capacity
        if n_evict <= 0:
            return np.empty(0, dtype=np.int64)
        keys = aux[:, 0]
        positions = aux[:, 1]
        expired = positions <= (gf._seen - self.window)
        ranks = self._dominance_ranks(keys, positions)
        # Worst records first: expired, then highest dominance rank,
        # then lowest key.  np.lexsort orders by the *last* key first.
        order = np.lexsort((keys, -ranks, np.where(expired, 0, 1)))
        victims = order[:n_evict]
        s = self.sample_size_for(gf.capacity)
        lost = int(np.sum(~expired[victims] & (ranks[victims] < s)))
        if lost:
            self.overflow_events += lost
        return self._apply_victims(ledgers, owner, row, victims)

    @staticmethod
    def _dominance_ranks(keys: np.ndarray, positions: np.ndarray
                         ) -> np.ndarray:
        """Rank = newer records with a strictly higher key.

        One newest-first sweep with an insertion-sorted key list:
        O(n log n) comparisons (list inserts dominate at huge n, but
        n is capacity + buffer here).
        """
        order = np.argsort(-positions, kind="stable")
        ranks = np.empty(keys.shape[0], dtype=np.int64)
        seen_keys: list[float] = []
        for i in order:
            key = float(keys[i])
            ranks[int(i)] = len(seen_keys) - bisect.bisect_right(
                seen_keys, key)
            bisect.insort(seen_keys, key)
        return ranks

    # -- materialisation ---------------------------------------------------

    def _select_live(self, gf, keys: np.ndarray, positions: np.ndarray
                     ) -> np.ndarray:
        live = np.flatnonzero(positions > (gf._seen - self.window))
        s = self.sample_size_for(gf.capacity)
        if live.shape[0] <= s:
            return live
        return live[np.argsort(keys[live], kind="stable")[live.shape[0] - s:]]

    def materialize_batch(self, gf, gen) -> np.ndarray:
        aux = np.concatenate([self._disk_aux(gf), gf.buffer.aux_view()])
        return self._all_rows(gf)[self._select_live(gf, aux[:, 0],
                                                    aux[:, 1])]

    # -- checkpoint --------------------------------------------------------

    def state_dict(self) -> dict:
        return {"overflow_events": self.overflow_events}

    def restore_state(self, state: dict) -> None:
        self.overflow_events = int(state["overflow_events"])

    def stats_extra(self) -> dict:
        return {"window": self.window,
                "overflow_events": self.overflow_events}


# -- in-memory reference implementations -----------------------------------
#
# Small, obviously-correct twins for the equivalence suites: each
# realises the law's target distribution directly in memory, with no
# buffers, flushes, thresholds, or jumps.  tests/test_laws.py compares
# per-record inclusion (or slot) frequencies over many seeded trials.


class AExpJReference:
    """Dense A-Res: key every record, keep the top ``N``.

    Shares :func:`~repro.sampling.weights.exp_jump_keys` with
    :class:`AExpJLaw`, so engine and reference draw keys from the one
    kernel; Efraimidis & Spirakis prove A-Res and A-ExpJ sample the
    identical distribution (both select the top-``N`` keys).
    """

    def __init__(self, capacity: int, weight_fn: WeightFunction,
                 seed: int = 0) -> None:
        self.capacity = capacity
        self.weight_fn = weight_fn
        self._np_rng = np.random.default_rng(seed)
        self._keys: list[float] = []
        self._records: list[Record] = []

    def offer_many(self, records) -> None:
        records = list(records)
        weights = np.fromiter((self.weight_fn(r) for r in records),
                              dtype=np.float64, count=len(records))
        keys = exp_jump_keys(weights, self._np_rng)
        self._keys.extend(float(k) for k in keys)
        self._records.extend(records)

    def sample(self) -> list[Record]:
        keys = np.asarray(self._keys)
        k = min(self.capacity, keys.shape[0])
        top = np.argsort(keys, kind="stable")[keys.shape[0] - k:]
        return [self._records[int(i)] for i in top]


class WeightedReplacementReference:
    """I.i.d. slots: record ``i`` replaces each slot w.p. ``w_i / W_i``."""

    def __init__(self, capacity: int, weight_fn: WeightFunction,
                 seed: int = 0) -> None:
        self.capacity = capacity
        self.weight_fn = weight_fn
        self._np_rng = np.random.default_rng(seed)
        self._total = 0.0
        self._slots: list[Record | None] = [None] * capacity

    def offer_many(self, records) -> None:
        for record in records:
            weight = float(self.weight_fn(record))
            self._total += weight
            mask = self._np_rng.random(self.capacity) < (weight
                                                         / self._total)
            for slot in np.flatnonzero(mask):
                self._slots[int(slot)] = record

    def sample(self) -> list[Record]:
        return [r for r in self._slots if r is not None]


class SlidingWindowReference:
    """Ground truth: a uniform ``s``-subset of the in-window records.

    Priority sampling with i.i.d. keys selects each in-window
    ``s``-subset equiprobably, so the reference skips keys entirely
    and draws the subset directly.
    """

    def __init__(self, window: int, sample_size: int,
                 seed: int = 0) -> None:
        self.window = window
        self.sample_size = sample_size
        self._rng = random.Random(seed)
        self._recent: deque[Record] = deque(maxlen=window)

    def offer_many(self, records) -> None:
        self._recent.extend(records)

    def sample(self) -> list[Record]:
        pool = list(self._recent)
        if len(pool) <= self.sample_size:
            return pool
        return self._rng.sample(pool, self.sample_size)


_REFERENCES: dict[str, Callable] = {
    "aexpj": AExpJReference,
    "wr": WeightedReplacementReference,
    "window": SlidingWindowReference,
}


def reference_for(name: str, **kwargs):
    """Instantiate the in-memory reference twin for a law name."""
    try:
        cls = _REFERENCES[name]
    except KeyError:
        raise ValueError(f"no reference implementation for law {name!r}; "
                         f"expected one of {tuple(_REFERENCES)}") from None
    return cls(**kwargs)
