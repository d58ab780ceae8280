"""The three benchmark workloads: set-up, timed phase, correctness checks.

Each workload drives the program only through its public API
(``AsyncServeClient``, ``ShardedReservoir``, ``GeometricFile``) and
returns an :class:`Outcome`: raw latencies, stats snapshots around the
timed phase, and the list of correctness violations.  The timed phase
starts at steady state -- set-up fills the reservoir to capacity --
and ends with a ``stats()`` barrier.

Inputs are generated up front from the seed: 50 B records whose keys
are distinct and contiguous per stream, so "was this key offered?" is
a range test.  A timed batch beyond the pre-built ring is a copy of a
ring template with its keys moved forward (a vector add, no RNG).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.serve import AsyncServeClient, ServeError
from repro.service import ShardedReservoir
from repro.storage.device import SimulatedBlockDevice
from repro.storage.disk_model import DiskParameters
from repro.storage.recordbatch import RecordBatch
from repro.storage.records import RecordSchema

HERE = os.path.dirname(os.path.abspath(__file__))

RECORD_SIZE = 50
SCHEMA = RecordSchema(RECORD_SIZE)

#: served-mixed set-ups per run; ``setup_s`` is their median and the
#: last one is the engine the timed phase measures.
SETUP_REPS = 5

#: Rounds (16 ingest batches + one read) whose simulated cost is the
#: determinism fingerprint; every pass of a direct workload runs them.
DET_ROUNDS = 4
BATCHES_PER_ROUND = 16

#: The direct workloads time passes: each pass sets up a freshly
#: filled engine and replays the same rounds of stream.  Admission
#: falls as capacity/seen, so one long phase would get cheaper per
#: batch the further it ran, and a faster host would see a cheaper mix;
#: equal passes keep the mix fixed.  A run makes at least
#: ``MIN_PASSES`` (their set-ups give ``setup_s``).
PASS_ROUNDS = {"sharded-ingest": 8, "single-node": 6}
MIN_PASSES = 3

#: served-mixed: per-shard sizes, session count, op mix and sizes.
SERVED_CONFIG = dict(capacity=20_000, buffer_capacity=2_000,
                     record_size=RECORD_SIZE, retain_records=True,
                     admission="uniform")
SERVED_SHARDS = 2
SERVED_SESSIONS = 2
SERVED_BATCH = 256
SERVED_K = 64
SAMPLE_SHARE, OFFER_SHARE = 0.50, 0.45   # the rest is stats()
#: Records past the fill over which served ``sim_ingest_rps`` is taken.
SIM_SPAN = 40_000

#: sharded-ingest: per-shard sizes, 4096-row batches, k=1000 reads.
SHARDED_CONFIG = dict(capacity=50_000, buffer_capacity=5_000,
                      record_size=RECORD_SIZE, retain_records=True,
                      admission="uniform")
SHARDED_SHARDS = 2
DIRECT_BATCH = 4096
DIRECT_K = 1000

#: single-node: the paper's structure on the Section 8 simulated disk
#: (library default DiskParameters: 10 ms seek, 40 MB/s, 32 KB).
SINGLE_CONFIG = dict(capacity=200_000, buffer_capacity=20_000,
                     record_size=RECORD_SIZE, retain_records=True)


class Context:
    """Per-run settings plus the optional tracer.

    Args:
        seed: workload seed (inputs and engine seeds derive from it).
        seconds: length of the timed phase.
        workdir: run-private directory inside the checkout.
        tracer: a :class:`spans.Tracer` in traced runs, else ``None``.
    """

    def __init__(self, seed: int, seconds: float, workdir: str,
                 tracer=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def span(self, name: str, attrs=None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, attrs)


@dataclass
class Outcome:
    """What one workload run measured (raw, before metric derivation).

    ``records``, ``requests``, the latencies and ``timed_s`` cover every
    timed second of the run.  ``window`` with ``before``/``after`` and
    the ``window_*`` counts is the stretch the traced run's layer table
    reads: the whole timed phase on served-mixed, the first pass on the
    direct workloads.
    """

    config: dict
    setup_s: list[float]
    timed_s: float
    sim_s: float
    window: tuple[float, float]
    records: int
    requests: int
    attempted: int
    failed: int
    offer_lat: list[float]
    sample_lat: list[float]
    before: object
    after: object
    window_records: int
    window_sample_records: int
    peak_rss_mb: float
    checks: list[str]
    sim_ingest_rps: float
    det: dict | None = None
    extra: dict = field(default_factory=dict)


class Inputs:
    """Seeded records for one key stream, generated up front.

    Args:
        seed: workload seed.
        stream: distinguishes independent streams of one run.
        rows: records per batch.
        fill_batches: batches used by set-up.
        ring_batches: distinct timed batches kept in memory.
        key_base: first key of the stream.
    """

    def __init__(self, seed: int, stream: int, rows: int,
                 fill_batches: int, ring_batches: int,
                 key_base: int = 0) -> None:
        rng = np.random.default_rng([seed, stream, 0x5EED])
        self.rows = rows
        self.key_base = key_base

        def make(first_key: int) -> RecordBatch:
            keys = np.arange(first_key, first_key + rows, dtype=np.int64)
            return RecordBatch.from_columns(
                SCHEMA, keys, values=rng.random(rows) * 1000.0,
                timestamps=keys.astype(np.float64))

        self.fill = [make(key_base + i * rows) for i in range(fill_batches)]
        self.fill_records = fill_batches * rows
        self.first_timed_key = key_base + self.fill_records
        self._ring = [make(self.first_timed_key + i * rows)
                      for i in range(ring_batches)]

    def batch(self, i: int) -> RecordBatch:
        """Timed batch ``i`` (keys follow batch ``i - 1``'s)."""
        ring = self._ring
        template = ring[i % len(ring)]
        cycle = i // len(ring)
        if not cycle:
            return template
        out = template.copy()
        out.array["key"] += cycle * len(ring) * self.rows
        return out

    def offered_end(self, timed_batches: int) -> int:
        """One past the last key offered after ``timed_batches``."""
        return self.first_timed_key + timed_batches * self.rows


# -- shared helpers -----------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def span_rate(before, snapshots: list[tuple[int, float]]) -> float:
    """Records per simulated second from ``before`` to the first
    ``(seen, clock)`` snapshot :data:`SIM_SPAN` records later (else the
    last): a fixed stretch of stream, so the figure does not drift with
    how far a run got."""
    ordered = sorted(snapshots)
    target = before.seen + SIM_SPAN
    seen, clock = next((s for s in ordered if s[0] >= target), ordered[-1])
    sim = clock - before.clock
    return (seen - before.seen) / sim if sim > 0 else 0.0


def key_violation(keys, k: int, ranges: list[tuple[int, int]]) -> str | None:
    """Why a sample's keys break the contract, or ``None``.

    The contract: exactly ``k`` keys, all distinct, each inside one of
    the offered ``[start, end)`` key ranges.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if len(keys) != k:
        return f"sample holds {len(keys)} records, asked for {k}"
    if len(np.unique(keys)) != k:
        return f"sample of {k} has {k - len(np.unique(keys))} repeated keys"
    inside = np.zeros(len(keys), dtype=bool)
    for start, end in ranges:
        inside |= (keys >= start) & (keys < end)
    if not inside.all():
        return (f"sample holds {int((~inside).sum())} keys that were never "
                f"offered (e.g. {int(keys[~inside][0])})")
    return None


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as src:
                stat = src.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            found.append(child)
            todo.append(child)
    return found


def peak_rss_mb(pid: int) -> float:
    """Sum of peak resident set sizes of ``pid`` and its descendants."""
    total_kb = 0
    for proc in [pid] + _descendants(pid):
        try:
            with open(f"/proc/{proc}/status", encoding="ascii") as src:
                for line in src:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so a shard worker or resource tracker
    whose own parent exits first is still waited for here."""
    try:
        import ctypes

        pr_set_child_subreaper = 36
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1,
                                                0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_children() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_tracker(grace: float) -> None:
    """Stop this process's multiprocessing resource tracker and wait for
    it.  The shared-memory rings start it as a child that is meant to
    outlive its parent; closing its pipe lets it unlink whatever is still
    registered and exit."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is None or not hasattr(tracker, "_fd"):
        return
    with tracker._lock:
        fd, pid = tracker._fd, getattr(tracker, "_pid", None)
        tracker._fd = None
        tracker._pid = None
    if fd is None:
        return
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + grace
    while os.waitpid(pid, os.WNOHANG)[0] == 0:
        if time.monotonic() >= deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.02)


def stop_descendants(grace: float = 30.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The workloads close their engines (which join the shard workers)
    and stop the server process themselves; this ends the resource
    tracker and then kills and reaps anything still left, e.g. after a
    failed run.  An orphaned tracker is killed last: it exits by itself
    once the processes sharing its pipe are gone, unlinking the
    shared-memory segments they leaked.
    """
    _stop_tracker(grace)
    deadline = time.monotonic() + grace
    while True:
        _reap_children()
        left = _descendants(os.getpid())
        if not left:
            return
        now = time.monotonic()
        if now >= deadline + grace:
            print(f"perfbench: processes {left} did not end",
                  file=sys.stderr)
            return
        for pid in left:
            if now < deadline and _is_tracker(pid):
                continue
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        time.sleep(0.02)


def _is_tracker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as src:
            return b"resource_tracker" in src.read()
    except OSError:
        return False


def fingerprint(stats) -> dict:
    """The simulated-I/O state that must repeat exactly for a seed."""
    io = stats.io
    return {"seen": stats.seen, "flushes": stats.flushes,
            "clock": stats.clock, "seeks": io.seeks,
            "blocks_written": io.blocks_written}


def _same_fills(fills: list[dict], checks: list[str]) -> None:
    for rep, other in enumerate(fills[1:], start=1):
        if other != fills[0]:
            checks.append(f"DETERMINISM: set-up {rep} ended at {other}, "
                          f"set-up 0 at {fills[0]}")


# -- sharded-ingest and single-node (direct workloads) ---------------------


def _rounds(ctx: Context, engine, inputs: Inputs, read, rounds: int,
            checks: list[str]) -> dict:
    """``rounds`` timed rounds of 16 ``offer_batch`` calls plus one read,
    ended by a ``stats()`` barrier.

    ``read(engine)`` returns the sampled keys.  The stats after
    :data:`DET_ROUNDS` rounds are the determinism fingerprint.
    """
    offer_lat: list[float] = []
    sample_lat: list[float] = []
    batches = 0
    det_stats = None
    t0 = time.perf_counter()
    for done in range(1, rounds + 1):
        for _ in range(BATCHES_PER_ROUND):
            batch = inputs.batch(batches)
            with ctx.span("bench.offer_batch"):
                start = time.perf_counter()
                engine.offer_batch(batch)
                offer_lat.append(time.perf_counter() - start)
            batches += 1
        with ctx.span("bench.sample"):
            start = time.perf_counter()
            keys = read(engine)
            sample_lat.append(time.perf_counter() - start)
        problem = key_violation(
            keys, DIRECT_K,
            [(inputs.key_base, inputs.offered_end(batches))])
        if problem:
            checks.append(f"round {done}: {problem}")
        if done == DET_ROUNDS:
            with ctx.span("bench.stats"):
                det_stats = engine.stats()
    if rounds == DET_ROUNDS:
        after = det_stats
    else:
        with ctx.span("bench.stats"):
            after = engine.stats()
    t1 = time.perf_counter()
    return {"offer_lat": offer_lat, "sample_lat": sample_lat,
            "batches": batches, "window": (t0, t1), "after": after,
            "det_stats": det_stats}


def _direct_passes(ctx: Context, workload: str, config: dict,
                   inputs: Inputs, build, read, finish,
                   snapshot=None) -> Outcome:
    """Passes of set-up plus :data:`PASS_ROUNDS` timed rounds each.

    ``build()`` returns a filled engine (timed as set-up, together with
    the first ``stats()``); ``finish(engine, acknowledged, last,
    checks)`` closes it and may add to ``checks``.  ``snapshot(engine)`` is taken before
    and after the first pass's rounds, for the layer table.  A new pass
    starts while at least half a pass of mean length is left of
    ``ctx.seconds``, and at least :data:`MIN_PASSES` run.
    """
    rounds = PASS_ROUNDS[workload]
    checks: list[str] = []
    setups: list[float] = []
    fills: list[dict] = []
    phases: list[dict] = []
    befores: list = []
    snapshots: list = []
    dets: list[dict] = []
    rss = 0.0
    engine = None
    started = time.perf_counter()
    try:
        while True:
            start = time.perf_counter()
            engine = build()
            before = engine.stats()
            setups.append(time.perf_counter() - start)
            fills.append(fingerprint(before))
            first = not phases
            if first and snapshot is not None:
                snapshots.append(snapshot(engine))
            phase = _rounds(ctx, engine, inputs, read, rounds, checks)
            rss = max(rss, peak_rss_mb(os.getpid()))
            if first and snapshot is not None:
                snapshots.append(snapshot(engine))
            phases.append(phase)
            befores.append(before)
            det = fingerprint(phase["det_stats"])
            det_sim = phase["det_stats"].clock - before.clock
            det["sim_ingest_rps"] = (DET_ROUNDS * BATCHES_PER_ROUND
                                     * inputs.rows / det_sim
                                     if det_sim > 0 else 0.0)
            dets.append(det)
            acknowledged = (inputs.offered_end(phase["batches"])
                            - inputs.key_base)
            if phase["after"].seen != acknowledged:
                checks.append(f"pass {len(phases)}: seen "
                              f"{phase['after'].seen} != acknowledged "
                              f"{acknowledged}")
            elapsed = time.perf_counter() - started
            last = (len(phases) >= MIN_PASSES and elapsed
                    + 0.5 * elapsed / len(phases) > ctx.seconds)
            done, engine = engine, None
            finish(done, acknowledged, last, checks)
            if last:
                break
    finally:
        if engine is not None:
            engine.close()
    _same_fills(fills, checks)
    for index, det in enumerate(dets[1:], start=2):
        if det != dets[0]:
            checks.append(f"DETERMINISM: pass {index} ended its first "
                          f"{DET_ROUNDS} rounds at {det}, pass 1 at "
                          f"{dets[0]}")
    offer_lat = [lat for phase in phases for lat in phase["offer_lat"]]
    sample_lat = [lat for phase in phases for lat in phase["sample_lat"]]
    calls = len(offer_lat) + len(sample_lat)
    first = phases[0]
    extra = {"passes": len(phases), "rounds_per_pass": rounds}
    if snapshots:
        extra["shards_before"], extra["shards_after"] = snapshots
    return Outcome(
        config=config, setup_s=setups,
        timed_s=sum(p["window"][1] - p["window"][0] for p in phases),
        sim_s=sum(p["after"].clock - b.clock
                  for p, b in zip(phases, befores)),
        window=first["window"],
        records=sum(p["batches"] for p in phases) * inputs.rows,
        requests=calls, attempted=calls, failed=0,
        offer_lat=offer_lat, sample_lat=sample_lat,
        before=befores[0], after=first["after"],
        window_records=first["batches"] * inputs.rows,
        window_sample_records=DIRECT_K * len(first["sample_lat"]),
        peak_rss_mb=rss, checks=checks,
        sim_ingest_rps=dets[0]["sim_ingest_rps"], det=dets[0], extra=extra)


def _read_sharded(engine) -> np.ndarray:
    query = engine.query_batch(k=DIRECT_K)
    query.sum("value")
    return query.batch.keys


def _read_single(engine) -> np.ndarray:
    return engine.sample_batch(DIRECT_K).keys


def run_sharded_ingest(ctx: Context) -> Outcome:
    """A process-pool ``ShardedReservoir`` driven directly (no serve layer)."""
    config = GeometricFileConfig(**SHARDED_CONFIG)
    fill_batches = math.ceil(1.1 * SHARDED_SHARDS * config.capacity
                             / DIRECT_BATCH)
    inputs = Inputs(ctx.seed, 1, DIRECT_BATCH, fill_batches, 64)
    root = ctx.path("sharded")

    def build():
        svc = ShardedReservoir(root, config, shards=SHARDED_SHARDS,
                               pool="process", seed=ctx.seed)
        try:
            for batch in inputs.fill:
                svc.offer_batch(batch)
        except BaseException:
            svc.close()
            raise
        return svc

    def finish(svc, acknowledged: int, last: bool, checks: list) -> None:
        svc.close()
        if last:
            with ShardedReservoir(root, config, shards=SHARDED_SHARDS,
                                  pool="inline", seed=ctx.seed) as reopened:
                seen = reopened.stats().seen
            if seen != acknowledged:
                checks.append(f"after close and reopen seen is {seen}, "
                              f"{acknowledged} records were acknowledged")
        shutil.rmtree(root)

    outcome = _direct_passes(
        ctx, "sharded-ingest",
        {"engine": "ShardedReservoir", "pool": "process",
         "ipc": "shm (default)", "shards": SHARDED_SHARDS,
         "per_shard": SHARDED_CONFIG, "batch_rows": DIRECT_BATCH,
         "read": f"query_batch(k={DIRECT_K}).sum('value') every "
                 f"{BATCHES_PER_ROUND} batches",
         "checkpoint_batches": 8, "fill_records": inputs.fill_records,
         "pass": f"set-up + {PASS_ROUNDS['sharded-ingest']} rounds"},
        inputs, build, _read_sharded, finish, snapshot=lambda svc:
        svc.shard_stats())
    for shard, stats in enumerate(outcome.extra["shards_before"]):
        if stats.seen < config.capacity:
            outcome.checks.append(f"set-up left shard {shard} at "
                                  f"{stats.seen} < capacity "
                                  f"{config.capacity}")
    return outcome


def run_single_node(ctx: Context) -> Outcome:
    """One ``GeometricFile`` on the Section 8 simulated disk."""
    config = GeometricFileConfig(**SINGLE_CONFIG)
    params = DiskParameters()
    fill_batches = math.ceil(config.capacity / DIRECT_BATCH)
    inputs = Inputs(ctx.seed, 2, DIRECT_BATCH, fill_batches, 64)
    short: list[int] = []

    def build():
        device = SimulatedBlockDevice(
            GeometricFile.required_blocks(config, params.block_size), params)
        gf = GeometricFile(device, config, seed=ctx.seed)
        for batch in inputs.fill:
            gf.offer_batch(batch)
        if gf.in_startup:
            short.append(gf.stats().seen)
        return gf

    def finish(gf, acknowledged: int, last: bool, checks: list) -> None:
        gf.close()

    outcome = _direct_passes(
        ctx, "single-node",
        {"engine": "GeometricFile", "config": SINGLE_CONFIG,
         "device": {"kind": "simulated", "seek_s": params.seek_time,
                    "transfer_Bps": params.transfer_rate,
                    "block_B": params.block_size},
         "batch_rows": DIRECT_BATCH,
         "read": f"sample_batch({DIRECT_K}) every "
                 f"{BATCHES_PER_ROUND} batches",
         "fill_records": inputs.fill_records,
         "pass": f"set-up + {PASS_ROUNDS['single-node']} rounds"},
        inputs, build, _read_single, finish)
    if short:
        outcome.checks.append(f"set-up left the file short of capacity "
                              f"({short[0]} seen)")
    return outcome


# -- served-mixed -------------------------------------------------------------


class _Server:
    """The ``ReservoirServer`` process (see ``serve_proc.py``)."""

    def __init__(self, root: str, seed: int, trace_dir: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_proc.py"), root,
             str(seed), trace_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=60)
            raise RuntimeError(f"server process exited with "
                               f"{self.proc.returncode} before listening")
        self.port = json.loads(line)["port"]
        self.final: dict = {}

    def stop(self) -> dict:
        """Drain the server (checkpoint, close) and wait for it to exit."""
        if self.proc.poll() is None:
            out, _ = self.proc.communicate("stop\n", timeout=120)
            lines = [line for line in out.splitlines() if line.strip()]
            if lines:
                self.final = json.loads(lines[-1])
        if self.proc.returncode != 0:
            raise RuntimeError(f"server process exited with "
                               f"{self.proc.returncode}")
        return self.final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)


async def _fill(port: int, batches: list[RecordBatch]):
    client = await AsyncServeClient.connect("127.0.0.1", port)
    try:
        for batch in batches:
            await client.offer_batch(batch)
        return await client.stats()
    finally:
        await client.close()


async def _served_load(ctx: Context, port: int, inputs: list[Inputs]
                       ) -> dict:
    """The closed loop: each session issues its next op on the reply."""
    clients = [await AsyncServeClient.connect("127.0.0.1", port)
               for _ in range(SERVED_SESSIONS + 1)]
    barrier = clients.pop()
    sessions = [(await client.hello())["session"] for client in clients]
    lat = {"offer_batch": [], "sample": [], "stats": []}
    sent = [0] * SERVED_SESSIONS
    acked = [0] * SERVED_SESSIONS
    samples: list[list[int]] = []
    failures: list[str] = []
    snapshots: list[tuple[int, float]] = []  # (seen, clock) from stats()

    async def session(index: int, client) -> None:
        rng = np.random.default_rng([ctx.seed, index, 0x10AD])
        request_id = 1  # hello was request 1 of the session
        while time.perf_counter() < deadline:
            draw = rng.random()
            op = ("sample" if draw < SAMPLE_SHARE else
                  "offer_batch" if draw < SAMPLE_SHARE + OFFER_SHARE
                  else "stats")
            request_id += 1
            batch = None
            if op == "offer_batch":
                batch = inputs[index].batch(sent[index])
                sent[index] += 1
            with ctx.span("bench." + op, [sessions[index], request_id]):
                start = time.perf_counter()
                try:
                    if op == "sample":
                        records = await client.sample(SERVED_K)
                    elif op == "offer_batch":
                        await client.offer_batch(batch)
                    else:
                        stats = await client.stats()
                except ServeError as exc:
                    failures.append(f"{op}: {exc}")
                    continue
                lat[op].append(time.perf_counter() - start)
            if op == "sample":
                samples.append([record.key for record in records])
            elif op == "offer_batch":
                acked[index] += len(batch)
            else:
                snapshots.append((stats.seen, stats.clock))

    t0 = time.perf_counter()
    deadline = t0 + ctx.seconds
    try:
        await asyncio.gather(*(session(i, c) for i, c in enumerate(clients)))
        with ctx.span("bench.stats"):
            after = await barrier.stats()
        t1 = time.perf_counter()
    finally:
        retries = sum(client.retries for client in clients)
        for client in clients + [barrier]:
            await client.close()
    return {"lat": lat, "sent": sent, "acked": acked, "samples": samples,
            "failures": failures, "retries": retries, "after": after,
            "window": (t0, t1),
            "snapshots": snapshots + [(after.seen, after.clock)]}


def run_served_mixed(ctx: Context) -> Outcome:
    """A ``ReservoirServer`` over TCP in its own process, two sessions."""
    config = GeometricFileConfig(**SERVED_CONFIG)
    fill_batches = math.ceil(1.1 * SERVED_SHARDS * config.capacity
                             / DIRECT_BATCH)
    fill = Inputs(ctx.seed, 3, DIRECT_BATCH, fill_batches, 1)
    streams = [Inputs(ctx.seed, 4 + s, SERVED_BATCH, 0, 128,
                      key_base=(s + 1) * 10**12)
               for s in range(SERVED_SESSIONS)]
    trace_dir = ctx.tracer.out_dir if ctx.tracer is not None else ""
    checks: list[str] = []
    setups: list[float] = []
    fills: list[dict] = []
    server = None
    try:
        for rep in range(SETUP_REPS):
            root = ctx.path(f"served-{rep}")
            start = time.perf_counter()
            server = _Server(root, ctx.seed, trace_dir)
            before = asyncio.run(_fill(server.port, fill.fill))
            setups.append(time.perf_counter() - start)
            fills.append(fingerprint(before))
            if rep + 1 < SETUP_REPS:
                server.stop()
                server = None
                shutil.rmtree(root)
        _same_fills(fills, checks)
        if before.seen < SERVED_SHARDS * config.capacity:
            checks.append(f"set-up offered {before.seen} records, "
                          f"capacity is {SERVED_SHARDS * config.capacity}")
        load = asyncio.run(_served_load(ctx, server.port, streams))
        rss = peak_rss_mb(server.proc.pid)
        final = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
    after = load["after"]
    acknowledged = fill.fill_records + sum(load["acked"])
    if after.seen != acknowledged:
        checks.append(f"seen {after.seen} != acknowledged {acknowledged}")
    with ShardedReservoir(root, config, shards=SERVED_SHARDS, pool="inline",
                          seed=ctx.seed) as reopened:
        seen = reopened.stats().seen
    if seen != acknowledged:
        checks.append(f"after close and reopen seen is {seen}, "
                      f"{acknowledged} records were acknowledged")
    ranges = [(0, fill.fill_records)] + [
        (stream.key_base, stream.offered_end(sent))
        for stream, sent in zip(streams, load["sent"])]
    bad = [problem for keys in load["samples"]
           if (problem := key_violation(keys, SERVED_K, ranges))]
    if bad:
        checks.append(f"{len(bad)} of {len(load['samples'])} samples broke "
                      f"the contract, first: {bad[0]}")
    lat = load["lat"]
    completed = sum(len(values) for values in lat.values())
    failed = len(load["failures"]) + load["retries"]
    return Outcome(
        config={"engine": "ReservoirServer over ShardedReservoir",
                "pool": "process", "ipc": "shm (default)",
                "shards": SERVED_SHARDS, "per_shard": SERVED_CONFIG,
                "sessions": SERVED_SESSIONS, "loop": "closed",
                "mix": {"sample(k=64)": SAMPLE_SHARE,
                        "offer_batch(256)": OFFER_SHARE,
                        "stats": round(1 - SAMPLE_SHARE - OFFER_SHARE, 2)},
                "checkpoint_batches": 8, "fill_records": fill.fill_records},
        setup_s=setups, timed_s=load["window"][1] - load["window"][0],
        sim_s=after.clock - before.clock, window=load["window"],
        records=sum(load["acked"]), requests=completed,
        attempted=completed + failed, failed=failed,
        offer_lat=lat["offer_batch"], sample_lat=lat["sample"],
        before=before, after=after, window_records=sum(load["acked"]),
        window_sample_records=SERVED_K * len(lat["sample"]),
        peak_rss_mb=rss, checks=checks,
        sim_ingest_rps=span_rate(before, load["snapshots"]),
        extra={"server": final, "failures": load["failures"][:5],
               "retries": load["retries"]})


WORKLOADS = {
    "served-mixed": run_served_mixed,
    "sharded-ingest": run_sharded_ingest,
    "single-node": run_single_node,
}


def end_to_end(outcome: Outcome) -> dict[str, tuple[float, str]]:
    """The user-visible metrics of one run, ``name -> (value, unit)``."""
    wall = outcome.timed_s
    return {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "ingest_rps": (outcome.records / wall, "rec/s"),
        "sim_ingest_rps": (outcome.sim_ingest_rps, "rec/s"),
        "qps": (outcome.requests / wall, "1/s"),
        "offer_mean_ms": (statistics.fmean(outcome.offer_lat) * 1e3, "ms"),
        "offer_p99_ms": (percentile(outcome.offer_lat, 0.99) * 1e3, "ms"),
        "sample_mean_ms": (statistics.fmean(outcome.sample_lat) * 1e3,
                           "ms"),
        "sample_p99_ms": (percentile(outcome.sample_lat, 0.99) * 1e3, "ms"),
        "success_rate": (1.0 - outcome.failed / max(1, outcome.attempted),
                         "ratio"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }
