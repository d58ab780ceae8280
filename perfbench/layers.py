"""Per-layer metrics and layer tables from the traced run's spans.

Every span carries name, start, end and parent; a span's *self time*
is its duration minus its children's.  Only spans that start inside
the outcome's window count (the first pass on the direct workloads).  Layer metrics sum self times by span name
across every process of the run (bench, server, shard workers) and
fall back to the counters ``stats()`` / ``ipc_stats()`` return where a
wrapper cannot reach (send wait, ring stalls, simulated I/O).
"""

from __future__ import annotations

from collections import defaultdict

from spans import ATTRS, END, ID, N, NAME, PARENT, START, THREAD
from workloads import RECORD_SIZE, percentile

#: Worker time categories: the nearest enclosing span with one of these
#: names decides where a worker's self time is booked.
WORKER_CATEGORIES = {
    "core.managed.checkpoint": "checkpoint",
    "core.geometric_file.flush": "flush",
    "service.worker.checkpoint": "checkpoint",
    "service.worker.stop": "checkpoint",
    "service.worker.sample": "sample",
    "service.worker.stats": "stats",
    "service.worker.batch": "admission",
    "storage.recordbatch.from_shared": "slab receive",
}

#: Coordinator time categories, by span name prefix (first match wins).
COORDINATOR_CATEGORIES = (
    ("service.partition.", "partition"),
    ("service.pool.send", "send"),
    ("service.pool.recv", "reply wait"),
    ("service.sharded.query", "reply wait"),
    ("service.sharded.stats", "reply wait"),
    ("service.merge.", "merge"),
    ("service.sharded.", "journal + bookkeeping"),
    ("storage.recordbatch.", "record codec"),
    ("estimate.", "estimate"),
    ("serve.protocol.", "wire codec"),
    ("serve.server.", "dispatch"),
    ("serve.client.", "client wait"),
    ("bench.", "bench loop"),
)


class Process:
    """One process's spans with self times, clipped to the window."""

    def __init__(self, dump: dict, window: tuple[float, float]) -> None:
        self.role = dump["role"]
        self.extra = dump.get("extra", {})
        self.unwrapped = dump.get("unwrapped", [])
        spans = dump["spans"]
        self.by_id = {span[ID]: span for span in spans}
        children = defaultdict(float)
        for span in spans:
            if span[PARENT] in self.by_id:
                children[span[PARENT]] += span[END] - span[START]
        self.self_time = {span[ID]: span[END] - span[START]
                          - children[span[ID]] for span in spans}
        t0, t1 = window
        self.spans = [span for span in spans if t0 <= span[START] <= t1]

    def parent(self, span):
        return self.by_id.get(span[PARENT])

    def is_root(self, span) -> bool:
        return span[PARENT] not in self.by_id

    def named(self, prefix: str):
        return [span for span in self.spans if span[NAME].startswith(prefix)]

    def self_sum(self, prefix: str) -> float:
        return sum(self.self_time[span[ID]] for span in self.named(prefix))

    def category(self, span, table: dict) -> str:
        node = span
        while node is not None:
            if node[NAME] in table:
                return table[node[NAME]]
            node = self.parent(node)
        return "other"


def _union(intervals, t0: float, t1: float) -> float:
    total, end = 0.0, t0
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, t1)
        if stop > start:
            total += stop - start
            end = stop
    return total


def _overlap(intervals, a: float, b: float) -> float:
    return sum(max(0.0, min(stop, b) - max(start, a))
               for start, stop in intervals)


def _delta(after, before, *keys) -> float:
    for key in keys:
        after = (after or {}).get(key, 0)
        before = (before or {}).get(key, 0)
    return float(after or 0) - float(before or 0)


def _pipeline(outcome, workers) -> tuple[float, float]:
    """(stall seconds, merged extents) over the timed phase."""
    if "shards_after" in outcome.extra:
        pairs = list(zip(outcome.extra["shards_after"],
                         outcome.extra["shards_before"]))
    elif not workers:
        pairs = [(outcome.after, outcome.before)]
    else:
        # Served engines report lifetime totals through worker dumps.
        totals = [w.extra.get("shard_stats", {}).get("extra", {})
                  .get("pipeline", {}) for w in workers]
        return (sum(t.get("stall_seconds", 0.0) for t in totals),
                sum(t.get("merged_extents", 0) for t in totals))
    stall = sum(_delta(a.extra, b.extra, "pipeline", "stall_seconds")
                for a, b in pairs)
    merged = sum(_delta(a.extra, b.extra, "pipeline", "merged_extents")
                 for a, b in pairs)
    return stall, merged


def _queue_waits(bench: Process, server: Process | None):
    """Per request: client latency minus its server ``handle_frame``
    time, matched on (server session id, request id)."""
    if server is None:
        return []
    handled = defaultdict(float)
    for span in server.named("serve.server.dispatch"):
        frame = server.parent(span)
        if frame is not None and span[ATTRS]:
            handled[tuple(span[ATTRS][:2])] += frame[END] - frame[START]
    waits = []
    for span in bench.spans:
        key = tuple(span[ATTRS][:2]) if span[ATTRS] else None
        if span[NAME].startswith("bench.") and key in handled:
            waits.append((span, span[END] - span[START] - handled[key]))
    return waits


def analyse(workload: str, outcome, dumps: list[dict]):
    """``(metrics, report)`` for one traced run."""
    t0, t1 = outcome.window
    wall = t1 - t0
    procs = [Process(dump, outcome.window) for dump in dumps]
    procs = [p for p in procs if p.spans or p.role == "bench"]
    bench = next(p for p in procs if p.role == "bench")
    server = next((p for p in procs if p.role == "server"), None)
    workers = [p for p in procs if p.role == "worker"]
    coordinator = server if server is not None else bench

    def total(prefix: str) -> float:
        return sum(p.self_sum(prefix) for p in procs)

    def count(prefix: str) -> int:
        return sum(len(p.named(prefix)) for p in procs)

    def n_sum(prefix: str, among=None) -> float:
        return sum(span[N] for p in (among or procs)
                   for span in p.named(prefix))

    records = outcome.window_records
    before, after = outcome.before, outcome.after
    ipc_b, ipc_a = before.extra.get("ipc", {}), after.extra.get("ipc", {})
    send_wait = _delta(ipc_a, ipc_b, "send_wait_seconds")
    offered_bytes = records * RECORD_SIZE
    into_shared = n_sum("storage.recordbatch.into_shared", [coordinator])
    waits = _queue_waits(bench, server)
    stall, merged = _pipeline(outcome, workers)
    io_b, io_a = before.io, after.io
    seen = after.seen - before.seen
    busy = []
    for w in workers:
        roots = [(s[START], s[END]) for s in w.spans if w.is_root(s)]
        busy.append(_union(roots, t0, t1) / wall)
    main = bench.extra.get("main_thread")
    roots = [(s[START], s[END]) for s in bench.spans
             if bench.is_root(s) and (main is None or s[THREAD] == main)]
    coverage = _union(roots, t0, t1) / wall

    metrics = {
        "serve.protocol.encode_s": (total("serve.protocol.encode"), "s"),
        "serve.protocol.decode_s": (total("serve.protocol.decode"), "s"),
        "serve.protocol.wire_bytes_per_record": (
            n_sum("serve.protocol.encode")
            / max(1, records + outcome.window_sample_records)
            if server is not None else 0.0, "B/record"),
        "serve.server.dispatch_s": (
            total("serve.server.handle_frame")
            + total("serve.server.dispatch"), "s"),
        "serve.server.queue_wait_p99_ms": (
            percentile([w for _, w in waits], 0.99) * 1e3, "ms"),
        "serve.server.rejected": (
            sum(1 for p in procs for s in p.named("serve.server.dispatch")
                if s[ATTRS] and not s[ATTRS][2]), "count"),
        "service.sharded.offer_s": (total("service.sharded.offer"), "s"),
        "service.sharded.journal_depth_max": (
            max([s[N] for p in procs
                 for s in p.named("service.sharded.offer")] or [0]),
            "count"),
        "service.partition.split_s": (total("service.partition."), "s"),
        "service.pool.send_s": (
            max(0.0, total("service.pool.send") - send_wait), "s"),
        "service.pool.send_wait_s": (send_wait, "s"),
        "service.pool.recv_wait_s": (
            total("service.pool.recv") + total("service.sharded.query")
            + total("service.sharded.stats"), "s"),
        "service.pool.backpressure_stalls": (
            _delta(after.extra, before.extra, "backpressure_stalls"),
            "count"),
        "service.shm.zero_copy_frac": (
            into_shared / offered_bytes if offered_bytes else 0.0, "ratio"),
        "service.shm.fallback_slabs": (
            _delta(ipc_a, ipc_b, "fallback_slabs"), "count"),
        "service.shm.ring_stalls": (
            _delta(ipc_a, ipc_b, "ring_stalls"), "count"),
        "service.worker.batch_s": (total("service.worker.batch"), "s"),
        "service.worker.sample_s": (total("service.worker.sample"), "s"),
        "service.worker.busy_frac": (
            sum(busy) / len(busy) if busy else 0.0, "ratio"),
        "service.merge.merge_s": (total("service.merge."), "s"),
        "core.managed.checkpoint_s": (total("core.managed.checkpoint"), "s"),
        "core.managed.checkpoints": (count("core.managed.checkpoint"),
                                     "count"),
        "core.managed.checkpoint_bytes_per_record": (
            n_sum("core.managed.checkpoint") / max(1, records), "B/record"),
        "core.geometric_file.offer_s": (
            total("core.geometric_file.offer"), "s"),
        "core.geometric_file.flush_s": (
            total("core.geometric_file.flush"), "s"),
        "core.geometric_file.admitted_frac": (
            (after.samples_added - before.samples_added) / seen
            if seen else 0.0, "ratio"),
        "core.geometric_file.flushes": (after.flushes - before.flushes,
                                        "count"),
        "core.geometric_file.sample_s": (
            total("core.geometric_file.sample")
            + total("core.geometric_file.materialize"), "s"),
        "core.geometric_file.materialized_per_returned": (
            n_sum("core.geometric_file.materialize")
            / max(1, outcome.window_sample_records), "ratio"),
        "sampling.laws.select_s": (total("sampling.laws.select"), "s"),
        "pipeline.engine.submit_s": (total("pipeline.engine.submit"), "s"),
        "pipeline.engine.stall_s": (stall, "s"),
        "pipeline.engine.merged_extents": (merged, "count"),
        "storage.recordbatch.codec_s": (total("storage.recordbatch."), "s"),
        "storage.recordbatch.rows_decoded": (
            n_sum("storage.recordbatch.iter"), "count"),
        "storage.device.write_s": (total("storage.device.io"), "s"),
        "storage.device.seeks": (io_a.seeks - io_b.seeks, "count"),
        "storage.device.blocks_written_per_record": (
            (io_a.blocks_written - io_b.blocks_written) / max(1, records),
            "blocks/record"),
        "storage.device.sim_s": (after.clock - before.clock, "s"),
        "estimate.batchquery_s": (total("estimate.batchquery"), "s"),
        "trace.coverage_frac": (coverage, "ratio"),
    }
    report = _report(workload, outcome, procs, bench, server, workers,
                     waits, send_wait, busy, coverage)
    return metrics, report


# -- tables ------------------------------------------------------------------


def _share_table(title: str, shares: dict[str, float], wall: float,
                 scale: int = 1) -> list[str]:
    lines = [title]
    for name, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {name:<36} {seconds / scale:>9.3f} s "
                     f"{100 * seconds / (wall * scale):>6.1f} %")
    return lines


def _coordinator_shares(proc: Process, send_wait: float,
                        thread_filter=None) -> dict[str, float]:
    shares = defaultdict(float)
    for span in proc.spans:
        if thread_filter is not None and span[THREAD] != thread_filter:
            continue
        label = next((cat for prefix, cat in COORDINATOR_CATEGORIES
                      if span[NAME].startswith(prefix)), span[NAME])
        shares[label] += proc.self_time[span[ID]]
    if send_wait and "send" in shares:
        shares["send"] = max(0.0, shares["send"] - send_wait)
        shares["send wait (ipc_stats counter)"] = send_wait
    return shares


def _worker_shares(workers: list[Process], wall: float, busy: list[float]
                   ) -> dict[str, float]:
    shares = defaultdict(float)
    for w in workers:
        for span in w.spans:
            shares[w.category(span, WORKER_CATEGORIES)] += \
                w.self_time[span[ID]]
    if busy:
        shares["idle (waiting for commands)"] = sum(
            (1.0 - b) * wall for b in busy)
    return shares


def _tail_attribution(bench: Process, server: Process,
                      workers: list[Process], waits) -> list[str]:
    """Where the slowest 1 % of served ``sample`` requests spend time."""
    samples = sorted((w for w in waits if w[0][NAME] == "bench.sample"),
                     key=lambda w: w[0][START] - w[0][END])
    tail = samples[:max(1, len(samples) // 100)]
    if not tail:
        return ["  (no matched sample requests)"]
    frames = {}
    for span in server.named("serve.server.dispatch"):
        frame = server.parent(span)
        if frame is not None and span[ATTRS]:
            frames.setdefault(tuple(span[ATTRS][:2]), []).append(frame)
    engine_spans = defaultdict(list)
    for span in server.spans:
        if span[NAME] == "service.sharded.query":
            engine_spans[span[PARENT]].append(span)
    kinds = {"checkpoint": [], "batch": [], "sample": []}
    for w in workers:
        per = {kind: [] for kind in kinds}
        for span in w.spans:
            if span[NAME] == "core.managed.checkpoint":
                per["checkpoint"].append((span[START], span[END]))
            elif span[NAME] == "service.worker.batch":
                per["batch"].append((span[START], span[END]))
            elif span[NAME] == "service.worker.sample":
                per["sample"].append((span[START], span[END]))
        for kind in kinds:
            kinds[kind].append(per[kind])
    parts = defaultdict(float)
    for span, wait in tail:
        latency = span[END] - span[START]
        client_codec = sum(bench.self_time[s[ID]] for s in bench.spans
                           if s[NAME].startswith("serve.protocol.")
                           and _descends(bench, s, span[ID]))
        request_frames = frames.get(tuple(span[ATTRS][:2]), [])
        # Time queued before the server thread picked the request up
        # is booked to checkpoints when a worker was checkpointing then
        # (the request ahead of it was stuck behind that checkpoint).
        queued_until = min((f[START] for f in request_frames),
                           default=span[START])
        queued_ckpt = max((_overlap(k, span[START], queued_until)
                           for k in kinds["checkpoint"]), default=0.0)
        parts["latency"] += latency
        parts["client codec"] += client_codec
        parts["queued while a worker checkpoints"] += queued_ckpt
        parts["queued otherwise (socket, event loop, executor)"] += max(
            0.0, wait - client_codec - queued_ckpt)
        for frame in request_frames:
            codec = sum(server.self_time[s[ID]] for s in server.spans
                        if s[NAME].startswith("serve.protocol.")
                        and _descends(server, s, frame[ID]))
            parts["server codec"] += codec
            queries = [q for d in server.spans
                       if d[PARENT] == frame[ID]
                       for q in engine_spans.get(d[ID], [])]
            inside = frame[END] - frame[START] - codec
            for query in queries:
                a, b = query[START], query[END]
                merge = sum(server.self_time[s[ID]] for s in server.spans
                            if s[NAME].startswith("service.merge.")
                            and _descends(server, s, query[ID]))
                parts["coordinator merge"] += merge
                # The slowest shard gates the gather: book the overlap
                # of the worker with the most activity in the window.
                per_worker = []
                for index in range(len(workers)):
                    ckpt = _overlap(kinds["checkpoint"][index], a, b)
                    batch = _overlap(kinds["batch"][index], a, b) - ckpt
                    sample = _overlap(kinds["sample"][index], a, b)
                    per_worker.append((ckpt + batch + sample, ckpt, batch,
                                       sample))
                if per_worker:
                    _, ckpt, batch, sample = max(per_worker)
                    parts["worker checkpoint"] += ckpt
                    parts["worker admission + flush"] += max(0.0, batch)
                    parts["worker materialisation (sample)"] += sample
                inside -= merge + (max(per_worker)[0] if per_worker else 0)
            parts["dispatch + transport (rest of handle_frame)"] += \
                max(0.0, inside)
    n = len(tail)
    latency = parts.pop("latency")
    lines = [f"  slowest {n} of {len(samples)} sample requests, mean ms "
             f"(latency {1e3 * latency / n:.1f} ms):"]
    for name, seconds in sorted(parts.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {name:<48} {1e3 * seconds / n:>8.1f}")
    checkpoint = (parts["worker checkpoint"]
                  + parts["queued while a worker checkpoints"])
    lines.append(f"  attribution (served sample tail): worker checkpoints "
                 f"account for {100 * checkpoint / latency:.0f} % of it, "
                 f"directly or by holding the one dispatch thread")
    return lines


def _descends(proc: Process, span, ancestor_id: int) -> bool:
    node = proc.parent(span)
    while node is not None:
        if node[ID] == ancestor_id:
            return True
        node = proc.parent(node)
    return False


def _report(workload, outcome, procs, bench, server, workers, waits,
            send_wait, busy, coverage) -> str:
    t0, t1 = outcome.window
    wall = t1 - t0
    lines = [f"-- layer table: {workload} "
             f"({wall:.2f} s timed, {len(workers)} traced workers) --",
             f"  calling thread covered by named spans: "
             f"{100 * coverage:.1f} %"]
    main = bench.extra.get("main_thread")
    coordinator = {}
    if workload == "single-node":
        shares = defaultdict(float)
        for span in bench.spans:
            shares[span[NAME]] += bench.self_time[span[ID]]
        lines += _share_table("  calling thread (self time by span):",
                              shares, wall)
    elif server is None:
        coordinator = _coordinator_shares(bench, send_wait, main)
        lines += _share_table("  coordinator thread (self time):",
                              coordinator, wall)
    else:
        lines += _share_table("  client thread (self time, 2 sessions "
                              "interleaved):",
                              _coordinator_shares(bench, 0.0, main), wall)
        lines += _share_table("  server process (self time):",
                              _coordinator_shares(server, send_wait), wall)
    worker = _worker_shares(workers, wall, busy) if workers else {}
    if worker:
        lines += _share_table(
            f"  shard workers (self time, mean of {len(workers)}):",
            worker, wall, len(workers))
    if coordinator and worker:
        waiting = (coordinator.get("send wait (ipc_stats counter)", 0.0)
                   + coordinator.get("reply wait", 0.0))
        name, seconds = max(((k, v) for k, v in worker.items()
                             if not k.startswith("idle")),
                            key=lambda kv: kv[1])
        lines.append(
            f"  attribution (process shards vs one inline shard): the "
            f"coordinator waits on its workers {100 * waiting / wall:.0f} % "
            f"of the time; workers are busy "
            f"{100 * sum(busy) / len(busy):.0f} %, most of it in {name} "
            f"({100 * seconds / (wall * len(workers)):.0f} % of worker "
            f"time)")
    if server is not None:
        lines.append("  sample_p99_ms attribution:")
        lines += _tail_attribution(bench, server, workers, waits)
    missing = sorted({name for p in procs for name in p.unwrapped})
    if missing:
        lines.append("  not wrapped (gone from the program): "
                     + ", ".join(missing))
    return "\n".join(lines)
