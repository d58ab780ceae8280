"""Span recording for the traced benchmark run.

The benchmark never edits the program: it wraps public callables of
each layer *from the outside* (class attributes and module globals)
and records one span per call -- name, start, end, parent -- in
memory.  Parent links follow a ``contextvars.ContextVar``, so spans
nest correctly per thread and per asyncio task.

Shard workers are forked from the process that owns the service, so
wrappers installed before the pool starts are inherited; each worker
writes its spans to ``<out_dir>/spans-<pid>.json`` when it handles
``stop`` (see :func:`worker_stop_hook`).  Clocks are ``time.perf_counter``,
which on Linux is the system-wide monotonic clock, so spans from
different processes share one timeline.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time

# Span record fields (a plain list keeps recording cheap).
ID, NAME, START, END, PARENT, THREAD, N, ATTRS = range(8)


class Tracer:
    """In-memory span store for one process.

    Args:
        out_dir: where :meth:`dump` writes this process's spans.
        role: label stored with the dump (``bench``, ``server``,
            ``worker``).
    """

    def __init__(self, out_dir: str, role: str) -> None:
        self.out_dir = out_dir
        self.role = role
        self.spans: list[list] = []
        self.extra: dict = {}
        self.unwrapped: list[str] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked shard worker starts with an empty store of its own.
        self.spans = []
        self.extra = {}
        self.role = "worker"

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, attrs=None):
        """One span around the ``with`` body; its parent is the span
        open in the current thread or task."""
        record = [next(self._ids), name, time.perf_counter(), 0.0,
                  self._current.get(), threading.get_ident(), 0, attrs]
        token = self._current.set(record[ID])
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._current.reset(token)
            self.spans.append(record)

    def wrap(self, fn, name, on_result=None):
        """A traced stand-in for ``fn``.

        ``name`` is a span name or a callable ``(args) -> name``;
        ``on_result(record, args, result)`` may fill the record's
        count (``N``) and attribute (``ATTRS``) fields.
        """
        span = self.span

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                with span(name(args) if callable(name) else name) as record:
                    result = await fn(*args, **kwargs)
                if on_result is not None:
                    on_result(record, args, result)
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name(args) if callable(name) else name) as record:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(record, args, result)
            return result
        return traced

    def wrap_iter(self, fn, name):
        """Traced ``__iter__``: decodes eagerly inside one span.

        The span then covers the whole row decode rather than the
        interleaved consumer; iteration yields the same rows.
        """
        span = self.span

        @functools.wraps(fn)
        def traced_iter(self_):
            with span(name) as record:
                rows = list(fn(self_))
            record[N] = len(rows)
            return iter(rows)
        return traced_iter

    # -- installation --------------------------------------------------------

    def install(self, table) -> None:
        """Patch every ``(module, attribute, name, on_result)`` entry.

        ``attribute`` is ``Class.method`` or a module global.  Entries
        whose target no longer exists are skipped and listed in
        :attr:`unwrapped`, so a refactor of the program degrades the
        layer table instead of breaking the benchmark.
        """
        for module_name, attribute, name, on_result in table:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.unwrapped.append(f"{module_name}.{attribute}")
                continue
            owner, _, member = attribute.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            if target is None or member not in vars(target):
                self.unwrapped.append(f"{module_name}.{attribute}")
                continue
            raw = vars(target)[member]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, name, on_result))
            elif member == "__iter__":
                wrapped = self.wrap_iter(raw, name)
            elif callable(raw):
                wrapped = self.wrap(raw, name, on_result)
            else:
                self.unwrapped.append(f"{module_name}.{attribute}")
                continue
            setattr(target, member, wrapped)

    # -- output ------------------------------------------------------------

    def dump(self) -> str:
        """Write this process's spans; returns the file path."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as sink:
            json.dump({"pid": os.getpid(), "role": self.role,
                       "spans": self.spans, "extra": self.extra,
                       "unwrapped": self.unwrapped}, sink)
        return path

    def snapshot(self) -> dict:
        """This process's spans in the :meth:`dump` shape, in memory."""
        return {"pid": os.getpid(), "role": self.role, "spans": self.spans,
                "extra": self.extra, "unwrapped": self.unwrapped}


def load_dumps(out_dir: str) -> list[dict]:
    """Every span file written under ``out_dir``."""
    dumps = []
    if not os.path.isdir(out_dir):
        return dumps
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(out_dir, entry), encoding="utf-8") as src:
                dumps.append(json.load(src))
    return dumps


# -- what gets wrapped -------------------------------------------------------


def _count_result(record, args, result):
    record[N] = len(result)


def _count_bytes(record, args, result):
    record[N] = result


def _checkpoint_bytes(record, args, result):
    managed = args[0]
    try:
        record[N] = os.path.getsize(managed.path)
    except OSError:
        record[N] = 0


def _dispatch_attrs(record, args, result):
    _, request, session = args
    record[ATTRS] = [session.id, request.id, bool(result.ok)]


def _journal_depth(record, args, result):
    record[N] = args[0].journal_depth


def _worker_name(args) -> str:
    return "service.worker." + str(args[1][0])


def worker_stop_hook(tracer: Tracer):
    """``on_result`` for ``ShardWorker.handle``: on ``stop``, save the
    worker's engine counters and write its spans out."""
    def on_result(record, args, result):
        # Inline pools (the reopen check) run workers in this process;
        # only forked workers write their spans here.
        if args[1][0] == "stop" and tracer.role == "worker":
            tracer.extra["shard_stats"] = args[0].managed.stats().as_dict()
            tracer.dump()
    return on_result


class _TracedJson:
    """Stand-in for the ``json`` module inside ``repro.serve.client``:
    the client decodes reply frames with ``json.loads`` inline, so the
    codec span has to sit on that name."""

    def __init__(self, tracer: Tracer) -> None:
        self.loads = tracer.wrap(json.loads, "serve.protocol.decode")
        self.dumps = json.dumps


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary in :func:`span_table` for ``tracer``."""
    tracer.install(span_table(tracer))
    try:
        client = importlib.import_module("repro.serve.client")
    except ImportError:
        tracer.unwrapped.append("repro.serve.client.json")
        return
    if getattr(client, "json", None) is json:
        client.json = _TracedJson(tracer)
    else:
        tracer.unwrapped.append("repro.serve.client.json")


def span_table(tracer: Tracer) -> list[tuple]:
    """The layer boundaries the benchmark traces, one row per callable.

    Span names are ``<layer>.<what>``; the layer prefix is the module
    path below ``repro`` (``serve.protocol``, ``service.pool``, ...).
    """
    return [
        # serve.protocol: frame and record codec, both ends.
        ("repro.serve.client", "encode_frame", "serve.protocol.encode",
         _count_result),
        ("repro.serve.client", "encode_records", "serve.protocol.encode",
         None),
        ("repro.serve.client", "decode_records", "serve.protocol.decode",
         None),
        ("repro.serve.client", "Response.from_wire",
         "serve.protocol.decode", None),
        ("repro.serve.server", "decode_frame", "serve.protocol.decode",
         None),
        ("repro.serve.server", "Request.from_wire", "serve.protocol.decode",
         None),
        ("repro.serve.server", "decode_records", "serve.protocol.decode",
         None),
        ("repro.serve.server", "encode_records", "serve.protocol.encode",
         None),
        ("repro.serve.server", "encode_frame", "serve.protocol.encode",
         _count_result),
        # serve.server: the executor-side request path.
        ("repro.serve.server", "ReservoirServer.handle_frame",
         "serve.server.handle_frame", None),
        ("repro.serve.server", "ReservoirServer.dispatch",
         "serve.server.dispatch", _dispatch_attrs),
        # serve.client: the user's calls; self time is the wait for
        # the reply (socket, server queue, engine).
        ("repro.serve.client", "AsyncServeClient.offer_batch",
         "serve.client.offer_batch", None),
        ("repro.serve.client", "AsyncServeClient.sample",
         "serve.client.sample", _count_result),
        ("repro.serve.client", "AsyncServeClient.stats",
         "serve.client.stats", None),
        # service.sharded: the coordinator.
        ("repro.service.sharded", "ShardedReservoir.offer_batch",
         "service.sharded.offer", _journal_depth),
        ("repro.service.sharded", "ShardedReservoir.sample",
         "service.sharded.query", None),
        ("repro.service.sharded", "ShardedReservoir.snapshot_batch",
         "service.sharded.query", None),
        ("repro.service.sharded", "ShardedReservoir.query_batch",
         "service.sharded.query", None),
        ("repro.service.sharded", "ShardedReservoir.stats",
         "service.sharded.stats", None),
        ("repro.service.sharded", "ShardedReservoir.checkpoint",
         "service.sharded.checkpoint", None),
        # service.merge / service.partition.
        ("repro.service.sharded", "merge_shard_samples",
         "service.merge.merge", None),
        ("repro.service.sharded", "merge_shard_batches",
         "service.merge.merge", None),
        ("repro.service.partition", "RoundRobinPartitioner.split",
         "service.partition.split", None),
        ("repro.service.partition", "RoundRobinPartitioner.split_batch",
         "service.partition.split", None),
        ("repro.service.partition", "HashPartitioner.split",
         "service.partition.split", None),
        ("repro.service.partition", "HashPartitioner.split_batch",
         "service.partition.split", None),
        # service.pool: transport, coordinator side.
        ("repro.service.pool", "ProcessPool.send", "service.pool.send",
         None),
        ("repro.service.pool", "ProcessPool.recv", "service.pool.recv",
         None),
        ("repro.service.pool", "ProcessPool.try_recv", "service.pool.recv",
         None),
        ("repro.service.pool", "ProcessPool.drain", "service.pool.recv",
         None),
        # service.worker: one span per handled command, named by kind.
        ("repro.service.worker", "ShardWorker.handle", _worker_name,
         worker_stop_hook(tracer)),
        # core.managed / core.geometric_file / sampling.laws.
        ("repro.core.managed", "ManagedSample.checkpoint",
         "core.managed.checkpoint", _checkpoint_bytes),
        ("repro.reservoir", "StreamReservoir.offer_batch",
         "core.geometric_file.offer", None),
        ("repro.reservoir", "StreamReservoir.offer_many",
         "core.geometric_file.offer", None),
        ("repro.core.geometric_file", "GeometricFile.sample",
         "core.geometric_file.sample", _count_result),
        ("repro.core.geometric_file", "GeometricFile.sample_batch",
         "core.geometric_file.sample", _count_result),
        # The flush is the paper's core step; it has no public entry
        # point, so the two flush methods are wrapped by name.
        ("repro.core.geometric_file", "GeometricFile._flush",
         "core.geometric_file.flush", None),
        ("repro.core.geometric_file", "GeometricFile._startup_flush",
         "core.geometric_file.flush", None),
        ("repro.sampling.laws", "UniformLaw.select_batch",
         "sampling.laws.select", None),
        ("repro.sampling.laws", "UniformLaw.select_many",
         "sampling.laws.select", None),
        ("repro.sampling.laws", "UniformLaw.materialize",
         "core.geometric_file.materialize", _count_result),
        ("repro.sampling.laws", "UniformLaw.materialize_batch",
         "core.geometric_file.materialize", _count_result),
        # pipeline.engine / storage.
        ("repro.pipeline.engine", "FlushEngine.submit",
         "pipeline.engine.submit", None),
        ("repro.storage.recordbatch", "RecordBatch.from_records",
         "storage.recordbatch.from_records", None),
        ("repro.storage.recordbatch", "RecordBatch.from_shared",
         "storage.recordbatch.from_shared", None),
        ("repro.storage.recordbatch", "RecordBatch.into_shared",
         "storage.recordbatch.into_shared", _count_bytes),
        ("repro.storage.recordbatch", "RecordBatch.__iter__",
         "storage.recordbatch.iter", None),
        ("repro.storage.device", "SimulatedBlockDevice.charge_write",
         "storage.device.io", None),
        ("repro.storage.device", "SimulatedBlockDevice.charge_read",
         "storage.device.io", None),
        ("repro.storage.device", "SimulatedBlockDevice.write_blocks",
         "storage.device.io", None),
        ("repro.storage.device", "SimulatedBlockDevice.read_blocks",
         "storage.device.io", None),
        # estimate: columnar AQP over a merged sample.
        ("repro.estimate.aqp", "BatchQuery.sum", "estimate.batchquery",
         None),
        ("repro.estimate.aqp", "BatchQuery.avg", "estimate.batchquery",
         None),
        ("repro.estimate.aqp", "BatchQuery.count", "estimate.batchquery",
         None),
    ]
