"""Wall-clock perf gates.

Each gate times two ways of doing the same work in one run and asserts
their ratio, or, for the serving layer, rates far below any healthy
host's, so it trips on an architectural regression -- a fast path
quietly falling back to per-record Python -- not on machine noise.
The floors sit well below the ratios measured when each gate was set.

Gates that need no wall clock are tier-1 tests instead: the pipelined
overlap and elevator seeks (``tests/test_pipeline.py``), the sharded
simulated speedup (``tests/test_service.py``), the AQP hit rate and
uncached-twin bit-exactness (``tests/test_planner.py``) and the
uniform-law twin (``tests/test_laws.py``).  End-to-end numbers come
from ``perfbench/``.

Kept out of tier-1: run with

    PYTHONPATH=src python -m pytest benchmarks/perf_smoke.py -m perf -s
"""

from __future__ import annotations

import asyncio
import tempfile
import time

import numpy as np
import pytest

from repro.bench import ALTERNATIVE_NAMES, experiment_1
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.zonemap import ZoneMapIndex
from repro.estimate import BatchQuery, QueryPlanner, SampleQuery
from repro.sampling.feeder import feed_stream
from repro.serve import (
    AsyncServeClient,
    ReservoirServer,
    ServeClient,
    ServerConfig,
)
from repro.service import HAVE_SHM, ShardedReservoir
from repro.storage.device import SimulatedBlockDevice
from repro.storage.disk_model import DiskParameters
from repro.storage.recordbatch import RecordBatch
from repro.storage.records import Record, RecordSchema

RECORDS = 200_000
BATCH = 4096


def _seconds(run, rounds: int = 1) -> float:
    """Wall-clock seconds for ``rounds`` calls of ``run``."""
    start = time.perf_counter()
    for _ in range(rounds):
        run()
    return max(time.perf_counter() - start, 1e-9)


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1,
                       max(0, round(q * (len(ordered) - 1))))]


def _records(n: int, start: int = 0) -> list[Record]:
    return [Record(key=start + i, value=float(start + i), timestamp=0.0)
            for i in range(n)]


@pytest.mark.perf
def test_batch_ingest_speedups():
    """``offer_many`` beats the ``offer`` loop >= 5x on every buffered
    structure (~14-26x measured) and batched skip feeding beats scalar
    >= 3x, at the Figure 7(a) smoke configuration.  Both paths charge
    identical simulated I/O, so only Python CPU time differs."""
    spec = experiment_1(scale=0)
    batch = [None] * BATCH
    speedups = {}
    for name in ALTERNATIVE_NAMES:
        scalar, batched = spec.make(name), spec.make(name)

        def offer_loop():
            offer = scalar.offer
            for _ in range(RECORDS):
                offer(None)

        def offer_many():
            for start in range(0, RECORDS, BATCH):
                take = min(BATCH, RECORDS - start)
                batched.offer_many(batch if take == BATCH else [None] * take)

        speedups[name] = _seconds(offer_loop) / _seconds(offer_many)
        assert scalar.stats().seen == batched.stats().seen == RECORDS
        print(f"{name:<20} offer_many / offer: {speedups[name]:.1f}x")
    # The virtual-memory baseline's steady state is one LRU-pool walk
    # per record (the paper's argument against it), so batching removes
    # only the admission overhead; it must never be slower.
    assert speedups.pop("virtual mem") >= 0.9
    assert min(speedups.values()) >= 5.0, (
        "a buffered structure's offer_many path regressed toward "
        "per-record speed")

    stream = [None] * RECORDS
    config = GeometricFileConfig(
        capacity=spec.capacity, buffer_capacity=spec.buffer_capacity,
        record_size=spec.record_size, admission="uniform")
    params = spec.disk_parameters()
    blocks = GeometricFile.required_blocks(config, params.block_size)
    feeds = {}
    for feed_batch in (1, BATCH):
        reservoir = GeometricFile(SimulatedBlockDevice(blocks, params),
                                  config, seed=spec.seed)
        consumed = []
        feeds[feed_batch] = _seconds(lambda: consumed.append(
            feed_stream(stream, reservoir, batch_size=feed_batch)))
        assert consumed == [RECORDS]
    print(f"feed_stream batched / scalar: {feeds[1] / feeds[BATCH]:.1f}x")
    assert feeds[1] / feeds[BATCH] >= 3.0, (
        "batched skip feeding regressed toward the scalar loop")


@pytest.mark.perf
def test_columnar_query_speedups():
    """The columnar engine's wins over the object engine hold on twin
    smoke-scale files fed one stream: whole-segment encode >= 5x (~20x
    measured), ``sample_batch`` + ``BatchQuery`` >= 8x over
    ``sample`` + ``SampleQuery`` (~11x), and the zone map's
    ``query_batch`` >= 2x over its record iterator."""
    spec = experiment_1(scale=0)
    schema = RecordSchema(spec.record_size)
    rng = np.random.default_rng(0)
    # Lognormal values are a plausible AQP measure column; timestamps in
    # stream order let the zone map prune to a suffix.
    stream = RecordBatch.from_columns(
        schema, keys=np.arange(RECORDS, dtype=np.int64),
        values=rng.lognormal(mean=3.0, sigma=0.5, size=RECORDS),
        timestamps=np.arange(RECORDS, dtype=np.float64))
    params = spec.disk_parameters()
    twins = []
    for columnar in (False, True):
        config = GeometricFileConfig(
            capacity=spec.capacity, buffer_capacity=spec.buffer_capacity,
            record_size=spec.record_size, retain_records=True,
            admission="uniform", columnar=columnar)
        blocks = GeometricFile.required_blocks(config, params.block_size)
        twins.append(GeometricFile(SimulatedBlockDevice(blocks, params),
                                   config, seed=spec.seed))
    scalar, columnar = twins
    rows = stream.to_records()
    for start in range(0, RECORDS, BATCH):
        scalar.offer_many(rows[start:start + BATCH])
        columnar.offer_batch(stream[start:start + BATCH])
    seen = scalar.stats().seen
    assert seen == columnar.stats().seen

    resident = columnar.sample_batch()
    resident_rows = resident.to_records()
    assert resident.to_bytes() == schema.encode_batch(resident_rows)
    encode = (_seconds(lambda: schema.encode_batch(resident_rows), 3)
              / _seconds(resident.to_bytes, 3))

    low, high = 15.0, 35.0

    def scalar_query():
        query = SampleQuery(scalar.sample(), population_size=seen)
        query.filter(lambda r: low <= r.value <= high).avg()
        query.sum()
        query.count(lambda r: r.value >= high)

    def columnar_query():
        query = BatchQuery(columnar.sample_batch(), population_size=seen)
        query.filter("value", low, high).avg()
        query.sum()
        query.count(query.mask("value", low=high))

    aqp = _seconds(scalar_query, 3) / _seconds(columnar_query, 3)

    # The newest tenth of the stream: most subsamples prune away, so the
    # ratio isolates the per-record cost of scanning the survivors.
    since, until = seen * 0.9, float(seen)
    scalar_index = ZoneMapIndex(scalar, field="timestamp")
    columnar_index = ZoneMapIndex(columnar, field="timestamp")
    assert (len(columnar_index.query_batch(since, until))
            == sum(1 for _ in scalar_index.query(since, until)))
    zone = (_seconds(lambda: sum(1 for _ in scalar_index.query(since, until)),
                     3)
            / _seconds(lambda: columnar_index.query_batch(since, until), 3))
    print(f"columnar / object: encode {encode:.1f}x, query+AQP "
          f"{aqp:.1f}x, zone map {zone:.1f}x")
    assert encode >= 5.0, (
        "whole-segment columnar encode regressed toward the per-record "
        "object codec")
    assert aqp >= 8.0, (
        "sample_batch + BatchQuery regressed toward per-record Python "
        "query evaluation")
    assert zone >= 2.0, (
        "zone-map query_batch regressed toward the record-iterator scan")


def _ipc_run(batches, ipc: str) -> dict:
    """Ingest and query timings of one 4-shard process pool."""
    # A small per-shard reservoir, so the transport, not the reservoir
    # arithmetic, dominates wall time.
    config = GeometricFileConfig(
        capacity=2000, buffer_capacity=400, record_size=50,
        admission="uniform", retain_records=True)
    with tempfile.TemporaryDirectory(prefix="repro-ipc-gate-") as root, \
            ShardedReservoir(root, config, shards=4, pool="process",
                             partition="round-robin", ipc=ipc, seed=0,
                             timeout=120.0) as service:
        start = time.perf_counter()
        for batch in batches:
            service.offer_batch(batch)
        service.stats()  # drains every inbox: an ingest barrier
        ingest = time.perf_counter() - start
        query = _seconds(lambda: service.sample_batch(2000), 5)
        keys = sorted(service.sample_batch(2000).keys.tolist())
        return {"ingest": ingest, "query": query, "keys": keys,
                "ipc": service.ipc_stats()}


@pytest.mark.perf
@pytest.mark.skipif(not HAVE_SHM,
                    reason="multiprocessing.shared_memory unavailable")
def test_ipc_plane_speedups():
    """The shared-memory data plane beats pickled queues >= 2x on
    cross-process ingest and on the query fan-out at 4 shards (~3.5x
    and ~3.9x measured), and the sampling math cannot tell the
    transports apart.  Every batch fits the ring, so any fallback slab
    means the ring broke."""
    schema = RecordSchema(50)
    batches = []
    for start in range(0, RECORDS, BATCH):
        keys = list(range(start, min(start + BATCH, RECORDS)))
        batches.append(RecordBatch.from_columns(
            schema, keys, values=[float(k % 97) for k in keys]))
    queue = _ipc_run(batches, "queue")
    shm = _ipc_run(batches, "shm")
    ingest = queue["ingest"] / shm["ingest"]
    query = queue["query"] / shm["query"]
    print(f"shm / queue: ingest {ingest:.1f}x, query {query:.1f}x")
    assert queue["keys"] == shm["keys"], (
        "the shm transport drew a different merged sample than the "
        "queue transport on the same stream")
    assert ingest >= 2.0, (
        "zero-copy slab ingest no longer beats pickled-queue ingest by "
        "2x at 4 shards; batches are being pickled or the ring is "
        "stalling")
    assert query >= 2.0, (
        "the parallel scatter-gather query fan-out over slab replies no "
        "longer beats the sequential pickled gather by 2x")
    assert shm["ipc"]["fallback_slabs"] == 0
    assert shm["ipc"]["zero_copy_bytes"] > 0


def _serve_engine(root: str) -> ShardedReservoir:
    """The Figure 7(a) smoke reservoir split over 4 inline shards."""
    spec = experiment_1(scale=0)
    config = GeometricFileConfig(
        capacity=spec.capacity // 4,
        buffer_capacity=spec.buffer_capacity // 4,
        record_size=spec.record_size, retain_records=True,
        admission="uniform")
    return ShardedReservoir(root, config, shards=4, pool="inline",
                            partition="round-robin")


async def _tcp_load(sessions: int, requests: int) -> tuple[float, list]:
    """``sessions`` clients each send ``requests`` interleaved
    offer_batch(256) / sample(64) / stats requests; returns the elapsed
    seconds and every request's latency."""
    latencies: list[float] = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-gate-") as root:
        engine = _serve_engine(root)
        server = ReservoirServer(engine, ServerConfig())
        await server.start()
        host, port = server.address

        async def session(index: int) -> None:
            client = await AsyncServeClient.connect(host, port)
            base = 10_000_000 * (index + 1)
            try:
                # An untimed warm-up round keeps connection set-up and
                # first-touch costs out of the percentiles.
                await client.hello()
                await client.offer_batch(_records(256, base - 256))
                await client.sample(64)
                for i in range(requests):
                    t0 = time.perf_counter()
                    if i % 4 == 3:
                        await client.sample(64)
                    elif i % 16 == 9:
                        await client.stats()
                    else:
                        await client.offer_batch(
                            _records(256, base + i * 256))
                    latencies.append(time.perf_counter() - t0)
            finally:
                await client.close()

        try:
            start = time.perf_counter()
            await asyncio.gather(*(session(i) for i in range(sessions)))
            return time.perf_counter() - start, latencies
        finally:
            await server.shutdown()
            engine.close()


@pytest.mark.perf
def test_serving_layer_sustained_load():
    """The asyncio front-end sustains concurrent load: >= 10 requests/s
    with a P99 <= 2 s over TCP, and the in-process twin ingests >= 5k
    records/s with a sample P99 <= 1 s.  These measure the serving
    stack, so the floors sit far below any healthy host; a trip means
    requests queue behind a blocked event loop or executor."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-gate-") as root:
        engine = _serve_engine(root)
        client = ServeClient.in_process(
            ReservoirServer(engine, ServerConfig()))
        try:
            client.hello()
            client.offer_batch(_records(256, 90_000_000))
            client.sample(64)
            ingest = _seconds(lambda: [
                client.offer_batch(_records(256, i * 256))
                for i in range(20)])
            query_latencies = [_seconds(lambda: client.sample(64))
                               for _ in range(40)]
        finally:
            client.close()
            engine.close()
    inline_rps = 20 * 256 / ingest
    inline_p99_ms = _percentile(query_latencies, 0.99) * 1e3

    elapsed, latencies = asyncio.run(_tcp_load(sessions=4, requests=80))
    qps = len(latencies) / elapsed
    p99_ms = _percentile(latencies, 0.99) * 1e3
    print(f"inline: {inline_rps:,.0f} rec/s, sample P99 "
          f"{inline_p99_ms:.2f} ms; tcp: {qps:,.0f} req/s, P99 "
          f"{p99_ms:.2f} ms")
    assert len(latencies) == 4 * 80
    assert qps >= 10, (
        "the served TCP path no longer sustains 10 requests/second across "
        "concurrent sessions; the event loop or the engine executor is "
        "blocking")
    assert p99_ms <= 2_000.0, (
        "P99 served-request latency exceeds 2 seconds; requests are "
        "stalling behind ingest instead of interleaving")
    assert inline_rps >= 5_000, (
        "the inline served twin's batch ingest collapsed toward "
        "per-record protocol overhead")
    assert inline_p99_ms <= 1_000.0


def _aqp_workload(queries: int = 80) -> list[tuple[str, dict]]:
    """The standard AQP workload of ``tests/test_planner.py``: per 20
    queries, 14 broad aggregates, 3 moderate range filters and 3
    selective ones that escalate."""
    plan = []
    for i in range(queries):
        slot = i % 20
        if slot < 14:
            plan.append((("avg", "sum", "count")[i % 3], {}))
        elif slot < 17:
            kind = ("sum", "avg")[i % 2]
            where = (("value", 0.0, 600.0) if kind == "sum"
                     else ("value", 200.0, 800.0))
            plan.append((kind, {"where": where}))
        else:
            plan.append((("count", "sum")[i % 2],
                         {"where": ("value", 990.0, 1000.0)}))
    return plan


@pytest.mark.perf
def test_aqp_cache_hit_speedup():
    """A planner cache hit answers >= 50x faster at the median than the
    uncached disk path, a full merged ``snapshot_batch`` plus a
    columnar estimate (~150x measured).  A hit is a few numpy
    reductions over <= 4096 in-memory rows."""
    config = GeometricFileConfig(capacity=6000, buffer_capacity=600,
                                 record_size=50, retain_records=True,
                                 admission="uniform")
    with tempfile.TemporaryDirectory(prefix="repro-aqp-gate-") as root:
        def engine(name):
            return ShardedReservoir(f"{root}/{name}", config, shards=4,
                                    pool="inline", partition="round-robin")

        with engine("cached") as cached, engine("uncached") as uncached:
            planner = QueryPlanner(cached, error=0.05, confidence=0.95,
                                   budget=4096, seed=0)
            rng = np.random.default_rng(0)
            for start in range(0, 30_000, 2000):
                values = rng.uniform(0.0, 1000.0, size=2000)
                batch = [Record(key=start + i, value=float(v),
                                timestamp=0.0)
                         for i, v in enumerate(values)]
                cached.offer_batch(batch)
                uncached.offer_batch(batch)
            hits = []
            for kind, kwargs in _aqp_workload():
                t0 = time.perf_counter()
                answer = getattr(planner, kind)(**kwargs)
                if answer.tier == "cache":
                    hits.append(time.perf_counter() - t0)

            def disk_path(i):
                query = BatchQuery(*uncached.snapshot_batch(None))
                (query.avg, query.sum, query.count)[i % 3]()

            disk = [_seconds(lambda: disk_path(i)) for i in range(12)]
    speedup = _percentile(disk, 0.5) / _percentile(hits, 0.5)
    print(f"AQP cache hit / disk path at the median: {speedup:.0f}x")
    assert speedup >= 50.0, (
        "cache-hit answering no longer beats the uncached disk path by "
        "50x; the hot-subsample fast path is paying an engine round-trip "
        "it should skip")


@pytest.mark.perf
def test_weighted_ingest_ratio():
    """Batched A-ExpJ ingest keeps >= 0.2x the rate of uniform batched
    ingest on the same stream (~0.7x measured); a trip means weighted
    admission fell back to per-record work.  Every law's file must also
    pass its invariant check after the stream."""
    values = np.random.default_rng(0).uniform(0.0, 1000.0, size=60_000)
    records = [Record(key=i, value=float(v), timestamp=float(i))
               for i, v in enumerate(values)]
    params = DiskParameters(seek_time=0.010, transfer_rate=40 * 1024 * 1024,
                            block_size=4096)
    rates = {}
    for law, law_params in (
            ("uniform", ()),
            ("aexpj", (("weight", "value"),)),
            ("wr", (("weight", "value"),)),
            # Sized so the expected candidate need s*(1 + ln(window/s))
            # ~ 1860 fits the 2000-record budget.
            ("window", (("window", 10_000), ("sample_size", 400)))):
        config = GeometricFileConfig(
            capacity=2000, buffer_capacity=200, record_size=50,
            retain_records=True, law=law, law_params=law_params)
        blocks = GeometricFile.required_blocks(config, params.block_size)
        gf = GeometricFile(SimulatedBlockDevice(blocks, params), config,
                           seed=0)
        rates[law] = len(records) / _seconds(lambda: [
            gf.offer_many(records[start:start + 2000])
            for start in range(0, len(records), 2000)])
        gf.check_invariants()
        gf.close()
    ratio = rates["aexpj"] / rates["uniform"]
    print(", ".join(f"{law} {rate:,.0f} rec/s" for law, rate in rates.items()))
    assert ratio >= 0.2, (
        "batched A-ExpJ ingest fell below the uniform-ingest ratio floor; "
        "the exponential-jump batching or the vectorised key kernel "
        "stopped being used")
