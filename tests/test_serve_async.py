"""Real-socket tests for the asyncio serving front-end.

Marked ``serve`` and excluded from tier-1 (like the ``service``
multiprocessing lane): tier-1 proves the dispatch path through
:class:`~repro.serve.InlineTransport`; this file proves the event-loop
plumbing around it -- concurrent sessions, reads interleaving with
ingest, disconnects mid-request, rate limiting over the wire, and the
drain-on-shutdown durability guarantee.  Run with ``-m serve``.
"""

import asyncio

import pytest

from repro.core.geometric_file import GeometricFileConfig
from repro.serve import (
    AsyncServeClient,
    Request,
    ReservoirServer,
    ServeClient,
    ServeError,
    ServerConfig,
    TransportClosed,
)
from repro.serve.protocol import decode_frame, encode_frame, success
from repro.service import ShardedReservoir
from repro.storage import Record, RecordBatch, RecordSchema

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]


def keyed_records(n, start=0):
    return [Record(key=start + i, value=float(start + i), timestamp=0.0)
            for i in range(n)]


def make_engine(root, *, seed=0):
    config = GeometricFileConfig(capacity=200, buffer_capacity=20,
                                 record_size=32, beta_records=4,
                                 retain_records=True, admission="uniform")
    return ShardedReservoir(root, config, shards=4, pool="inline",
                            seed=seed)


def serve(tmp_path, coro_factory, *, seed=0, config=None):
    """Start a server on a fresh engine, run the coroutine, shut down.

    Returns (coroutine result, post-shutdown engine stats) so tests
    can assert on what the drained engine ended up holding.
    """
    engine = make_engine(tmp_path / "svc", seed=seed)
    server = ReservoirServer(engine, config or ServerConfig())

    async def run():
        await server.start()
        try:
            return await coro_factory(server)
        finally:
            await server.shutdown()

    try:
        result = asyncio.run(run())
        return result, engine.stats()
    finally:
        engine.close()


class TestConcurrentSessions:
    def test_samples_interleave_with_ingest(self, tmp_path):
        """Many sessions: writers stream batches while readers sample
        continuously.  Every read completes with the full requested
        draw -- no reader ever blocks behind ingest or returns short.
        """
        writers, readers, rounds = 3, 3, 15

        async def writer(server, index):
            host, port = server.address
            async with await AsyncServeClient.connect(host, port) as client:
                for round_no in range(rounds):
                    base = 1_000_000 * (index + 1) + 1_000 * round_no
                    admitted = await client.offer_batch(
                        keyed_records(100, start=base))
                    assert admitted == 100
                return rounds * 100

        async def reader(server):
            host, port = server.address
            draws = []
            async with await AsyncServeClient.connect(host, port) as client:
                # Wait until enough records exist for a k=50 merged draw.
                while (await client.snapshot(0))[1] < 200:
                    await asyncio.sleep(0.01)
                for _ in range(rounds):
                    records = await client.sample(50)
                    draws.append(len(records))
            return draws

        async def load(server):
            seed_engine = await AsyncServeClient.connect(*server.address)
            await seed_engine.offer_batch(keyed_records(400, start=77))
            await seed_engine.close()
            results = await asyncio.gather(
                *(writer(server, i) for i in range(writers)),
                *(reader(server) for _ in range(readers)))
            return results

        results, stats = serve(tmp_path, load)
        written = results[:writers]
        assert written == [1500] * writers
        for draws in results[writers:]:
            assert draws == [50] * rounds
        assert stats.seen == 400 + writers * 1500

    def test_sessions_are_isolated(self, tmp_path):
        async def load(server):
            host, port = server.address
            a = await AsyncServeClient.connect(host, port)
            b = await AsyncServeClient.connect(host, port)
            hello_a, hello_b = await a.hello(), await b.hello()
            await a.close()
            # Closing a does not affect b.
            await b.offer_batch(keyed_records(10))
            await b.close()
            return hello_a["session"], hello_b["session"]

        (sid_a, sid_b), _ = serve(tmp_path, load)
        assert sid_a != sid_b


class TestFaults:
    def test_client_disconnect_mid_request_leaves_server_up(self, tmp_path):
        async def load(server):
            host, port = server.address
            # A rude client: sends a torn frame (prefix promises more
            # bytes than it delivers) and vanishes.
            reader, writer = await asyncio.open_connection(host, port)
            frame = encode_frame({"v": 1, "id": 1, "op": "hello",
                                  "args": {}})
            writer.write(frame[: len(frame) - 3])
            await writer.drain()
            writer.close()
            # A polite client on the same server still gets answers.
            async with await AsyncServeClient.connect(host, port) as ok:
                await ok.offer_batch(keyed_records(50))
                return (await ok.snapshot(0))[1]

        seen, stats = serve(tmp_path, load)
        assert seen == 50
        assert stats.seen == 50

    def test_rate_limit_rejection_over_the_wire(self, tmp_path):
        config = ServerConfig(rate_rps=5.0, rate_burst=2.0)

        async def load(server):
            host, port = server.address
            client = await AsyncServeClient.connect(host, port)
            client.max_retries = 0  # surface the rejection
            with pytest.raises(ServeError) as excinfo:
                for _ in range(10):
                    await client.stats()
            await client.close()
            return excinfo.value

        error, _ = serve(tmp_path, load, config=config)
        assert error.code == "rate_limited"
        assert error.retry_after > 0

    def test_rate_limited_client_retries_to_success(self, tmp_path):
        config = ServerConfig(rate_rps=50.0, rate_burst=2.0)

        async def load(server):
            host, port = server.address
            async with await AsyncServeClient.connect(host, port) as client:
                for i in range(8):
                    await client.offer_batch(keyed_records(10, start=10 * i))
                return client.retries

        retries, stats = serve(tmp_path, load, config=config)
        assert retries > 0  # the bucket did throttle...
        assert stats.seen == 80  # ...but every batch landed


class TestDrainOnShutdown:
    def test_shutdown_checkpoints_acknowledged_records(self, tmp_path):
        root = tmp_path / "svc"
        engine = make_engine(root, seed=13)
        server = ReservoirServer(engine)

        async def run():
            await server.start()
            host, port = server.address
            acknowledged = 0
            async with await AsyncServeClient.connect(host, port) as client:
                for i in range(6):
                    acknowledged += await client.offer_batch(
                        keyed_records(150, start=1_000 * i))
            await server.shutdown()
            return acknowledged

        acknowledged = asyncio.run(run())
        engine.close()
        assert acknowledged == 900
        # Reopen from the drained root: every acknowledged record is
        # durable.
        with make_engine(root, seed=13) as reopened:
            assert reopened.stats().seen == 900

    def test_requests_after_drain_get_shutting_down(self, tmp_path):
        engine = make_engine(tmp_path / "svc")
        server = ReservoirServer(engine)

        async def run():
            await server.start()
            host, port = server.address
            client = await AsyncServeClient.connect(host, port)
            await client.offer_batch(keyed_records(20))
            server.draining = True  # drain flag flips mid-session
            client.max_retries = 0
            with pytest.raises(ServeError) as excinfo:
                await client.sample(5)
            code = excinfo.value.code
            await client.close()  # close is still answered while draining
            await server.shutdown()
            return code

        code = asyncio.run(run())
        engine.close()
        assert code == "shutting_down"


# -- replies a client refuses -------------------------------------------------


def wrong_id(request):
    return encode_frame(success(request.id + 1, {}).to_wire())


def torn_rows(request):
    frame = bytearray(encode_frame(success(
        request.id, rows=RecordBatch.empty(RecordSchema(32), 2)).to_wire()))
    frame[4 + 9] ^= 0x40  # a header byte under the CRC
    return bytes(frame)


async def mangling_server(mangle):
    """A server that answers every request with ``mangle(request)``."""
    async def answer(reader, writer):
        try:
            while True:
                prefix = await reader.readexactly(4)
                body = await reader.readexactly(int.from_bytes(prefix,
                                                               "big"))
                writer.write(mangle(Request.from_wire(
                    decode_frame(prefix + body))))
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    return await asyncio.start_server(answer, "127.0.0.1", 0)


def sync_client_calls_twice(host, port, **kwargs):
    """The blocking client's first and second ``stats()`` errors."""
    client = ServeClient.connect(host, port, **kwargs)
    errors = []
    for _ in range(2):
        try:
            client.stats()
        except TransportClosed as exc:
            errors.append(str(exc))
    client.close()
    return errors


class TestRefusedReplies:
    @pytest.mark.parametrize("mangle,reason", [
        (wrong_id, "carries id"), (torn_rows, "checksum")],
        ids=["wrong-id", "torn"])
    def test_both_clients_close_on_a_refused_reply(self, mangle, reason):
        async def run():
            server = await mangling_server(mangle)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                client = await AsyncServeClient.connect(host, port)
                with pytest.raises(TransportClosed, match=reason):
                    await client.stats()
                with pytest.raises(TransportClosed, match="closed"):
                    await client.stats()
                await client.close()
                return await asyncio.to_thread(sync_client_calls_twice,
                                               host, port)
            finally:
                server.close()
                await server.wait_closed()

        first, second = asyncio.run(run())
        assert reason in first
        assert "closed" in second

    def test_oversized_reply_closes_the_client(self, tmp_path):
        """A reply over the client's max_frame is refused unread: the
        session closes, and the next call fails at once instead of
        reading the refused body as a length prefix."""
        async def load(server):
            host, port = server.address
            async with await AsyncServeClient.connect(host, port) as feed:
                await feed.offer_batch(keyed_records(400))
            small = await AsyncServeClient.connect(host, port,
                                                   max_frame=600)
            with pytest.raises(TransportClosed, match="oversized"):
                await small.sample(100)
            with pytest.raises(TransportClosed, match="closed"):
                await small.stats()
            await small.close()
            errors = await asyncio.to_thread(sync_oversized, host, port)
            async with await AsyncServeClient.connect(host, port) as ok:
                return errors, (await ok.stats()).seen

        ((first, second), seen), stats = serve(tmp_path, load)
        assert "exceeds the 600-byte limit" in first
        assert "closed" in second
        assert seen == stats.seen == 400


def sync_oversized(host, port):
    """The blocking client's errors for an oversized ``sample`` reply
    and the ``stats()`` after it."""
    client = ServeClient.connect(host, port, max_frame=600)
    errors = []
    for call in (lambda: client.sample(100), client.stats):
        try:
            call()
        except TransportClosed as exc:
            errors.append(str(exc))
    client.close()
    return errors
