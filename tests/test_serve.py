"""Tier-1 tests for the serving layer: protocol, server, inline twin.

Everything here runs without sockets or an event loop -- the
:class:`~repro.serve.InlineTransport` pushes fully-encoded frames
through the server's real ``handle_frame`` entry, so these tests cover
the same dispatch path the asyncio front-end uses (which
``tests/test_serve_async.py`` then exercises over real TCP, behind the
``serve`` marker).
"""

import collections
import json

import pytest

from repro.core.geometric_file import GeometricFileConfig
from repro.serve import (
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    InlineTransport,
    Request,
    Response,
    ReservoirServer,
    ServeClient,
    ServeError,
    ServerConfig,
    TokenBucket,
)
from repro.serve.protocol import (
    RETRYABLE_CODES,
    decode_frame,
    decode_record,
    decode_records,
    encode_frame,
    encode_record,
    encode_records,
    failure,
    success,
)
from repro.service import ShardedReservoir
from repro.storage import Record

from test_batch_ingest import P_MIN, chi_square_p


def keyed_records(n, start=0, payload=False):
    return [Record(key=start + i, value=float(start + i), timestamp=0.25 * i,
                   payload=bytes([i % 251]) * 3 if payload else b"")
            for i in range(n)]


def service_config(capacity=200, buffer_capacity=20, record_size=32):
    return GeometricFileConfig(capacity=capacity,
                               buffer_capacity=buffer_capacity,
                               record_size=record_size, beta_records=4,
                               retain_records=True, admission="uniform")


def make_engine(root, *, seed=0, shards=4):
    return ShardedReservoir(root, service_config(), shards=shards,
                            pool="inline", seed=seed)


# -- wire protocol -----------------------------------------------------------


class TestFraming:
    def test_frame_round_trip(self):
        body = {"v": 1, "id": 7, "op": "hello", "args": {}}
        assert decode_frame(encode_frame(body)) == body

    def test_decoder_reassembles_split_frames(self):
        bodies = [{"id": i, "payload": "x" * i} for i in range(1, 6)]
        stream = b"".join(encode_frame(b) for b in bodies)
        decoder = FrameDecoder()
        out = []
        # Feed one byte at a time: worst-case fragmentation.
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i:i + 1]))
        assert out == bodies
        assert not decoder.pending

    def test_oversized_frame_rejected_on_encode_and_feed(self):
        with pytest.raises(FrameError):
            encode_frame({"blob": "y" * 2048}, max_frame=1024)
        huge = (10_000_000).to_bytes(4, "big")
        with pytest.raises(FrameError):
            list(FrameDecoder(max_frame=1024).feed(huge))

    def test_record_codec_round_trip_with_payload(self):
        records = keyed_records(10, payload=True)
        wired = json.loads(json.dumps(encode_records(records)))
        assert decode_records(wired) == records

    def test_record_codec_preserves_float_values_exactly(self):
        record = Record(key=3, value=0.1 + 0.2, timestamp=1 / 3)
        assert decode_record(json.loads(
            json.dumps(encode_record(record)))) == record

    def test_request_response_wire_round_trip(self):
        request = Request(op="sample", id=12, args={"k": 5})
        assert Request.from_wire(request.to_wire()) == request
        ok = success(12, {"records": []})
        assert Response.from_wire(json.loads(
            json.dumps(ok.to_wire()))) == ok
        err = failure(13, "busy", "queue deep", retry_after=0.25)
        rebuilt = Response.from_wire(err.to_wire())
        assert rebuilt.error.code == "busy"
        assert rebuilt.error.retry_after == 0.25

    def test_error_codes_are_closed_set(self):
        assert set(RETRYABLE_CODES) <= set(ERROR_CODES)
        assert "busy" in RETRYABLE_CODES
        assert "rate_limited" in RETRYABLE_CODES


# -- token bucket ------------------------------------------------------------


class TestTokenBucket:
    def test_deterministic_with_injected_clock(self):
        now = [0.0]
        bucket = TokenBucket(2.0, 4.0, clock=lambda: now[0])
        # Burst of 4 goes through, the fifth must wait half a second.
        assert [bucket.try_acquire() for _ in range(4)] == [0.0] * 4
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)
        now[0] += wait
        assert bucket.try_acquire() == 0.0

    def test_zero_rate_disables_limiting(self):
        bucket = TokenBucket(0.0)
        assert all(bucket.try_acquire() == 0.0 for _ in range(1000))

    def test_failed_acquire_spends_nothing(self):
        now = [0.0]
        bucket = TokenBucket(1.0, 1.0, clock=lambda: now[0])
        assert bucket.try_acquire() == 0.0
        first = bucket.try_acquire()
        second = bucket.try_acquire()
        assert first == second == pytest.approx(1.0)


# -- dispatch-level behaviour ------------------------------------------------


class _StubEngine:
    """Minimal protocol engine with a controllable journal gauge."""

    name = "stub"

    def __init__(self):
        self.journal_depth = 0
        self.offered = []
        self.checkpoints = 0

    def offer(self, record):
        self.offered.append(record)

    def offer_batch(self, records):
        records = list(records)
        self.offered.extend(records)
        return len(records)

    def ingest(self, n):
        self.offered.extend([None] * n)

    def sample(self, k=None):
        return self.offered[: len(self.offered) if k is None else k]

    def sample_batch(self, k=None):
        raise TypeError("stub is scalar-only")

    def snapshot(self, k=None):
        return self.sample(k), len(self.offered)

    def stats(self):
        raise TypeError("stub has no stats")

    def checkpoint(self):
        self.checkpoints += 1

    def close(self):
        pass


def stub_server(**config):
    server = ReservoirServer(_StubEngine(), ServerConfig(**config))
    return server, server.open_session()


def call(server, session, op, args=None, *, v=PROTOCOL_VERSION, id=1):
    return server.dispatch(Request(op=op, id=id, args=args or {}, v=v),
                           session)


class TestDispatch:
    def test_unsupported_version(self):
        server, session = stub_server()
        response = call(server, session, "hello", v=PROTOCOL_VERSION + 1)
        assert not response.ok
        assert response.error.code == "unsupported_version"

    def test_unknown_op(self):
        server, session = stub_server()
        response = call(server, session, "transmogrify")
        assert response.error.code == "unknown_op"

    def test_malformed_frame_answers_bad_request(self):
        server, session = stub_server()
        reply = server.handle_frame(b"\x00\x00\x00\x03not", session)
        (body,) = FrameDecoder().feed(reply)
        response = Response.from_wire(body)
        assert response.error.code == "bad_request"
        assert response.id == 0

    def test_engine_type_error_maps_to_bad_request(self):
        server, session = stub_server()
        response = call(server, session, "stats")
        assert response.error.code == "bad_request"

    def test_busy_pushback_with_retry_after(self):
        server, session = stub_server(admission_depth=4,
                                      busy_retry_per_message=0.01)
        server.engine.journal_depth = 14
        response = call(server, session, "offer_batch", {"records": []})
        assert response.error.code == "busy"
        assert response.error.retry_after == pytest.approx(0.1)
        assert server.busy_rejections == 1
        # Reads are never admission-controlled.
        assert call(server, session, "sample", {"k": 0}).ok

    def test_rate_limit_is_per_session(self):
        now = [0.0]
        server = ReservoirServer(_StubEngine(),
                                 ServerConfig(rate_rps=1.0, rate_burst=2.0),
                                 clock=lambda: now[0])
        a, b = server.open_session(), server.open_session()
        assert call(server, a, "hello").ok
        assert call(server, a, "hello").ok
        limited = call(server, a, "hello")
        assert limited.error.code == "rate_limited"
        assert limited.error.retry_after == pytest.approx(1.0)
        # Session b has its own untouched bucket.
        assert call(server, b, "hello").ok

    def test_drain_rejects_work_but_answers_hello_and_close(self):
        server, session = stub_server()
        server.drain()
        assert server.engine.checkpoints == 1
        assert call(server, session, "sample").error.code == "shutting_down"
        assert call(server, session, "offer_batch",
                    {"records": []}).error.code == "shutting_down"
        assert call(server, session, "hello").ok
        assert call(server, session, "close").ok
        assert session.closed

    def test_hello_reports_engine_shape(self):
        server, session = stub_server()
        result = call(server, session, "hello").result
        assert result["protocol"] == PROTOCOL_VERSION
        assert result["engine"] == "stub"
        assert result["session"] == session.id

    def test_every_op_is_dispatchable(self):
        """No op constant is dead: each either succeeds or fails with a
        bad_request from the stub engine, never unknown_op."""
        for op in OPS:
            server, session = stub_server()
            response = call(server, session, op, {"records": [], "n": 0,
                                                  "record": [1, 1.0, 0.0,
                                                             ""]})
            if not response.ok:
                assert response.error.code == "bad_request", op


# -- client retry behaviour --------------------------------------------------


class TestClientRetries:
    def test_client_honours_retry_after_then_succeeds(self, tmp_path):
        engine = make_engine(tmp_path / "svc")
        server = ReservoirServer(engine,
                                 ServerConfig(admission_depth=0,
                                              busy_retry_per_message=0.5))
        naps = []

        def relieve(delay):
            naps.append(delay)
            engine.checkpoint()  # drains the journal: next try admits

        client = ServeClient(InlineTransport(server), sleep=relieve)
        try:
            engine.offer_batch(keyed_records(40))  # journal now non-empty
            admitted = client.offer_batch(keyed_records(8, start=1000))
            assert admitted == 8
            assert client.retries >= 1
            assert naps and all(d > 0 for d in naps)
        finally:
            client.close()
            engine.close()

    def test_client_gives_up_after_max_retries(self, tmp_path):
        engine = make_engine(tmp_path / "svc")
        server = ReservoirServer(engine, ServerConfig(admission_depth=0))
        client = ServeClient(InlineTransport(server), max_retries=3,
                             sleep=lambda d: None)
        try:
            engine.offer_batch(keyed_records(40))
            with pytest.raises(ServeError) as excinfo:
                client.offer_batch(keyed_records(8, start=1000))
            assert excinfo.value.code == "busy"
            assert client.retries == 3
        finally:
            client.close()
            engine.close()


class TestServedValidation:
    def test_overlong_payload_answers_bad_request(self, tmp_path):
        """The engine's payload-width guard reaches a served client as
        ``bad_request``, and the engine state is untouched."""
        engine = make_engine(tmp_path / "svc")
        client = ServeClient.in_process(ReservoirServer(engine))
        try:
            client.offer_batch(keyed_records(20))
            depth = engine.journal_depth
            batch = keyed_records(5, start=100) + [
                Record(key=105, payload=b"x" * (32 - 24 + 1))]
            with pytest.raises(ServeError) as excinfo:
                client.offer_batch(batch)
            assert excinfo.value.code == "bad_request"
            assert "record 105" in str(excinfo.value)
            assert engine.journal_depth == depth
            assert client.stats().seen == 20
        finally:
            client.close()
            engine.close()


# -- the twin-run guarantee --------------------------------------------------


def drive(reservoir_like):
    """One fixed call sequence against a Reservoir-protocol object."""
    out = {}
    reservoir_like.offer_batch(keyed_records(300))
    reservoir_like.offer(Record(key=9_000, value=9.0, timestamp=75.0))
    reservoir_like.offer_batch(keyed_records(200, start=10_000))
    out["sample"] = reservoir_like.sample(50)
    out["snapshot"] = reservoir_like.snapshot(25)
    out["batch"] = reservoir_like.sample_batch(40).to_records()
    reservoir_like.checkpoint()
    out["stats"] = reservoir_like.stats().as_dict()
    return out


class TestInlineTwin:
    def test_served_session_is_bit_exact_with_direct_calls(self, tmp_path):
        """The acceptance gate: identical samples, DiskStats, and clock
        from the same seed whether calls go through the wire protocol
        or straight into the engine."""
        direct_engine = make_engine(tmp_path / "direct", seed=11)
        served_engine = make_engine(tmp_path / "served", seed=11)
        server = ReservoirServer(served_engine)
        client = ServeClient.in_process(server)
        try:
            direct = drive(direct_engine)
            served = drive(client)
            assert served["sample"] == direct["sample"]
            assert served["snapshot"] == direct["snapshot"]
            assert served["batch"] == direct["batch"]
            assert served["stats"] == direct["stats"]  # io, clock, seen
            assert served["stats"]["clock"] == direct["stats"]["clock"]
            assert served["stats"]["io"] == direct["stats"]["io"]
        finally:
            client.close()
            direct_engine.close()
            served_engine.close()

    def test_estimates_match_direct_engine(self, tmp_path):
        direct_engine = make_engine(tmp_path / "direct", seed=3)
        served_engine = make_engine(tmp_path / "served", seed=3)
        server = ReservoirServer(served_engine)
        client = ServeClient.in_process(server)
        try:
            records = keyed_records(2_000)
            direct_engine.offer_batch(records)
            client.offer_batch(records)
            ours = client.estimate_sum(100)
            theirs = direct_engine.estimate_sum(100)
            assert ours.value == theirs.value
            assert ours.standard_error == theirs.standard_error
        finally:
            client.close()
            direct_engine.close()
            served_engine.close()

    def test_hello_describes_sharded_engine(self, tmp_path):
        engine = make_engine(tmp_path / "svc")
        server = ReservoirServer(engine)
        with ServeClient.in_process(server) as client:
            hello = client.hello()
            assert hello["shards"] == 4
            assert hello["capacity"] == engine.capacity
            assert hello["record_size"] == 32
        engine.close()


# -- statistics over the served path -----------------------------------------


class TestServedUniformity:
    def test_merged_served_samples_are_uniform(self, tmp_path):
        """Chi-square over many served sample() draws: every stream key
        appears in the merged samples at the uniform rate."""
        engine = make_engine(tmp_path / "svc", seed=29)
        server = ReservoirServer(engine)
        client = ServeClient.in_process(server)
        try:
            population = 1_600
            retained = 4 * 200  # shards x per-shard reservoir capacity
            client.offer_batch(keyed_records(population))
            counts = collections.Counter()
            draws, k = 150, 100
            for _ in range(draws):
                for record in client.sample(k):
                    counts[record.key] += 1
            # The reservoirs (plus their pending buffers) are frozen
            # between draws, so uniformity is over the resident records
            # of each shard: a shard's thinning must draw every one of
            # its resident keys at the same rate.  Round-robin
            # partitioning puts key i on shard i % 4.
            assert len(counts) >= retained
            for shard in range(4):
                observed = {key: c for key, c in counts.items()
                            if key % 4 == shard}
                uniform = draws * k / (4 * len(observed))
                expected = {key: uniform for key in observed}
                assert chi_square_p(observed, expected,
                                    min_expected=10.0) > P_MIN, shard
        finally:
            client.close()
            engine.close()


# -- drain durability --------------------------------------------------------


class TestDrainDurability:
    def test_drain_checkpoints_every_acknowledged_record(self, tmp_path):
        root = tmp_path / "svc"
        engine = make_engine(root, seed=5)
        server = ReservoirServer(engine)
        client = ServeClient.in_process(server)
        acknowledged = 0
        acknowledged += client.offer_batch(keyed_records(500))
        acknowledged += client.offer_batch(keyed_records(300, start=5_000))
        server.drain()
        client.close()
        engine.close()
        # Reopen from the checkpointed root: nothing acknowledged was
        # lost.
        with make_engine(root, seed=5) as reopened:
            assert reopened.stats().seen == acknowledged == 800
