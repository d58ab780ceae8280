"""Tier-1 tests for the serving layer: protocol, server, inline twin.

Everything here runs without sockets or an event loop -- the
:class:`~repro.serve.InlineTransport` pushes fully-encoded frames
through the server's real ``handle_frame`` entry, so these tests cover
the same dispatch path the asyncio front-end uses (which
``tests/test_serve_async.py`` then exercises over real TCP, behind the
``serve`` marker).
"""

import collections
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    TransportClosed,
)
from repro.serve.protocol import (
    RETRYABLE_CODES,
    decode_frame,
    encode_frame,
    failure,
    pack_rows,
    success,
)
from repro.service import ShardedReservoir
from repro.service.shm import (
    HEADER_BYTES,
    KIND_DATA,
    TRAILER_BYTES,
    encode_header,
    encode_trailer,
)
from repro.storage import Record, RecordBatch, RecordSchema

from test_batch_ingest import P_MIN, chi_square_p
from test_biased_file import make_biased


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

    def test_pack_rows_checks_and_sizes_the_layout(self):
        # (Record 0's all-NUL payload would read back stripped.)
        records = keyed_records(6, payload=True)[1:] + [
            Record(key=-1, value=-0.0, timestamp=float("-inf"),
                   payload=b"\x00ab\x00")]
        rows = pack_rows(records, RecordSchema(32))
        assert rows.schema.record_size == 32
        # The slot contract: trailing NULs are dropped, nothing else.
        assert rows.to_records()[:5] == records[:5]
        assert rows.to_records()[5].payload == b"\x00ab"
        # With no layout, the smallest one that holds every payload.
        assert pack_rows(records).schema.record_size == 24 + 4
        assert pack_rows([]).schema.record_size == 24
        with pytest.raises(ValueError, match="payload slot"):
            pack_rows([Record(key=1, payload=b"x" * 9)], RecordSchema(32))
        with pytest.raises(ValueError, match="64-bit key field"):
            pack_rows([Record(key=2 ** 63)], RecordSchema(32))


# -- data frames --------------------------------------------------------------

#: Float bit patterns JSON cannot carry exactly: NaNs with payload bits
#: (both signs), -0.0 and the infinities.
SPECIAL_BITS = (0x7FF8_0000_0000_0001, 0xFFF4_0000_0000_0BAD,
                0x8000_0000_0000_0000, 0x7FF0_0000_0000_0000,
                0xFFF0_0000_0000_0000)


def random_rows(record_size, n, seed, specials=()):
    """``n`` rows of arbitrary bytes (every key, float and payload bit
    pattern is fair game), with ``specials`` planted as
    ``(row, field, bits)``."""
    schema = RecordSchema(record_size)
    raw = np.random.default_rng(seed).integers(
        0, 256, n * record_size, dtype=np.uint8)
    array = raw.view(schema.dtype)
    for row, name, bits in specials:
        if n:
            array[name][row % n:row % n + 1].view(np.uint64)[0] = bits
    return RecordBatch(schema, array)


def data_frame(rows, envelope, *, seq=None, n_records=None, n_bytes=None,
               trailer_seq=None):
    """A data frame assembled by hand, so single fields can lie."""
    data = rows.to_bytes()
    seq = envelope["id"] if seq is None else seq
    body = b"".join((
        encode_header(KIND_DATA, 0, seq,
                      len(rows) if n_records is None else n_records,
                      len(data) if n_bytes is None else n_bytes),
        data,
        encode_trailer(seq if trailer_seq is None else trailer_seq),
        json.dumps({**envelope,
                    "record_size": rows.schema.record_size}).encode()))
    return len(body).to_bytes(4, "big") + body


def feed_in_chunks(stream, sizes):
    decoder = FrameDecoder()
    out, at, i = [], 0, 0
    while at < len(stream):
        size = sizes[i % len(sizes)]
        out.extend(decoder.feed(stream[at:at + size]))
        at, i = at + size, i + 1
    assert not decoder.pending
    return out


class TestDataFrames:
    @given(record_size=st.integers(24, 128), n=st.integers(0, 300),
           seed=st.integers(0, 2 ** 32 - 1),
           specials=st.lists(st.tuples(
               st.integers(0, 299), st.sampled_from(["value", "timestamp"]),
               st.sampled_from(SPECIAL_BITS) | st.integers(0, 2 ** 64 - 1)),
               max_size=8),
           request_id=st.integers(0, 2 ** 64 - 1),
           args=st.dictionaries(st.text(max_size=8),
                                st.integers() | st.text(max_size=8),
                                max_size=3),
           sizes=st.lists(st.integers(1, 4096), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_through_split_feeds(self, record_size, n, seed,
                                            specials, request_id, args,
                                            sizes):
        """encode_frame, then a FrameDecoder fed in arbitrary chunk
        splits, returns byte-identical rows and the same envelope."""
        rows = random_rows(record_size, n, seed, specials)
        envelope = {"v": PROTOCOL_VERSION, "id": request_id,
                    "op": "offer_batch", "args": args}
        control = {"v": PROTOCOL_VERSION, "id": 1, "op": "stats",
                   "args": {}}
        stream = (encode_frame({**envelope, "rows": rows})
                  + encode_frame(control)
                  + encode_frame({**envelope, "rows": rows}))
        first, middle, last = feed_in_chunks(stream, sizes)
        assert middle == control
        for body in (first, last):
            got = body.pop("rows")
            assert body == envelope
            assert got.schema == rows.schema
            assert got.to_bytes() == rows.to_bytes()

    def test_response_rows_round_trip_exactly(self):
        rows = random_rows(40, 17, 3, [(i, "value", bits)
                                       for i, bits in enumerate(SPECIAL_BITS)])
        response = success(9, {"seen": 5}, rows)
        got = Response.from_wire(decode_frame(encode_frame(
            response.to_wire())))
        assert (got.id, got.ok, got.result) == (9, True, {"seen": 5})
        assert got.rows.to_bytes() == rows.to_bytes()

    @given(position=st.integers(0, HEADER_BYTES + TRAILER_BYTES - 1),
           mask=st.integers(1, 255))
    @settings(max_examples=150, deadline=None)
    def test_any_flipped_header_or_trailer_byte_is_refused(self, position,
                                                           mask):
        rows = random_rows(32, 3, 1)
        frame = bytearray(encode_frame({"v": 2, "id": 7, "op": "offer_batch",
                                        "args": {}, "rows": rows}))
        # Past the header, the position lands in the trailer.
        at = 4 + position + (3 * 32 if position >= HEADER_BYTES else 0)
        frame[at] ^= mask
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))
        with pytest.raises(FrameError):
            list(FrameDecoder().feed(bytes(frame)))

    def test_lying_fields_and_truncation_are_refused(self):
        for frame in corrupt_frames():
            with pytest.raises(FrameError):
                decode_frame(frame)

    def test_record_sizes_from_the_wire_are_bounded(self):
        """A record size no frame could carry is refused, and decoding
        frames of many distinct sizes keeps the codec caches bounded."""
        from repro.storage.records import _batch_dtype, _full_struct

        for record_size in (23, 2 ** 31, 2 ** 70, "32", None):
            with pytest.raises(FrameError, match="record_size"):
                decode_frame(sized_frame(record_size))
        for record_size in range(24, 24 + 500):
            decode_frame(sized_frame(record_size))
        for cache in (_full_struct, _batch_dtype):
            info = cache.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize

    def test_corrupt_frames_leave_the_engine_untouched(self, tmp_path):
        """Through handle_frame every corrupt frame answers bad_request
        before any state changes."""
        engine = make_engine(tmp_path / "svc")
        server = ReservoirServer(engine)
        session = server.open_session()
        try:
            engine.offer_batch(keyed_records(100))
            seen, depth = engine.stats().seen, engine.journal_depth
            # Rows in another layout, even ones the engine could hold.
            wide = pack_rows([Record(key=7)], RecordSchema(40))
            for frame in corrupt_frames() + [
                    sized_frame(2 ** 31),
                    data_frame(random_rows(40, 2, 0), OFFER),
                    data_frame(wide, {**OFFER, "op": "offer"})]:
                reply = Response.from_wire(decode_frame(
                    server.handle_frame(frame, session)))
                assert reply.error.code == "bad_request"
            assert engine.stats().seen == seen
            assert engine.journal_depth == depth
        finally:
            engine.close()


OFFER = {"v": PROTOCOL_VERSION, "id": 5, "op": "offer_batch", "args": {}}


def sized_frame(record_size):
    """An empty data frame whose envelope names ``record_size``."""
    body = b"".join((encode_header(KIND_DATA, 0, 5, 0, 0), encode_trailer(5),
                     json.dumps({**OFFER, "record_size": record_size})
                     .encode()))
    return len(body).to_bytes(4, "big") + body


def corrupt_frames():
    """Data frames that must never reach an engine: a header seq that
    is not the envelope id, a row count that disagrees with n_bytes,
    and truncated bodies (short of the prefix, and cut then
    re-prefixed)."""
    rows = random_rows(32, 4, 2)
    good = data_frame(rows, OFFER)
    cut = good[4:4 + HEADER_BYTES + 2 * 32]
    return [
        data_frame(rows, OFFER, seq=6),
        data_frame(rows, OFFER, n_records=3),
        data_frame(rows, OFFER, n_records=5, n_bytes=5 * 32),
        good[:-1],
        len(cut).to_bytes(4, "big") + cut,
    ]


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


def call(server, session, op, args=None, *, v=PROTOCOL_VERSION, id=1,
         rows=None):
    return server.dispatch(Request(op=op, id=id, args=args or {}, v=v,
                                   rows=rows), session)


#: An offer of no records.
NO_ROWS = RecordBatch.empty(RecordSchema(32))


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
        response = call(server, session, "offer_batch", rows=NO_ROWS)
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
                    rows=NO_ROWS).error.code == "shutting_down"
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
            response = call(server, session, op, {"n": 0}, rows=NO_ROWS)
            if not response.ok:
                assert response.error.code == "bad_request", op

    def test_v1_request_is_refused(self):
        """A version-1 client (JSON record lists) is told the version
        is unsupported, whatever it sends."""
        server, session = stub_server()
        frame = encode_frame({"v": 1, "id": 3, "op": "offer_batch",
                              "args": {"records": [[1, 0.0, 0.0, ""]]}})
        reply = Response.from_wire(decode_frame(
            server.handle_frame(frame, session)))
        assert (reply.id, reply.error.code) == (3, "unsupported_version")
        assert server.engine.offered == []

    def test_malformed_envelopes_answer_bad_request(self):
        """An envelope field of the wrong type, or an id that cannot be
        a data frame's 64-bit seq, is refused on arrival (the reply to
        a sample would otherwise fail to encode)."""
        server, session = stub_server()
        for fields in ({"id": -1}, {"id": 2 ** 64}, {"id": [1]},
                       {"v": {}}):
            body = {"v": PROTOCOL_VERSION, "id": 1, "op": "sample",
                    "args": {"k": 0}, **fields}
            reply = Response.from_wire(decode_frame(server.handle_frame(
                encode_frame(body), session)))
            assert (reply.id, reply.error.code) == (0, "bad_request")

    def test_rows_travel_only_in_a_data_frame(self):
        """An ingest op without rows, or with a JSON ``rows`` list,
        answers bad_request."""
        server, session = stub_server()
        response = call(server, session, "offer_batch")
        assert response.error.code == "bad_request"
        body = json.dumps({"v": PROTOCOL_VERSION, "id": 4,
                           "op": "offer_batch", "args": {},
                           "rows": [[1, 0.0, 0.0, ""]]}).encode()
        reply = server.handle_frame(len(body).to_bytes(4, "big") + body,
                                    session)
        assert Response.from_wire(decode_frame(reply)).error.code == \
            "bad_request"
        assert server.engine.offered == []


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
        """A payload wider than the engine's slot is a ``ValueError`` at
        the client, which sends nothing; rows in a wider layout, sent
        raw, answer ``bad_request``.  Either way the engine state is
        untouched."""
        engine = make_engine(tmp_path / "svc")
        server = ReservoirServer(engine)
        client = ServeClient.in_process(server)
        try:
            client.offer_batch(keyed_records(20))
            depth, served = engine.journal_depth, server.requests_served
            batch = keyed_records(5, start=100) + [
                Record(key=105, payload=b"x" * (32 - 24 + 1))]
            with pytest.raises(ValueError, match="record 105"):
                client.offer_batch(batch)
            assert server.requests_served == served
            wide = pack_rows(batch, RecordSchema(40))
            reply = Response.from_wire(decode_frame(server.handle_frame(
                encode_frame(Request(op="offer_batch", id=99,
                                     rows=wide).to_wire()),
                server.open_session())))
            assert reply.error.code == "bad_request"
            assert "40 B" in reply.error.message
            assert engine.journal_depth == depth
            assert client.stats().seen == 20
        finally:
            client.close()
            engine.close()


    def test_out_of_range_key_answers_bad_request(self, tmp_path):
        """A key past 64 bits cannot enter a slab: the client refuses
        it with a ``ValueError`` before anything is sent, for a batch
        and for a single offer."""
        engine = make_engine(tmp_path / "svc")
        server = ReservoirServer(engine)
        client = ServeClient.in_process(server)
        try:
            client.offer_batch(keyed_records(20))
            served = server.requests_served
            with pytest.raises(ValueError, match="64-bit key field"):
                client.offer_batch([Record(key=1), Record(key=2 ** 70)])
            with pytest.raises(ValueError, match="64-bit key field"):
                client.offer(Record(key=2 ** 70))
            assert server.requests_served == served
            assert engine.stats().seen == 20
        finally:
            client.close()
            engine.close()


class TestRefusedReplies:
    def test_a_reply_over_max_frame_answers_bad_request(self, tmp_path):
        """The server answers a reply it cannot frame instead of
        dropping the session."""
        engine = make_engine(tmp_path / "svc")
        client = ServeClient.in_process(
            ReservoirServer(engine, ServerConfig(max_frame=600)))
        try:
            for start in range(0, 400, 10):
                client.offer_batch(keyed_records(10, start=start))
            with pytest.raises(ServeError, match="600-byte limit") as info:
                client.sample(100)
            assert info.value.code == "bad_request"
            assert len(client.sample(5)) == 5
            assert engine.stats().seen == 400
        finally:
            client.close()
            engine.close()

    def test_a_reply_for_another_request_closes_the_client(self, tmp_path):
        class WrongId(InlineTransport):
            def request(self, request):
                reply = super().request(request)
                return dataclasses.replace(reply, id=reply.id + 1)

        engine = make_engine(tmp_path / "svc")
        client = ServeClient(WrongId(ReservoirServer(engine)))
        try:
            with pytest.raises(TransportClosed, match="carries id 2"):
                client.stats()
            with pytest.raises(TransportClosed, match="closed"):
                client.stats()
        finally:
            client.close()
            engine.close()


class TestServedBiasedFile:
    def test_served_offer_batch_runs_algorithm_4(self):
        """A served batch reaches a biased file's weighted admission:
        the engine ends where a same-seed twin fed ``offer_many`` does
        (the uniform slab gate would admit by ``N / i`` instead)."""
        def weight(record):
            return 1.0 + record.key % 7

        direct = make_biased(weight_fn=weight, seed=5)
        served = make_biased(weight_fn=weight, seed=5)
        client = ServeClient.in_process(ReservoirServer(served))
        try:
            for start in range(0, 3_000, 250):
                chunk = keyed_records(250, start=start)
                assert client.offer_batch(chunk) == direct.offer_many(chunk)
            assert served.total_weight == direct.total_weight
            assert served.overflow_events == direct.overflow_events
            assert served.stats().as_dict() == direct.stats().as_dict()
            assert client.sample() == direct.sample()
        finally:
            client.close()


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
