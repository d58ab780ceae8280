"""Unit tests for the record schema and codec."""

import pytest

from repro.storage.records import (
    MIN_RECORD_SIZE,
    Record,
    RecordSchema,
)


class TestSchemaValidation:
    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            RecordSchema(MIN_RECORD_SIZE - 1)

    def test_records_per_block(self):
        schema = RecordSchema(50)
        assert schema.records_per_block(32 * 1024) == 655

    def test_record_too_big_for_block(self):
        schema = RecordSchema(4096)
        with pytest.raises(ValueError):
            schema.records_per_block(1024)

    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (655, 1),
                                            (656, 2), (1310, 2), (1311, 3)])
    def test_blocks_for_records(self, n, expected):
        schema = RecordSchema(50)
        assert schema.blocks_for_records(n, 32 * 1024) == expected

    def test_blocks_for_negative_records(self):
        with pytest.raises(ValueError):
            RecordSchema(50).blocks_for_records(-1, 1024)


class TestCodec:
    def test_round_trip(self):
        schema = RecordSchema(64)
        record = Record(key=123456789, value=3.25, timestamp=17.5,
                        payload=b"sensor7")
        assert schema.decode(schema.encode(record)) == record

    def test_encoded_size_is_exact(self):
        schema = RecordSchema(50)
        assert len(schema.encode(Record(key=1))) == 50

    def test_payload_truncated_to_fit(self):
        schema = RecordSchema(MIN_RECORD_SIZE + 4)
        record = Record(key=1, payload=b"abcdefgh")
        decoded = schema.decode(schema.encode(record))
        assert decoded.payload == b"abcd"

    def test_negative_key_round_trips(self):
        schema = RecordSchema(32)
        record = Record(key=-42, value=-1.5, timestamp=-0.25)
        assert schema.decode(schema.encode(record)) == record

    def test_decode_wrong_size_rejected(self):
        schema = RecordSchema(50)
        with pytest.raises(ValueError):
            schema.decode(b"\x00" * 49)

    def test_unweighted_schema_rejects_weight(self):
        """The record slot has no weight field: a structure keeps a
        per-record weight in its aux columns, and the schema takes no
        weight argument at all."""
        schema = RecordSchema(64)
        with pytest.raises(TypeError):
            schema.encode(Record(key=1), weight=2.0)
        with pytest.raises(TypeError):
            RecordSchema(64, weighted=True)

    def test_batch_round_trip(self):
        schema = RecordSchema(40)
        records = [Record(key=i, value=i * 0.5) for i in range(10)]
        data = schema.encode_batch(records)
        assert len(data) == 400
        assert schema.decode_batch(data, 10) == records

    def test_decode_batch_insufficient_bytes(self):
        schema = RecordSchema(40)
        with pytest.raises(ValueError):
            schema.decode_batch(b"\x00" * 39, 1)
