"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import TEST_BLOCK, small_disk_params
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.geometry import alpha_for, build_ladder
from repro.sampling import BiasedReservoir, ReservoirSample
from repro.storage.device import SimulatedBlockDevice
from repro.storage.records import MIN_RECORD_SIZE, Record, RecordSchema

_slow = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@given(record_size=st.integers(MIN_RECORD_SIZE, 256),
       key=st.integers(-2 ** 62, 2 ** 62),
       value=st.floats(allow_nan=False, allow_infinity=False,
                       width=64),
       timestamp=st.floats(allow_nan=False, allow_infinity=False,
                           width=64),
       payload=st.binary(max_size=64))
@settings(max_examples=200, deadline=None)
def test_record_codec_round_trip_property(record_size, key, value,
                                          timestamp, payload):
    """decode(encode(r)) == r up to payload truncation and zero-padding."""
    schema = RecordSchema(record_size)
    record = Record(key=key, value=value, timestamp=timestamp,
                    payload=payload)
    decoded = schema.decode(schema.encode(record))
    assert decoded.key == key
    assert decoded.value == value
    assert decoded.timestamp == timestamp
    room = record_size - MIN_RECORD_SIZE
    assert decoded.payload == payload[:room].rstrip(b"\x00")


@given(capacity=st.integers(1, 50), stream=st.integers(0, 400),
       seed=st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_reservoir_size_property(capacity, stream, seed):
    """len == min(capacity, seen) and contents are distinct stream items."""
    reservoir = ReservoirSample(capacity, random.Random(seed))
    reservoir.extend(range(stream))
    assert len(reservoir) == min(capacity, stream)
    contents = reservoir.contents()
    assert len(set(contents)) == len(contents)
    assert all(0 <= item < stream for item in contents)


@given(capacity=st.integers(1, 30), stream=st.integers(0, 300),
       seed=st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_biased_reservoir_size_property(capacity, stream, seed):
    reservoir = BiasedReservoir(capacity, rng=random.Random(seed))
    for i in range(stream):
        reservoir.offer(Record(key=i))
    assert len(reservoir) == min(capacity, stream)
    keys = [r.key for r in reservoir]
    assert len(set(keys)) == len(keys)


@given(data=st.data())
@_slow
def test_geometric_file_invariants_property(data):
    """Any (N, B, beta, stream length) keeps every file invariant."""
    buffer_capacity = data.draw(st.integers(4, 60), label="B")
    multiplier = data.draw(st.integers(2, 20), label="N/B")
    capacity = buffer_capacity * multiplier
    beta = data.draw(st.integers(1, max(1, buffer_capacity // 2)),
                     label="beta")
    stream = data.draw(st.integers(0, capacity * 3), label="stream")
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    config = GeometricFileConfig(
        capacity=capacity, buffer_capacity=buffer_capacity,
        record_size=40, retain_records=True, beta_records=beta,
        admission="always",
    )
    blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
    device = SimulatedBlockDevice(blocks, small_disk_params())
    gf = GeometricFile(device, config, seed=seed)
    for i in range(stream):
        gf.offer(Record(key=i))
    gf.check_invariants()
    sample = gf.sample()
    keys = [r.key for r in sample]
    assert len(keys) == min(capacity, stream)
    assert len(set(keys)) == len(keys)
    assert all(0 <= k < stream for k in keys)


@given(buffer=st.integers(10, 2000), ratio=st.integers(2, 100),
       beta=st.integers(1, 100))
@settings(max_examples=150, deadline=None)
def test_ladder_consistent_with_lemma_1_property(buffer, ratio, beta):
    """Summing a full cascade of decayed ladders reproduces N.

    A subsample aged k retains ladder.size_below(k); Lemma 1 says the
    steady-state sum over ages approximates N = B / (1 - alpha).
    """
    capacity = buffer * ratio
    alpha = alpha_for(capacity, buffer)
    ladder = build_ladder(buffer, alpha, min(beta, buffer))
    # A subsample aged k holds size_below(k) ~ B * alpha**k, so the sum
    # over the j disk-holding ages is N * (1 - alpha**j); the remaining
    # N * alpha**j lives in the decaying tail-only cascade.  Integer
    # rounding perturbs each rung by <= 1 record.
    j = ladder.n_disk_segments
    disk_part = sum(ladder.size_below(k) for k in range(j))
    assert disk_part <= capacity
    expected = capacity * (1.0 - alpha ** j)
    assert disk_part == pytest.approx(expected, rel=0.05, abs=j + 2)


@given(n_disks=st.integers(1, 8), stripe=st.integers(1, 4),
       accesses=st.lists(st.tuples(st.integers(0, 900),
                                   st.integers(1, 100)), max_size=25))
@settings(max_examples=100, deadline=None)
def test_striped_device_conservation_property(n_disks, stripe, accesses):
    """Every block written lands on exactly one spindle; the combined
    counters account for every access regardless of geometry."""
    from repro.storage import DiskParameters, StripedBlockDevice
    from repro.storage.device import write_zeros

    device = StripedBlockDevice(1000, n_disks,
                                DiskParameters(block_size=512),
                                stripe_blocks=stripe)
    total = 0
    for block, n in accesses:
        n = min(n, 1000 - block)
        if n <= 0:
            continue
        write_zeros(device, block, n)
        total += n
    assert device.stats().blocks_written == total
    assert device.clock <= sum(d.clock for d in device.disks) + 1e-12
    assert device.clock == max(d.clock for d in device.disks)


@given(values=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300))
@settings(max_examples=150, deadline=None)
def test_online_aggregator_matches_batch_property(values):
    """Welford's running moments equal the batch computation."""
    import statistics

    from repro.estimate import OnlineAggregator

    agg = OnlineAggregator()
    agg.observe_many(values)
    assert agg.avg().value == pytest.approx(statistics.mean(values),
                                            rel=1e-9, abs=1e-6)
    assert agg.variance == pytest.approx(statistics.variance(values),
                                         rel=1e-6, abs=1e-6)
