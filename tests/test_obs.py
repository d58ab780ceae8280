"""Tests for the observability subsystem (``repro.obs``).

Covers the metrics registry primitives, the trace ring buffer, the
unified ``stats()`` protocol, bit-exact reconciliation between mirrored
registry counters and ``DiskStats``, trace-event ordering at flush
boundaries, the zero-cost guarantee (instrumentation must not move the
simulated clock), and the ``ManagedSample`` delegation error.
"""

import pytest

from conftest import TEST_BLOCK, make_geometric_file, small_disk_params
from repro.bench import ALTERNATIVE_NAMES, experiment_1, run_until
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.managed import ManagedSample
from repro.obs import (
    Counter,
    EVENT_KINDS,
    Gauge,
    Histogram,
    MetricsRegistry,
    ReservoirStats,
    Timer,
    TraceSink,
)
from repro.storage.device import (
    FileBlockDevice,
    MemoryBlockDevice,
    SimulatedBlockDevice,
)
from repro.storage.records import Record
from repro.storage.striping import StripedBlockDevice

pytestmark = pytest.mark.obs

#: The eight mirrored device counters and the DiskStats fields they track.
DISK_FIELDS = ("seeks", "reads", "writes", "blocks_read", "blocks_written",
               "sequential_blocks", "seek_seconds", "transfer_seconds")


def feed(reservoir, n, start=0):
    for i in range(start, start + n):
        reservoir.offer(Record(key=i, value=float(i), timestamp=float(i)))


# ---------------------------------------------------------------------------
# Registry primitives
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_accumulates_and_rejects_negatives(self):
        c = Counter("n", {})
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)
        c.reset()
        assert c.value == 0

    def test_gauge_sets_and_moves(self):
        g = Gauge("g", {})
        g.set(10)
        g.inc(-3)
        assert g.value == 7

    def test_histogram_summary_stats(self):
        h = Histogram("h", {})
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 3
        assert d["total"] == 6.0
        assert d["min"] == 1.0 and d["max"] == 3.0
        assert d["mean"] == pytest.approx(2.0)

    def test_timer_context_manager_observes(self):
        t = Timer("t", {})
        with t:
            pass
        assert t.count == 1
        assert t.total >= 0.0

    def test_registry_get_or_create_shares_instances(self):
        reg = MetricsRegistry()
        a = reg.counter("disk.seeks", structure="geo file")
        b = reg.counter("disk.seeks", structure="geo file")
        assert a is b
        other = reg.counter("disk.seeks", structure="scan")
        assert other is not a
        assert len(reg) == 2

    def test_registry_rejects_kind_conflicts(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_registry_value_defaults_to_zero(self):
        reg = MetricsRegistry()
        assert reg.value("never.registered", structure="nope") == 0.0

    def test_registry_as_dict_round_trips_through_json(self):
        import json

        reg = MetricsRegistry()
        reg.counter("a", structure="s").inc(4)
        reg.gauge("b").set(1.5)
        payload = json.loads(reg.to_json())
        assert {m["name"] for m in payload["metrics"]} == {"a", "b"}


class TestTraceSink:
    def test_ring_buffer_drops_oldest(self):
        sink = TraceSink(capacity=4)
        for i in range(6):
            sink.emit("flush", "geo file", float(i), index=i)
        assert sink.total_emitted == 6
        assert sink.dropped == 2
        events = sink.events()
        assert len(events) == 4
        assert [e.fields["index"] for e in events] == [2, 3, 4, 5]

    def test_emit_rejects_unknown_kind(self):
        sink = TraceSink()
        with pytest.raises(ValueError):
            sink.emit("not-a-kind", "geo file", 0.0)

    def test_filtering_and_counts(self):
        sink = TraceSink()
        sink.emit("flush", "a", 0.0)
        sink.emit("flush", "b", 1.0)
        sink.emit("checkpoint", "a", 2.0)
        assert len(sink.events(kind="flush")) == 2
        assert len(sink.events(source="a")) == 2
        assert sink.counts() == {"flush": 2, "checkpoint": 1}

    def test_jsonl_streaming(self, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        with open(path, "w") as fh:
            sink = TraceSink(stream=fh)
            sink.emit("flush", "geo file", 1.25, index=0, records=10)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["kind"] == "flush"
        assert event["source"] == "geo file"
        assert event["fields"]["records"] == 10


# ---------------------------------------------------------------------------
# The unified stats() protocol
# ---------------------------------------------------------------------------

class TestStatsProtocol:
    def test_every_alternative_answers_stats(self):
        spec = experiment_1(scale=0)
        for name in ALTERNATIVE_NAMES:
            reservoir = spec.make(name)
            reservoir.ingest(1000)
            st = reservoir.stats()
            assert isinstance(st, ReservoirStats)
            assert st.name == name
            assert st.capacity == spec.capacity
            assert st.seen == 1000
            assert st.io is not None
            d = st.as_dict()
            assert d["name"] == name
            assert "io" in d

    def test_devices_answer_stats(self, tmp_path):
        devices = [
            MemoryBlockDevice(8, block_size=TEST_BLOCK),
            SimulatedBlockDevice(8, small_disk_params()),
            FileBlockDevice(tmp_path / "dev.bin", 8, block_size=TEST_BLOCK),
            StripedBlockDevice(8, n_disks=2, params=small_disk_params()),
        ]
        for device in devices:
            device.write_blocks(0, b"\0" * device.block_size)
            device.read_blocks(0, 1)
            st = device.stats()
            assert st.blocks_written >= 1
            assert st.blocks_read >= 1

    def test_managed_sample_delegates_stats(self, tmp_path):
        cfg = GeometricFileConfig(capacity=400, buffer_capacity=40,
                                  record_size=40, retain_records=True,
                                  beta_records=4)
        blocks = GeometricFile.required_blocks(cfg, TEST_BLOCK)
        ms = ManagedSample(
            tmp_path / "s.json",
            lambda: SimulatedBlockDevice(blocks, small_disk_params()),
            cfg, checkpoint_every=5,
        )
        feed(ms, 500)
        st = ms.stats()
        assert st.name == "geo file"
        assert st.seen == 500

    def test_stats_extra_is_read_only(self):
        gf = make_geometric_file(retain_records=False)
        gf.ingest(500)
        extra = gf.stats().extra
        assert extra["alpha"] == gf.alpha
        with pytest.raises(TypeError):
            extra["alpha"] = 0.0


# ---------------------------------------------------------------------------
# Reconciliation: mirrored counters == DiskStats, bit for bit
# ---------------------------------------------------------------------------

class TestReconciliation:
    def test_registry_exactly_matches_disk_stats_across_alternatives(self):
        spec = experiment_1(scale=0)
        registry = MetricsRegistry()
        trace = TraceSink()
        for name in ALTERNATIVE_NAMES:
            reservoir = spec.make(name)
            reservoir.instrument(registry, trace)
            run_until(reservoir, spec.horizon_seconds)
            io = reservoir.stats().io
            for field in DISK_FIELDS:
                mirrored = registry.value(f"disk.{field}", structure=name)
                expected = getattr(io, field)
                # Bit-exact, including the float second totals: the
                # mirror applies the same increments in the same order.
                assert mirrored == expected, (name, field)
            assert (registry.value("events.flush", structure=name)
                    == reservoir.flushes)

    def test_striped_volume_sums_all_spindles(self):
        device = StripedBlockDevice(64, n_disks=4,
                                    params=small_disk_params())
        registry = MetricsRegistry()
        device.instrument(registry, name="striped")
        for i in range(64):
            device.write_blocks(i, b"\0" * device.block_size)
        st = device.stats()
        assert st.blocks_written == 64
        assert registry.value("disk.blocks_written",
                              structure="striped") == 64
        assert registry.value("disk.seek_seconds",
                              structure="striped") == st.seek_seconds


# ---------------------------------------------------------------------------
# Trace ordering and the zero-cost guarantee
# ---------------------------------------------------------------------------

class TestTraceOrdering:
    def test_geo_file_overwrites_precede_their_flush(self):
        gf = make_geometric_file(capacity=2000, buffer_capacity=100,
                                 retain_records=False)
        registry = MetricsRegistry()
        trace = TraceSink()
        gf.instrument(registry, trace)
        gf.ingest(20_000)
        events = trace.events(source="geo file")
        assert events, "geo file emitted no trace events"

        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        clocks = [e.clock for e in events]
        assert clocks == sorted(clocks)
        assert all(e.kind in EVENT_KINDS for e in events)

        # Within each steady flush, slot overwrites are traced before
        # the flush-completion event itself.  (Startup flushes write one
        # contiguous region instead, so they emit no overwrites.)
        flush_count = 0
        steady_count = 0
        overwrites_since_flush = 0
        for event in events:
            if event.kind == "segment_overwrite":
                overwrites_since_flush += 1
            elif event.kind == "flush":
                if event.fields["phase"] == "steady":
                    assert overwrites_since_flush > 0, (
                        f"flush #{event.fields['index']} traced with no "
                        "preceding segment_overwrite"
                    )
                    steady_count += 1
                else:
                    assert overwrites_since_flush == 0
                overwrites_since_flush = 0
                flush_count += 1
        assert flush_count == gf.flushes
        assert steady_count > 0
        assert registry.value("events.segment_overwrite",
                              structure="geo file") > 0

    def test_instrumentation_does_not_move_the_clock(self):
        plain = make_geometric_file(seed=11, retain_records=False)
        observed = make_geometric_file(seed=11, retain_records=False)
        registry = MetricsRegistry()
        observed.instrument(registry, TraceSink())
        plain.ingest(25_000)
        observed.ingest(25_000)
        assert observed._clock() == plain._clock()
        assert observed.device.stats() == plain.device.stats()
        assert observed.stats().seen == plain.stats().seen


# ---------------------------------------------------------------------------
# The ManagedSample proxy's attribute errors
# ---------------------------------------------------------------------------

class TestDeprecations:
    def test_managed_getattr_names_both_classes(self, tmp_path):
        cfg = GeometricFileConfig(capacity=400, buffer_capacity=40,
                                  record_size=40, retain_records=True,
                                  beta_records=4)
        blocks = GeometricFile.required_blocks(cfg, TEST_BLOCK)
        ms = ManagedSample(
            tmp_path / "s.json",
            lambda: SimulatedBlockDevice(blocks, small_disk_params()),
            cfg,
        )
        with pytest.raises(AttributeError) as excinfo:
            ms.definitely_not_an_attribute
        message = str(excinfo.value)
        assert "ManagedSample" in message
        assert "GeometricFile" in message
        assert "definitely_not_an_attribute" in message
