"""Stateful property testing of the geometric file.

A hypothesis rule-based state machine drives a geometric file through
arbitrary interleavings of offers, invariant checks, snapshot queries
and checkpoint round-trips, verifying after every step that the
structure's guarantees hold:

* conservation (every ledger's live == slots + tail + stack);
* the sample is always ``min(N, seen)`` distinct records drawn from the
  stream seen so far;
* a checkpoint round-trip in any state is undetectable afterwards.
"""

import io
import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from conftest import TEST_BLOCK, small_disk_params
from repro.core.checkpoint import load_geometric_file, save_geometric_file
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.storage.device import SimulatedBlockDevice
from repro.storage.records import Record


class GeometricFileMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.gf = None
        self.next_key = 0

    @initialize(capacity_exp=st.integers(3, 6), seed=st.integers(0, 999))
    def setup(self, capacity_exp, seed):
        capacity = 2 ** capacity_exp * 10  # 80 .. 640
        buffer_capacity = max(4, capacity // 10)
        config = GeometricFileConfig(
            capacity=capacity, buffer_capacity=buffer_capacity,
            record_size=40, retain_records=True,
            beta_records=max(2, buffer_capacity // 5),
            admission="always",
        )
        blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
        device = SimulatedBlockDevice(blocks, small_disk_params())
        self.gf = GeometricFile(device, config, seed=seed)
        self.config = config
        self.blocks = blocks

    @rule(n=st.integers(1, 400))
    def offer_records(self, n):
        for _ in range(n):
            self.gf.offer(Record(key=self.next_key,
                                 value=float(self.next_key)))
            self.next_key += 1

    @rule()
    def snapshot_is_a_valid_sample(self):
        sample = self.gf.sample()
        keys = [r.key for r in sample]
        assert len(keys) == min(self.gf.capacity, self.gf.stats().seen)
        assert len(set(keys)) == len(keys)
        assert all(0 <= k < self.next_key for k in keys)

    @rule()
    def checkpoint_round_trip(self):
        sink = io.StringIO()
        save_geometric_file(self.gf, sink)
        sink.seek(0)
        device = SimulatedBlockDevice(self.blocks, small_disk_params())
        restored = load_geometric_file(sink, device)
        restored.check_invariants()
        assert restored.stats().seen == self.gf.stats().seen
        assert restored.disk_size == self.gf.disk_size
        # Adopt the restored instance: continuing from it must be
        # indistinguishable, which later rules then exercise.
        self.gf = restored

    @invariant()
    def conservation(self):
        if self.gf is not None:
            self.gf.check_invariants()

    @invariant()
    def never_exceeds_capacity(self):
        if self.gf is not None and not self.gf.in_startup:
            assert self.gf.disk_size == self.gf.capacity


TestGeometricFileStateful = GeometricFileMachine.TestCase
TestGeometricFileStateful.settings = settings(
    max_examples=25, stateful_step_count=15, deadline=None,
)
