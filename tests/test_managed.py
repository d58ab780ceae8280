"""Tests for the managed (auto-checkpointing) sample wrapper."""

import json
import os

import pytest

from conftest import TEST_BLOCK, checkpoint_files, small_disk_params
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.managed import ManagedSample
from repro.core.multi import MultiFileConfig, MultipleGeometricFiles
from repro.storage.device import SimulatedBlockDevice
from repro.storage.records import Record


def config(**kwargs):
    defaults = dict(capacity=400, buffer_capacity=40, record_size=40,
                    retain_records=True, beta_records=4)
    defaults.update(kwargs)
    return GeometricFileConfig(**defaults)


def factory_for(cfg, cls=GeometricFile):
    blocks = cls.required_blocks(cfg, TEST_BLOCK)
    return lambda: SimulatedBlockDevice(blocks, small_disk_params())


def feed(ms, n, start=0):
    for i in range(start, start + n):
        ms.offer(Record(key=i, value=float(i), timestamp=float(i)))


class TestLifecycle:
    def test_fresh_creation(self, tmp_path):
        cfg = config()
        ms = ManagedSample(tmp_path / "s.json", factory_for(cfg), cfg,
                           checkpoint_every=5)
        assert not ms.restored
        feed(ms, 1000)
        assert ms.disk_size == 400  # delegated observer

    def test_automatic_checkpoints_appear(self, tmp_path):
        cfg = config()
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg,
                           checkpoint_every=3)
        feed(ms, 1000)
        assert path.exists()
        assert ms.flushes_since_checkpoint < 3
        state = json.loads(path.read_text())
        assert state["kind"] == "GeometricFile"

    def test_restart_resumes_identically(self, tmp_path):
        cfg = config()
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg,
                           checkpoint_every=1, seed=7)
        feed(ms, 1200)
        ms.checkpoint()
        resumed = ManagedSample(path, factory_for(cfg), cfg,
                                checkpoint_every=1)
        assert resumed.restored
        feed(ms, 600, start=1200)
        feed(resumed, 600, start=1200)
        keys_a = sorted(r.key for r in ms.sample())
        keys_b = sorted(r.key for r in resumed.sample())
        assert keys_a == keys_b

    def test_crash_loses_at_most_the_tail(self, tmp_path):
        cfg = config()
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg,
                           checkpoint_every=4)
        feed(ms, 900)  # a "crash" here: last checkpoint <= 4 flushes old
        resumed = ManagedSample(path, factory_for(cfg), cfg)
        lost = ms.stats().seen - resumed.stats().seen
        assert 0 <= lost <= 5 * cfg.buffer_capacity
        resumed.check_invariants()

    def test_manual_checkpoint_only(self, tmp_path):
        cfg = config()
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg,
                           checkpoint_every=0)
        feed(ms, 600)
        assert not path.exists()
        ms.checkpoint()
        assert path.exists()

    def test_count_only_ingest(self, tmp_path):
        cfg = config(retain_records=False, admission="always")
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg,
                           checkpoint_every=2)
        ms.ingest(2000)
        resumed = ManagedSample(path, factory_for(cfg), cfg)
        assert resumed.restored
        resumed.ingest(500)
        resumed.check_invariants()


class TestKinds:
    def test_multi_kind(self, tmp_path):
        cfg = MultiFileConfig(capacity=400, buffer_capacity=40,
                              record_size=40, retain_records=True,
                              beta_records=4, alpha_prime=0.6)
        blocks = MultipleGeometricFiles.required_blocks(cfg, TEST_BLOCK)
        factory = lambda: SimulatedBlockDevice(blocks,  # noqa: E731
                                               small_disk_params())
        path = tmp_path / "m.json"
        ms = ManagedSample(path, factory, cfg, kind="multi",
                           checkpoint_every=2)
        feed(ms, 1500)
        resumed = ManagedSample(path, factory, cfg, kind="multi")
        assert resumed.restored
        assert resumed.n_files == ms.n_files

    def test_biased_kind(self, tmp_path):
        cfg = config()
        weight_fn = lambda r: 1.0 + r.timestamp / 100.0  # noqa: E731
        path = tmp_path / "b.json"
        ms = ManagedSample(path, factory_for(cfg), cfg, kind="biased",
                           weight_fn=weight_fn, checkpoint_every=2)
        feed(ms, 1200)
        resumed = ManagedSample(path, factory_for(cfg), cfg,
                                kind="biased", weight_fn=weight_fn)
        assert resumed.restored
        # The restored totalWeight is the value at the last checkpoint,
        # which trails the live structure by at most a few flushes.
        assert 0 < resumed.total_weight <= ms.total_weight
        assert resumed.total_weight == pytest.approx(ms.total_weight,
                                                     rel=0.2)

    def test_biased_requires_weight_fn(self, tmp_path):
        cfg = config()
        with pytest.raises(ValueError):
            ManagedSample(tmp_path / "x.json", factory_for(cfg), cfg,
                          kind="biased")

    def test_unknown_kind(self, tmp_path):
        cfg = config()
        with pytest.raises(ValueError):
            ManagedSample(tmp_path / "x.json", factory_for(cfg), cfg,
                          kind="btree")

    def test_kind_config_mismatch(self, tmp_path):
        cfg = config()
        with pytest.raises(ValueError):
            ManagedSample(tmp_path / "x.json", factory_for(cfg), cfg,
                          kind="multi")

    def test_checkpoint_kind_mismatch_detected(self, tmp_path):
        cfg = config()
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg)
        feed(ms, 100)
        ms.checkpoint()
        mcfg = MultiFileConfig(capacity=400, buffer_capacity=40,
                               record_size=40, retain_records=True,
                               beta_records=4, alpha_prime=0.6)
        with pytest.raises(ValueError):
            ManagedSample(path, factory_for(cfg), mcfg, kind="multi")


#: A child that checkpoints once, then is SIGKILLed in the middle of
#: writing its next checkpoint (argv: checkpoint path).
_KILLED_MID_CHECKPOINT = '''
import os, signal, sys
from repro.core import managed
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.storage.device import SimulatedBlockDevice
from repro.storage.records import Record

cfg = GeometricFileConfig(capacity=400, buffer_capacity=40, record_size=40,
                          retain_records=True, beta_records=4)
blocks = GeometricFile.required_blocks(cfg, 4096)
ms = managed.ManagedSample(sys.argv[1], lambda: SimulatedBlockDevice(blocks),
                           cfg, checkpoint_every=0)
ms.offer_many([Record(key=i) for i in range(600)])
ms.checkpoint()

def killed_save(gf, sink, *, meta=None, slabs=None):
    sink.write('{"version": 3, ')
    sink.flush()
    os.kill(os.getpid(), signal.SIGKILL)

managed.save_geometric_file = killed_save
ms.checkpoint()
'''


#: A child that checkpoints once, ingests enough for new subsamples,
#: then is SIGKILLed after its next checkpoint has written their slabs
#: and its manifest temp, just before the rename (argv: checkpoint
#: path).
_KILLED_BEFORE_RENAME = '''
import os, signal, sys
from repro.core import managed
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.storage.device import SimulatedBlockDevice
from repro.storage.records import Record

cfg = GeometricFileConfig(capacity=400, buffer_capacity=40, record_size=40,
                          retain_records=True, beta_records=4)
blocks = GeometricFile.required_blocks(cfg, 4096)
ms = managed.ManagedSample(sys.argv[1], lambda: SimulatedBlockDevice(blocks),
                           cfg, checkpoint_every=0)
ms.offer_many([Record(key=i) for i in range(600)])
ms.checkpoint()
ms.offer_many([Record(key=i) for i in range(600, 1200)])
os.replace = lambda source, target: os.kill(os.getpid(), signal.SIGKILL)
ms.checkpoint()
'''


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        cfg = config()
        ms = ManagedSample(tmp_path / "s.json", factory_for(cfg), cfg,
                           checkpoint_every=1)
        feed(ms, 800)
        assert (sorted(os.listdir(tmp_path))
                == checkpoint_files(tmp_path / "s.json"))

    def test_open_removes_temps_of_killed_writers(self, tmp_path):
        """A SIGKILL mid-write leaves its temp behind; the next open of
        that checkpoint deletes it, so kills never accumulate temps, and
        other files' temps are left alone."""
        import signal
        import subprocess
        import sys

        import repro

        path = tmp_path / "s.json"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for _ in range(3):
            child = subprocess.run(
                [sys.executable, "-c", _KILLED_MID_CHECKPOINT, str(path)],
                env=env, capture_output=True, timeout=60, check=False)
            assert child.returncode == -signal.SIGKILL, child.stderr
            temps = [n for n in os.listdir(tmp_path)
                     if n not in checkpoint_files(path)]
            assert len(temps) == 1
            assert temps[0].startswith(".s.json.")
            assert temps[0].endswith(".tmp")
        other = tmp_path / ".s.json.bak.x1y2z3.tmp"  # another file's temp
        other.write_text("{}")

        cfg = config()
        resumed = ManagedSample(path, factory_for(cfg), cfg)
        assert (sorted(os.listdir(tmp_path))
                == sorted([other.name] + checkpoint_files(path)))
        # Each child resumed the last good checkpoint and added 600.
        assert resumed.stats().seen == 3 * 600

    def test_kill_between_slab_write_and_rename(self, tmp_path):
        """New slabs written by a checkpoint whose manifest never got
        renamed are orphans: the reopened sample restores the previous
        manifest, whose slabs are intact, and collects the orphans."""
        import signal
        import subprocess
        import sys

        import repro

        path = tmp_path / "s.json"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        child = subprocess.run(
            [sys.executable, "-c", _KILLED_BEFORE_RENAME, str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            timeout=60, check=False)
        assert child.returncode == -signal.SIGKILL, child.stderr
        named = checkpoint_files(path)
        left = [n for n in os.listdir(tmp_path) if n not in named]
        temps = [n for n in left if n.endswith(".tmp")]
        orphans = [n for n in left if n.startswith("s.json.ledger-")]
        assert len(temps) == 1 and orphans
        assert len(temps) + len(orphans) == len(left)

        cfg = config()
        resumed = ManagedSample(path, factory_for(cfg), cfg)
        assert sorted(os.listdir(tmp_path)) == named
        assert resumed.stats().seen == 600
        resumed.check_invariants()
        # Replaying the lost ingest commits cleanly on top.
        resumed.offer_many([Record(key=i) for i in range(600, 1200)])
        resumed.checkpoint()
        assert sorted(os.listdir(tmp_path)) == checkpoint_files(path)
        again = ManagedSample(path, factory_for(cfg), cfg)
        assert again.stats().seen == 1200
        again.check_invariants()


class TestBiasedMultiKind:
    def test_biased_multi_lifecycle(self, tmp_path):
        from repro.core.biased_file import BiasedMultipleGeometricFiles

        cfg = MultiFileConfig(capacity=300, buffer_capacity=30,
                              record_size=40, retain_records=True,
                              beta_records=3, alpha_prime=0.6)
        blocks = BiasedMultipleGeometricFiles.required_blocks(
            cfg, TEST_BLOCK
        )
        factory = lambda: SimulatedBlockDevice(blocks,  # noqa: E731
                                               small_disk_params())
        weight_fn = lambda r: 1.0 + r.timestamp / 500.0  # noqa: E731
        path = tmp_path / "bm.json"
        ms = ManagedSample(path, factory, cfg, kind="biased-multi",
                           weight_fn=weight_fn, checkpoint_every=2)
        feed(ms, 1000)
        resumed = ManagedSample(path, factory, cfg, kind="biased-multi",
                                weight_fn=weight_fn)
        assert resumed.restored
        assert resumed.n_files == ms.n_files
        assert len(list(resumed.items())) == 300
        resumed.check_invariants()


class TestRestoreParity:
    """The checkpoint RNG round-trip is bit-exact (PR 3 satellite).

    A restored sample fed the identical continuation must be
    indistinguishable from the never-interrupted original: same numpy
    and stdlib RNG states after the same draws, and identical reservoir
    contents *in order* at the next flush boundary.  This is the
    property the sharded service's crash recovery stands on -- journal
    replay only reproduces the pre-crash reservoir if every random
    choice replays identically.
    """

    def test_restore_classmethod_requires_checkpoint(self, tmp_path):
        cfg = config()
        with pytest.raises(FileNotFoundError):
            ManagedSample.restore(tmp_path / "missing.json",
                                  factory_for(cfg))

    def test_config_none_requires_checkpoint(self, tmp_path):
        cfg = config()
        with pytest.raises(ValueError):
            ManagedSample(tmp_path / "missing.json", factory_for(cfg),
                          None)

    def test_checkpoint_meta_round_trips(self, tmp_path):
        cfg = config()
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg,
                           checkpoint_every=0, seed=3)
        feed(ms, 100)
        ms.checkpoint(meta={"seq": 17})
        restored = ManagedSample.restore(path, factory_for(cfg))
        assert restored.checkpoint_meta == {"seq": 17}

    def test_continuation_is_bit_exact(self, tmp_path):
        import random

        cfg = config()
        path = tmp_path / "s.json"
        live = ManagedSample(path, factory_for(cfg), cfg,
                             checkpoint_every=0, seed=11)
        feed(live, 700)
        live.checkpoint()
        restored = ManagedSample.restore(path, factory_for(cfg),
                                         checkpoint_every=0)
        # The restored RNGs start exactly where the live ones stand...
        assert (restored.structure._np_rng.bit_generator.state
                == live.structure._np_rng.bit_generator.state)
        assert restored.structure._rng.getstate() == live.structure._rng.getstate()
        # ...and stay in lockstep through several more flush boundaries
        # of the identical continuation.
        feed(live, 3 * cfg.buffer_capacity, start=700)
        feed(restored, 3 * cfg.buffer_capacity, start=700)
        assert (restored.structure._np_rng.bit_generator.state
                == live.structure._np_rng.bit_generator.state)
        assert restored.structure._rng.getstate() == live.structure._rng.getstate()
        stats_live, stats_restored = live.stats(), restored.stats()
        assert stats_restored.seen == stats_live.seen
        assert stats_restored.samples_added == stats_live.samples_added
        assert stats_restored.flushes == stats_live.flushes
        # Contents agree in order, not merely as sets: the query-time
        # materialisation below uses equal private RNGs so it cannot
        # perturb the comparison (or the structures' own streams).
        keys_live = [r.key for r in
                     live.sample(rng=random.Random(99))]
        keys_restored = [r.key for r in
                         restored.sample(rng=random.Random(99))]
        assert keys_live == keys_restored
