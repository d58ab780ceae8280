"""Picklable per-shard construction: :class:`ShardSpec`.

A shard worker may live in another process (``multiprocessing``) or be
respawned after a crash, so everything needed to (re)build its
reservoir must be plain data: no live devices, no factory closures.
``ShardSpec`` is that data -- structure kind and config, a
:class:`~repro.storage.device.DeviceSpec`, the shard's private
directory, and its seed.  The worker calls :meth:`build` (fresh or
restore-or-create) or :meth:`restore` (checkpoint required) *inside its
own process*.

Directory layout, per shard::

    <root>/shard-00/checkpoint.json            the manifest (atomic rename)
    <root>/shard-00/checkpoint.json.ledger-*   one immutable slab per
                                               subsample it names
    <root>/shard-00/device.bin                 only for file-backed devices

A subsample's slab is written once and rewritten only when its live
records fall to half the slab's rows (or stop being a prefix of it),
so the slabs hold at most about twice the live records' packed bytes.
New slabs are closed before the manifest's rename, which is the commit
point; the slabs only the old manifest named are deleted after it.
The checkpoint is the single source of truth on recovery; devices carry
no authoritative state (see :mod:`repro.core.managed`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from ..core.geometric_file import GeometricFileConfig
from ..core.managed import ManagedSample
from ..core.multi import MultiFileConfig
from ..storage.device import DeviceSpec
from ..storage.records import RecordSchema

#: Structure kinds a shard may run.  Biased kinds are excluded: the
#: merged-query uniformity argument (docs/SERVICE.md) needs each shard
#: to hold a *uniform* sample of its partition.
SHARD_KINDS = ("geometric", "multi")

#: Non-uniform laws a shard may run.  A law qualifies when its samples
#: merge exactly across independent reservoirs by ranking a shared
#: per-record key (``SamplingLaw.mergeable_by_key``); A-ExpJ's
#: ``log(u)/w`` keys are such a ranking, ``wr``/``window`` have none.
MERGEABLE_LAWS = ("aexpj",)

CHECKPOINT_FILENAME = "checkpoint.json"


def shard_directory(root: str | os.PathLike[str], shard_id: int) -> str:
    """The private directory of shard ``shard_id`` under ``root``."""
    return os.path.join(os.fspath(root), f"shard-{shard_id:02d}")


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard worker needs to build (or rebuild) itself.

    Attributes:
        shard_id: 0-based shard index.
        directory: the shard's private directory (checkpoint + any
            file-backed device live here).
        kind: ``"geometric"`` or ``"multi"``.
        config: per-shard structure sizing.  With the uniform law,
            ``admission`` must be ``"uniform"`` -- the service's
            merged queries are only uniform over the union stream if
            each shard's reservoir is uniform over its partition.
            Non-uniform laws supersede admission and must come from
            :data:`MERGEABLE_LAWS` so merged queries stay exact.
        device: how to build the shard's block device (per-shard, so
            ``S`` shards model ``S`` independent spindles).
        seed: RNG seed for a freshly created structure; shards must use
            distinct seeds or they would evict in lockstep.
        checkpoint_batches: worker-side checkpoint cadence, counted in
            applied batch messages.  Smaller means less replay after a
            crash, at more checkpoint I/O.
    """

    shard_id: int
    directory: str
    kind: str
    config: GeometricFileConfig | MultiFileConfig
    device: DeviceSpec
    seed: int
    checkpoint_batches: int = 8

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError("shard_id must be non-negative")
        if self.kind not in SHARD_KINDS:
            raise ValueError(
                f"shard kind {self.kind!r} not in {SHARD_KINDS}"
            )
        law = getattr(self.config, "law", "uniform")
        if law == "uniform":
            if self.config.admission != "uniform":
                raise ValueError(
                    "shards must run uniform admission; the merged "
                    "sample is only uniform over the union stream if "
                    "every shard holds a uniform sample of its partition"
                )
        elif law not in MERGEABLE_LAWS:
            raise ValueError(
                f"shards cannot run law {law!r}: merged queries need "
                "either the uniform hypergeometric merge or a "
                "key-rankable law (A-ExpJ); 'wr' and 'window' samples "
                "have no exact distributed merge"
            )
        if self.checkpoint_batches < 1:
            raise ValueError("checkpoint_batches must be at least 1")

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.directory, CHECKPOINT_FILENAME)

    @property
    def schema(self) -> RecordSchema:
        """The shard's record layout; slab transport en/decodes with it."""
        return RecordSchema(self.config.record_size)

    def _device_factory(self):
        directory = self.directory
        device = self.device
        return lambda: device.build(directory)

    def build(self) -> ManagedSample:
        """Restore-or-create the shard's managed reservoir.

        Automatic flush-cadence checkpointing is disabled
        (``checkpoint_every=0``): the worker checkpoints explicitly so
        every checkpoint carries the batch sequence number it covers
        (recovery correctness depends on that stamp).
        """
        os.makedirs(self.directory, exist_ok=True)
        return ManagedSample(
            self.checkpoint_path, self._device_factory(), self.config,
            kind=self.kind, checkpoint_every=0, seed=self.seed,
        )

    def restore(self) -> ManagedSample:
        """Reopen the shard strictly from its checkpoint (must exist)."""
        return ManagedSample.restore(
            self.checkpoint_path, self._device_factory(),
            kind=self.kind, checkpoint_every=0,
        )

    def with_directory(self, directory: str) -> "ShardSpec":
        """A copy rooted elsewhere (used by benchmarks and tests)."""
        return replace(self, directory=directory)
