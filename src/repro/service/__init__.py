"""``repro.service``: a sharded, multi-process sampling service.

The paper maintains one disk-resident reservoir per machine; this
package is the deployment layer on top -- ``S`` shard workers (each a
checkpointed geometric file on its own device directory) ingesting
partitioned batches in parallel, one supervisor serving merged queries
that are provably uniform over the union stream, and per-shard fault
recovery from checkpoints with journal replay.

Quick start::

    from repro import GeometricFileConfig
    from repro.service import ShardedReservoir

    config = GeometricFileConfig(capacity=25_000, buffer_capacity=500,
                                 record_size=50, admission="uniform",
                                 retain_records=True)
    with ShardedReservoir("/var/lib/repro", config, shards=4) as svc:
        svc.offer_batch(batch)            # partitioned, backpressured
        merged = svc.sample(200)         # uniform over the union stream
        est = svc.estimate_sum(200)      # AQP with CLT error bars
        svc.kill_shard(2)                # chaos-test it
        svc.recover()                    # checkpoint + journal replay

See docs/SERVICE.md for the architecture, the uniformity proof sketch,
the failure model, and backpressure semantics.
"""

from .merge import allocate_counts, merge_shard_batches
from .partition import (
    HashPartitioner,
    RoundRobinPartitioner,
    make_partitioner,
    mix64,
)
from .pool import InlinePool, ProcessPool, ShardDead
from .sharded import ShardedReservoir, default_device_spec
from .shm import HAVE_SHM, SlabRing, TornSlabError
from .spec import SHARD_KINDS, ShardSpec, shard_directory
from .worker import ShardWorker, SimulatedCrash, worker_main

__all__ = [
    "HAVE_SHM",
    "HashPartitioner",
    "InlinePool",
    "ProcessPool",
    "RoundRobinPartitioner",
    "SHARD_KINDS",
    "ShardDead",
    "ShardSpec",
    "ShardWorker",
    "ShardedReservoir",
    "SimulatedCrash",
    "SlabRing",
    "TornSlabError",
    "allocate_counts",
    "default_device_spec",
    "make_partitioner",
    "merge_shard_batches",
    "mix64",
    "shard_directory",
    "worker_main",
]
