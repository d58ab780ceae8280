"""The unified ``stats()`` payload: :class:`ReservoirStats`.

Every public structure -- reservoirs, devices and indexes alike --
answers one question the same way::

    stats = reservoir.stats()
    stats.samples_added, stats.clock, stats.io.seeks, stats.extra

The object is a frozen snapshot -- safe to keep across further
ingestion -- and ``as_dict()`` makes it JSON-ready for the CLI's
``--metrics`` dump.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from types import MappingProxyType
from typing import Mapping, Sequence

from ..storage.disk_model import DiskStats


@dataclass(frozen=True)
class ReservoirStats:
    """Frozen snapshot of one reservoir maintainer's progress and cost.

    Attributes:
        name: the structure's benchmark name ("geo file", "scan", ...).
        capacity: reservoir size ``N`` in records.
        seen: stream records presented so far.
        samples_added: records admitted into the reservoir (the
            figures' y-axis).
        flushes: buffer flushes performed (0 for structures that do not
            flush, e.g. the virtual-memory baseline's steady state).
        clock: simulated disk seconds consumed so far.
        io: cumulative device counters (seeks, blocks, seconds), or
            ``None`` when the backing device has no cost model.
        extra: structure-specific counters (stack_overflows,
            overflow_events, n_cohorts, pool hit ratio, ...), read-only.
    """

    name: str
    capacity: int
    seen: int
    samples_added: int
    flushes: int
    clock: float
    io: DiskStats | None = None
    extra: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze the extras so the snapshot really is immutable.
        object.__setattr__(self, "extra",
                           MappingProxyType(dict(self.extra)))

    @property
    def records_per_second(self) -> float:
        """Admission throughput against the simulated clock."""
        if self.clock <= 0:
            return 0.0
        return self.samples_added / self.clock

    @property
    def seeks(self) -> int:
        """Device seek total (0 when there is no cost model)."""
        return self.io.seeks if self.io is not None else 0

    def as_dict(self) -> dict:
        """JSON-ready representation (io flattened to a sub-mapping)."""
        entry = {
            "name": self.name,
            "capacity": self.capacity,
            "seen": self.seen,
            "samples_added": self.samples_added,
            "flushes": self.flushes,
            "clock": self.clock,
            "records_per_second": self.records_per_second,
        }
        if self.io is not None:
            entry["io"] = {
                "seeks": self.io.seeks,
                "reads": self.io.reads,
                "writes": self.io.writes,
                "blocks_read": self.io.blocks_read,
                "blocks_written": self.io.blocks_written,
                "sequential_blocks": self.io.sequential_blocks,
                "seek_seconds": self.io.seek_seconds,
                "transfer_seconds": self.io.transfer_seconds,
            }
        if self.extra:
            entry["extra"] = dict(self.extra)
        return entry


def stats_from_dict(entry: Mapping) -> ReservoirStats:
    """Rebuild a :class:`ReservoirStats` from :meth:`~ReservoirStats.as_dict`.

    The sharded service's workers live in other processes and ship
    their snapshots as plain dicts (a frozen ``MappingProxyType`` does
    not pickle); this is the receiving side.  Derived fields
    (``records_per_second``) are ignored -- they are recomputed from
    the counters.
    """
    io = entry.get("io")
    if io is not None:
        valid = {f.name for f in dataclass_fields(DiskStats)}
        io = DiskStats(**{k: v for k, v in io.items() if k in valid})
    return ReservoirStats(
        name=entry["name"],
        capacity=entry["capacity"],
        seen=entry["seen"],
        samples_added=entry["samples_added"],
        flushes=entry["flushes"],
        clock=entry["clock"],
        io=io,
        extra=entry.get("extra", {}),
    )


def aggregate_stats(snapshots: Sequence[ReservoirStats], *,
                    name: str = "service",
                    extra: Mapping | None = None) -> ReservoirStats:
    """Fan ``S`` per-shard snapshots into one service-level snapshot.

    Counter semantics follow the physical deployment: ``seen`` /
    ``samples_added`` / ``flushes`` / ``capacity`` and every I/O
    counter are *sums* over shards, while ``clock`` is the *maximum*
    shard clock -- the shards run concurrently on independent devices,
    so the service finishes when the slowest spindle does.  The
    aggregate's ``records_per_second`` therefore reports parallel
    throughput, which is the number the ``--shards`` benchmark gates
    on.

    ``extra`` (plus a ``shards`` count and per-shard ``seen`` list) is
    attached to the aggregate's ``extra`` mapping.
    """
    if not snapshots:
        raise ValueError("cannot aggregate zero snapshots")
    io = None
    if all(s.io is not None for s in snapshots):
        totals = {}
        for f in dataclass_fields(DiskStats):
            totals[f.name] = sum(getattr(s.io, f.name) for s in snapshots)
        io = DiskStats(**totals)
    merged_extra = {
        "shards": len(snapshots),
        "seen_per_shard": [s.seen for s in snapshots],
    }
    if extra:
        merged_extra.update(extra)
    return ReservoirStats(
        name=name,
        capacity=sum(s.capacity for s in snapshots),
        seen=sum(s.seen for s in snapshots),
        samples_added=sum(s.samples_added for s in snapshots),
        flushes=sum(s.flushes for s in snapshots),
        clock=max(s.clock for s in snapshots),
        io=io,
        extra=merged_extra,
    )
