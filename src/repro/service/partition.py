"""Partitioning a stream across shards.

Correctness note up front: the merged-query math (docs/SERVICE.md) is
*insensitive* to how records are routed -- per-shard ``seen`` counts
weight the multivariate hypergeometric allocation, so any deterministic
or even adversarial split still yields a uniform merged sample.
Partitioning only affects balance (shard reservoirs fill at the same
rate when partitions are even) and affinity (hash partitioning sends
equal keys to the same shard, which keeps per-key locality for
downstream consumers).

Two strategies:

* :class:`HashPartitioner` -- routes by a 64-bit mix of ``record.key``
  (stable across processes and runs, unlike Python's randomised string
  hashing); records without a key (count-only ``None`` placeholders)
  fall back to round-robin.
* :class:`RoundRobinPartitioner` -- cycles shards record by record;
  exactly balanced, no key affinity.

Both are stateful only in a single rotation counter, which the service
owns; the per-shard replay journal records batches *after*
partitioning, so crash recovery never re-runs a partitioner.
"""

from __future__ import annotations

import numpy as np

from ..storage.recordbatch import RecordBatch
from ..storage.records import Record


def mix64(value: int) -> int:
    """SplitMix64 finaliser: a cheap, well-distributed 64-bit mix.

    ``key % S`` alone would send every stride-``S`` key pattern to one
    shard; the mix makes shard choice insensitive to key structure.
    """
    value &= 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9
    value &= 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB
    value &= 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def mix64_array(values) -> np.ndarray:
    """Vectorised :func:`mix64` over a key column.

    Bit-identical to the scalar mix for every input (two's-complement
    int64 keys reinterpret as uint64, exactly like the Python mask).
    """
    v = np.asarray(values).astype(np.uint64)
    v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return v ^ (v >> np.uint64(31))


class RoundRobinPartitioner:
    """Cycle records across ``shards`` starting from a rotating offset."""

    name = "round-robin"

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards
        self._next = 0

    def split(self, records) -> list[list]:
        """Partition one batch; returns a list of ``shards`` sub-batches."""
        parts: list[list] = [[] for _ in range(self.shards)]
        index = self._next
        for record in records:
            parts[index].append(record)
            index = (index + 1) % self.shards
        self._next = index
        return parts

    def split_batch(self, batch: RecordBatch) -> list[RecordBatch]:
        """Columnar :meth:`split`: one boolean-mask select per shard.

        Routing (and rotation-counter advance) is identical to feeding
        ``list(batch)`` through :meth:`split`; sub-batches preserve
        stream order, so per-shard ingestion is order-identical too.
        """
        n = len(batch)
        assign = (np.arange(n, dtype=np.int64) + self._next) % self.shards
        parts = [RecordBatch(batch.schema, batch.array[assign == s])
                 for s in range(self.shards)]
        self._next = (self._next + n) % self.shards
        return parts

    def split_count(self, n: int) -> list[int]:
        """Partition a count-only batch of ``n`` records.

        The remainder rotates with the same counter as :meth:`split`,
        so long runs stay balanced to within one record.
        """
        if n < 0:
            raise ValueError("cannot split a negative count")
        base, remainder = divmod(n, self.shards)
        counts = [base] * self.shards
        for k in range(remainder):
            counts[(self._next + k) % self.shards] += 1
        self._next = (self._next + remainder) % self.shards
        return counts


class HashPartitioner(RoundRobinPartitioner):
    """Route by hashed record key; ``None`` records fall back to
    round-robin (count-only streams have no keys to hash)."""

    name = "hash"

    def split(self, records) -> list[list]:
        parts: list[list] = [[] for _ in range(self.shards)]
        index = self._next
        shards = self.shards
        for record in records:
            if isinstance(record, Record):
                parts[mix64(record.key) % shards].append(record)
            else:
                parts[index].append(record)
                index = (index + 1) % shards
        self._next = index
        return parts

    def split_batch(self, batch: RecordBatch) -> list[RecordBatch]:
        """Columnar :meth:`split`: vectorised key mix, one mask per
        shard."""
        assign = mix64_array(batch.keys) % np.uint64(self.shards)
        # No rotation advance: the list path only advances on non-Record
        # (count-only) entries, which a batch never carries.
        return [RecordBatch(batch.schema, batch.array[assign == s])
                for s in range(self.shards)]


_PARTITIONERS = {
    "hash": HashPartitioner,
    "round-robin": RoundRobinPartitioner,
}


def make_partitioner(strategy: str, shards: int) -> RoundRobinPartitioner:
    """Build a partitioner by name (``"hash"`` or ``"round-robin"``)."""
    try:
        cls = _PARTITIONERS[strategy]
    except KeyError:
        raise ValueError(
            f"unknown partition strategy {strategy!r}; expected one of "
            f"{sorted(_PARTITIONERS)}"
        ) from None
    return cls(shards)
