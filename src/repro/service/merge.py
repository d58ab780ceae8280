"""Merging per-shard samples into one uniform sample of the union.

The correctness rule (proof sketch in docs/SERVICE.md): a uniform
``k``-subset of a partitioned population is drawn by first allocating
per-partition counts ``(k_1, ..., k_S)`` from the multivariate
hypergeometric weighted by partition sizes -- here each shard's
``seen`` count, i.e. how much of the stream it has absorbed -- and
then drawing a uniform ``k_i``-subset within each partition.  Shard
``i``'s reservoir is itself a uniform sample of its ``seen_i`` stream
records (the paper's Algorithm 1 invariant), and a uniform subset of a
uniform sample is a uniform subset of the underlying stream, so the
concatenation is a uniform ``k``-subset of the *union* stream.

The allocation reuses :func:`repro.reservoir.draw_victim_counts` --
Algorithm 3's randomized-partitioning draw is exactly the multivariate
hypergeometric this merge needs, including its paper-scale (> 1e9
records) decomposition.

Workers return their records uniformly *ordered*, so taking the first
``k_i`` of a shard's reply is itself a uniform ``k_i``-subset; the
merge therefore needs one round trip even though the allocation is
drawn supervisor-side after the replies arrive.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..reservoir import draw_victim_counts
from ..storage.records import Record


def allocate_counts(rng: np.random.Generator, seen: Sequence[int],
                    k: int) -> list[int]:
    """Multivariate-hypergeometric shard allocation of a ``k``-draw.

    Args:
        rng: the supervisor's merge RNG.
        seen: per-shard stream positions (partition sizes).
        k: merged sample size; must not exceed ``sum(seen)``.
    """
    total = sum(seen)
    if k > total:
        raise ValueError(
            f"cannot draw {k} records from a union stream of {total}")
    return draw_victim_counts(rng, list(seen), k)


def merge_weighted_samples(rng: np.random.Generator,
                           payloads: Sequence[dict],
                           k: int) -> list[Record]:
    """Merge *keyed* (A-ExpJ) shard replies: global top-``k`` by key.

    A record's ``log(u)/w`` key is drawn from the record alone, never
    from the reservoir holding it, so keys rank records across
    independent shards; the union stream's A-ExpJ sample is exactly
    the ``k`` largest keys in the concatenated replies.  Workers rank
    their replies best key first and trim to ``min(k, size)``, which
    always covers the shard's contribution to the global top-``k``
    when ``k`` is at most one shard's capacity (the same bound the
    uniform merge documents).  The final shuffle only removes the key
    ranking from the returned order; the selected *set* is
    deterministic given the replies.
    """
    records: list[Record] = []
    keys: list[float] = []
    for payload in payloads:
        records.extend(payload["records"])
        keys.extend(payload["keys"])
    take = min(k, len(records))
    top = np.argsort(np.asarray(keys), kind="stable")[::-1][:take]
    merged = [records[int(i)] for i in top]
    order = rng.permutation(len(merged))
    return [merged[i] for i in order]


def merge_shard_batches(rng: np.random.Generator,
                        payloads: Sequence[dict], k: int, schema):
    """Merge per-shard ``sample`` replies into a uniform ``k``-sample,
    returned as one ``RecordBatch``.

    Each shard's allocated prefix is encoded into the schema's
    structured dtype once (a reply that is already a slab is used as
    it is), the pieces are concatenated, and the de-grouping shuffle is
    a single row permutation.  It is the service's one uniform merge,
    behind ``sample(k)`` and ``sample_batch(k)`` alike, and it uses the
    merge RNG exactly as the record-list ``merge_shard_samples`` it
    replaced did: one allocation draw (:func:`allocate_counts`), then
    one ``permutation`` of the merged rows.

    Args:
        rng: the supervisor's merge RNG (allocation and final shuffle).
        payloads: one worker ``sample`` payload per shard, each with
            ``seen``, ``size``, and uniformly-ordered ``records`` (a
            ``RecordBatch`` or a record list).
        k: requested merged sample size.
        schema: the service's record schema.

    Raises:
        ValueError: when the allocation lands a shard a count larger
            than the records it returned.  Two distinct causes, both
            actionable: the shard returned fewer than ``min(k, size)``
            records (caller bug), or ``k`` exceeds a shard's reservoir
            size while its ``seen`` keeps drawing allocation toward it
            (ask for ``k`` at most the smallest shard reservoir).
    """
    from ..storage.recordbatch import RecordBatch

    seen = [p["seen"] for p in payloads]
    counts = allocate_counts(rng, seen, k)
    parts = []
    for payload, count in zip(payloads, counts):
        if count > len(payload["records"]):
            raise ValueError(
                f"allocation wants {count} records from a shard that "
                f"returned {len(payload['records'])} (reservoir size "
                f"{payload['size']}); request k no larger than the "
                f"smallest shard reservoir"
            )
        if count:
            records = payload["records"][:count]
            if isinstance(records, RecordBatch):
                parts.append(records.array)
            else:
                parts.append(
                    RecordBatch.from_records(schema, records).array
                )
    if parts:
        merged = np.concatenate(parts)
    else:
        merged = np.empty(0, dtype=schema.dtype)
    order = rng.permutation(len(merged))
    return RecordBatch(schema, merged[order])
