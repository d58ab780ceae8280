"""Checkpointing a geometric file's logical state.

Any production deployment of a structure that lives for months (the
paper's premise: the reservoir is the durable synopsis of an unbounded
stream) needs its catalog -- which subsamples exist, which slots and
stack regions they own, how far the stream has progressed -- to survive
restarts.  The paper leaves recovery as engineering; this module
provides it: :func:`save_geometric_file` serialises the complete
logical state (config, progress counters, every ledger, the buffer,
the sampling law's state, and both RNG states) as one JSON document,
and :func:`load_geometric_file` reconstructs a file that continues
*bit-for-bit identically* to the original (tested).

Format version 2.  Counters, layout and RNG state are plain JSON.  The
bulk -- retained records -- is binary: each ledger's records, and the
buffer's, are one base64 string of their slab packed with
``RecordSchema(record_size).dtype``, the codec the disk segments, the
shared-memory rings and the columnar engine already share.  Weights
and law aux rows are base64 float64 (C order), so every float,
including A-ExpJ's ``-inf`` log keys, round-trips bit-exactly.  The
buffer stores its *stored* weights plus the epoch factor they are
multiplied by, so a restored biased buffer repeats the saved one's
floating-point arithmetic.  Payloads follow the slot contract of
:meth:`~repro.storage.records.RecordSchema.decode`: padded or
truncated to the slot width, trailing NUL bytes dropped.  Version 1
documents (records as ``[key, value, timestamp, base64]`` lists) are
rejected.

The writer encodes one ledger at a time with ``json.dumps`` (CPython's
C encoder; ``json.dump`` streams through the pure-Python one) and
writes each piece straight into the sink, so no per-record lists and
no whole-document string are ever built.  The text equals
``json.dumps`` of the parsed document.

A count-only benchmark file round-trips its counters and layout only.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict
from typing import IO, Iterable

import numpy as np

from ..storage.device import BlockDevice
from ..storage.recordbatch import RecordBatch
from ..storage.records import RecordSchema
from .biased_file import (
    BiasedGeometricFile,
    BiasedMultipleGeometricFiles,
    BiasedSamplingMixin,
)
from .geometric_file import GeometricFile, GeometricFileConfig
from .multi import MultiFileConfig, MultipleGeometricFiles
from .subsample import SubsampleLedger

FORMAT_VERSION = 2


def _pack_records(schema: RecordSchema, records) -> str | None:
    """Records as base64 of their packed slab (``schema.dtype`` rows)."""
    if records is None:
        return None
    if isinstance(records, list):
        data = schema.encode_batch(records)
    else:  # a RecordBatch or a structured slab view
        data = schema.encode_many(records)
    return base64.b64encode(data).decode("ascii")


def _unpack_records(schema: RecordSchema, text: str | None, count: int,
                    columnar: bool):
    """Inverse of :func:`_pack_records`: a writable
    :class:`RecordBatch` for columnar structures, else a record list."""
    if text is None:
        return None
    batch = RecordBatch.from_bytes(schema, base64.b64decode(text))
    if len(batch) != count:
        raise ValueError(f"checkpoint holds {len(batch)} records where "
                         f"its counters say {count}")
    return batch.copy() if columnar else batch.to_records()


def _pack_floats(values) -> str | None:
    """A float64 vector or matrix as base64 of its C-order bytes."""
    if values is None:
        return None
    data = np.asarray(values, dtype=np.float64).tobytes()
    return base64.b64encode(data).decode("ascii")


def _unpack_floats(text: str | None) -> np.ndarray | None:
    if text is None:
        return None
    return np.frombuffer(base64.b64decode(text), dtype=np.float64)


def _unpack_aux(text: str | None, width: int) -> np.ndarray | None:
    values = _unpack_floats(text)
    return None if values is None else values.reshape(-1, width).copy()


def _encode_ledger(ledger: SubsampleLedger, schema: RecordSchema) -> dict:
    return {
        "ident": ledger.ident,
        "segment_sizes": list(ledger.segment_sizes),
        "first_level": ledger.first_level,
        "tail_size": ledger.tail_size,
        "live": ledger.live,
        "stack_balance": ledger.stack_balance,
        "stack_capacity": ledger.stack_capacity,
        "max_stack_balance": ledger.max_stack_balance,
        "reconciled_balance": ledger._reconciled_balance,
        "slots": list(ledger.slots),
        "stack_region": ledger.stack_region,
        "records": _pack_records(schema, ledger.records),
        "weights": _pack_floats(ledger.weights),
        "aux": _pack_floats(ledger.aux),
    }


def _decode_ledger(state: dict, gf) -> SubsampleLedger:
    ledger = SubsampleLedger.__new__(SubsampleLedger)
    ledger.ident = state["ident"]
    ledger.first_level = state["first_level"]
    ledger.tail_size = state["tail_size"]
    ledger.live = state["live"]
    # Columnar structures keep RecordBatch ledgers (and with them the
    # pure-array query path); list-mode ones get record objects.
    ledger.records = _unpack_records(gf.schema, state["records"],
                                     ledger.live, gf.columnar)
    weights = _unpack_floats(state["weights"])
    ledger.weights = None if weights is None else weights.tolist()
    ledger.aux = _unpack_aux(state["aux"], gf._law.aux_width)
    ledger.stack_balance = state["stack_balance"]
    ledger.stack_capacity = state["stack_capacity"]
    ledger.overflowed = False
    ledger.max_stack_balance = state["max_stack_balance"]
    ledger._reconciled_balance = state["reconciled_balance"]
    ledger.stack_region = state["stack_region"]
    ledger.restore_layout_state(state["segment_sizes"], state["slots"])
    return ledger


def _write_with_ledgers(sink: IO[str], head: dict,
                        ledgers: Iterable[SubsampleLedger],
                        schema: RecordSchema) -> None:
    """Write ``head`` plus a last member ``"ledgers"``, encoding and
    writing one ledger at a time."""
    sink.write(json.dumps(head)[:-1] + ', "ledgers": [')
    for index, ledger in enumerate(ledgers):
        if index:
            sink.write(", ")
        sink.write(json.dumps(_encode_ledger(ledger, schema)))
    sink.write("]}")


def save_geometric_file(gf: GeometricFile | MultipleGeometricFiles,
                        sink: IO[str], *, meta: dict | None = None) -> None:
    """Serialise the structure's complete logical state as JSON.

    Args:
        gf: a (possibly biased) geometric file or a multi-file
            structure.
        sink: a text file-like object to write to.
        meta: optional caller metadata stored alongside the state and
            returned by :func:`load_geometric_file` as
            ``gf.checkpoint_meta``.  The sharded service uses this to
            stamp each checkpoint with the batch sequence number it
            covers, so recovery replays exactly the batches the
            checkpoint has not seen -- storing the two in one file (one
            atomic rename) is what makes the no-loss/no-double-count
            guarantee crash-safe.
    """
    buffer = gf.buffer
    buffer_records = buffer_weights = buffer_aux = None
    if buffer.retains_records:
        buffer_records = _pack_records(
            gf.schema,
            buffer.pending_view() if buffer.columnar else list(buffer))
        buffer_weights = _pack_floats(buffer._weights)
        if buffer.aux_width:
            buffer_aux = _pack_floats(buffer.aux_view())
    state = {
        "version": FORMAT_VERSION,
        "kind": type(gf).__name__,
        "config": asdict(gf.config),
        "seen": gf._seen,
        "samples_added": gf._samples_added,
        "flushes": gf.flushes,
        "stack_overflows": gf.stack_overflows,
        "startup_index": gf._startup_index,
        "next_ident": gf._next_ident,
        "buffer_count": buffer.count,
        "buffer_records": buffer_records,
        "buffer_weights": buffer_weights,
        "buffer_scale": buffer._scale,
        "buffer_aux": buffer_aux,
        "law_state": gf._law.state_dict(),
        "rng_state": _encode_py_rng(gf._rng.getstate()),
        "np_rng_state": _encode_np_rng(gf._np_rng),
    }
    if meta is not None:
        state["meta"] = meta
    if isinstance(gf, BiasedSamplingMixin):
        state["total_weight"] = gf.total_weight
        state["multipliers"] = {str(k): v
                                for k, v in gf.multipliers.items()}
        state["overflow_events"] = gf.overflow_events
    if isinstance(gf, MultipleGeometricFiles):
        sink.write(json.dumps(state)[:-1] + ', "files": [')
        for index, file in enumerate(gf.files):
            if index:
                sink.write(", ")
            _write_with_ledgers(
                sink, {"free_slots": file.layout._free_slots,
                       "dummy_slots": list(file.dummy_slots)},
                file.subsamples, gf.schema)
        sink.write("]}")
    else:
        state["free_slots"] = gf._layout._free_slots
        _write_with_ledgers(sink, state, gf.subsamples, gf.schema)


def load_geometric_file(source: IO[str], device: BlockDevice,
                        weight_fn=None) -> GeometricFile:
    """Reconstruct a geometric file from :func:`save_geometric_file` output.

    Args:
        source: text file-like object with the JSON state.
        device: a (fresh or original) backing device, at least as large
            as the original one.
        weight_fn: required when restoring a biased file -- functions
            cannot be serialised, so the caller re-supplies ``f``.

    Returns:
        A file whose subsequent behaviour is identical to the saved one.
        Any ``meta`` mapping passed to :func:`save_geometric_file` is
        attached as ``checkpoint_meta`` (``None`` when absent).

    Raises:
        ValueError: for any format version but :data:`FORMAT_VERSION`,
            an unknown structure kind, or record slabs that disagree
            with the counters stored beside them.
    """
    state = json.load(source)
    version = state.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r} "
                         f"(this build reads version {FORMAT_VERSION})")
    kind = state["kind"]
    if kind in ("BiasedGeometricFile", "BiasedMultipleGeometricFiles"):
        if weight_fn is None:
            raise ValueError("restoring a biased file requires weight_fn")
        if kind == "BiasedGeometricFile":
            config = GeometricFileConfig(**state["config"])
            gf: GeometricFile | MultipleGeometricFiles = \
                BiasedGeometricFile(device, config, weight_fn, seed=0)
        else:
            multi_config = MultiFileConfig(**state["config"])
            gf = BiasedMultipleGeometricFiles(device, multi_config,
                                              weight_fn, seed=0)
        gf.total_weight = state["total_weight"]
        gf.multipliers = {int(k): v
                          for k, v in state["multipliers"].items()}
        gf.overflow_events = state["overflow_events"]
    elif kind == "GeometricFile":
        config = GeometricFileConfig(**state["config"])
        gf = GeometricFile(device, config, seed=0, weight_fn=weight_fn)
    elif kind == "MultipleGeometricFiles":
        config = MultiFileConfig(**state["config"])
        gf = MultipleGeometricFiles(device, config, seed=0,
                                    weight_fn=weight_fn)
    else:
        raise ValueError(f"unknown checkpoint kind {kind!r}")

    gf._seen = state["seen"]
    gf._samples_added = state["samples_added"]
    gf.flushes = state["flushes"]
    gf.stack_overflows = state["stack_overflows"]
    gf._startup_index = state["startup_index"]
    gf._next_ident = state["next_ident"]
    if isinstance(gf, MultipleGeometricFiles):
        for file, file_state in zip(gf.files, state["files"]):
            file.layout._free_slots = [list(s)
                                       for s in file_state["free_slots"]]
            file.dummy_slots = list(file_state["dummy_slots"])
            file.subsamples = [_decode_ledger(s, gf)
                               for s in file_state["ledgers"]]
    else:
        gf._layout._free_slots = [list(s) for s in state["free_slots"]]
        gf.subsamples = [_decode_ledger(s, gf) for s in state["ledgers"]]
    buffer = gf.buffer
    records = _unpack_records(gf.schema, state["buffer_records"],
                              state["buffer_count"], columnar=False)
    if records is None:
        buffer.append_count(state["buffer_count"])
    else:
        aux = _unpack_aux(state["buffer_aux"], buffer.aux_width)
        for index, record in enumerate(records):
            buffer.append(record, aux=None if aux is None else aux[index])
        # Stored weights and their epoch factor go back verbatim, so the
        # next scale_weights() repeats the saved buffer's arithmetic.
        weights = _unpack_floats(state["buffer_weights"])
        buffer._weights = None if weights is None else weights.tolist()
        buffer._scale = state["buffer_scale"]
    law_state = state.get("law_state")
    if law_state is not None:
        gf._law.restore_state(law_state)
    gf._rng.setstate(_decode_py_rng(state["rng_state"]))
    _restore_np_rng(gf._np_rng, state["np_rng_state"])
    gf.checkpoint_meta = state.get("meta")
    return gf


def _encode_py_rng(state: tuple) -> list:
    """random.Random state is nested tuples; JSON wants lists."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def _decode_py_rng(state: list) -> tuple:
    version, internal, gauss_next = state
    return (version, tuple(internal), gauss_next)


def _encode_np_rng(np_rng) -> dict:
    """numpy ``Generator`` state as pure-builtin JSON types.

    ``bit_generator.state`` nests only strings and integers for PCG64
    (including the 32-bit carry in ``has_uint32``/``uinteger``, so the
    snapshot is the *complete* generator state), but numpy does not
    promise builtin ``int`` for the values.  Coercing every scalar
    explicitly makes the JSON round trip bit-exact by construction --
    Python ints are arbitrary precision, so the 128-bit PCG64 counters
    survive untouched.
    """
    return _pure_json(np_rng.bit_generator.state)


def _pure_json(value):
    if isinstance(value, dict):
        return {str(k): _pure_json(v) for k, v in value.items()}
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return value
    try:
        return int(value)
    except (TypeError, ValueError):
        raise TypeError(
            f"cannot serialise RNG state member {value!r}"
        ) from None


def _restore_np_rng(np_rng, state: dict) -> None:
    """Install a saved bit-generator state, failing loudly on mismatch."""
    expected = type(np_rng.bit_generator).__name__
    saved = state.get("bit_generator")
    if saved != expected:
        raise ValueError(
            f"checkpoint holds {saved!r} RNG state; the restored "
            f"structure uses {expected!r}"
        )
    np_rng.bit_generator.state = state
