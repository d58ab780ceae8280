"""Checkpointing a geometric file's logical state.

Any production deployment of a structure that lives for months (the
paper's premise: the reservoir is the durable synopsis of an unbounded
stream) needs its catalog -- which subsamples exist, which slots and
stack regions they own, how far the stream has progressed -- to survive
restarts.  The paper leaves recovery as engineering; this module
provides it: :func:`save_geometric_file` serialises the complete
logical state (config, progress counters, every ledger, the buffer,
the sampling law's state, and both RNG states) as a JSON *manifest*
plus one binary *slab* per ledger, and :func:`load_geometric_file`
reconstructs a file that continues *bit-for-bit identically* to the
original (tested).

Format version 3.  Counters, layout, law and RNG state, the caller's
``meta`` and the buffer (at most ``B`` records, base64 of its slab)
are the manifest.  A ledger's records live in its slab: row ``i`` is
record ``i`` packed with ``RecordSchema(record_size).dtype`` (the codec
the disk segments, the shared-memory rings and the ledgers' slabs
share), followed by its float64 aux columns (the biased structures'
effective weight, a law's keys), so every float, including A-ExpJ's
``-inf`` log keys, round-trips bit-exactly.  The manifest names each
ledger's slab and its ``live`` count; restore decodes the slab's first
``live`` rows and checks row ``live - 1`` against a copy the manifest
carries.  A biased buffer's aux column holds its *stored* weights and
the manifest the epoch factor they are multiplied by
(``weight_epoch``), so a restored biased buffer repeats the saved one's
floating-point arithmetic; a manifest that names the factor
``buffer_scale`` and the weights ``buffer_weights`` (the record-list
layout's fields) restores the same way.  The subsample multipliers are
written as true ``M_j``: the save first folds the file's overflow scale
into them (``BiasedSamplingMixin.fold_multiplier_scale``), so the saved
and restored files continue with the same arithmetic.  Payloads follow
the slot contract of
:meth:`~repro.storage.records.RecordSchema.decode`: padded to the slot
width, trailing NUL bytes dropped.  Documents of versions 1 and 2
(records inline in the document) are rejected.

Why a slab may hold more rows than the ledger has live: a subsample is
written once, in one flush, and afterwards only shrinks (Section 4).
Under a uniform-victim law :meth:`~repro.core.subsample.SubsampleLedger.
evict` truncates the tail of a pre-shuffled container, so a ledger's
live records are always a prefix of what it held when its slab was
written.  :class:`SlabStore` exploits this: beside a checkpoint file it
writes each ledger's slab once, as an immutable file, and later
checkpoints only rewrite the manifest.  A ledger gets a new slab when it
has none, when its records container was replaced
(:meth:`~repro.core.subsample.SubsampleLedger.evict_indices`, which the
A-ExpJ and window laws use, rebuilds it), or when its live count has
fallen to half its slab's rows or below -- which bounds the slab files
at about twice the live records' packed bytes.  Without a store
(:func:`save_geometric_file` to a plain text sink) every slab is
inline in the manifest as base64 of exactly its live rows.

The writer encodes one ledger at a time with ``json.dumps`` (CPython's
C encoder; ``json.dump`` streams through the pure-Python one) and
writes each piece straight into the sink, so no whole-document string
is ever built.  The text equals ``json.dumps`` of the parsed document.

A count-only benchmark file round-trips its counters and layout only.
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import re
from dataclasses import asdict, dataclass
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

FORMAT_VERSION = 3


def _pack_records(schema: RecordSchema, rows: np.ndarray) -> str:
    """Slab rows as base64 of their packed bytes."""
    return base64.b64encode(schema.encode_many(rows)).decode("ascii")


def _unpack_records(schema: RecordSchema, text: str | None, count: int):
    """Inverse of :func:`_pack_records`, as a read-only batch."""
    if text is None:
        return None
    batch = RecordBatch.from_bytes(schema, base64.b64decode(text))
    if len(batch) != count:
        raise ValueError(f"checkpoint holds {len(batch)} records where "
                         f"its counters say {count}")
    return batch


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


class _RowLayout:
    """One slab row of a structure's ledgers: the packed record, then
    its aux columns (a biased structure's effective weight is the row
    layout's ``record, weight`` of older builds, byte for byte)."""

    def __init__(self, gf) -> None:
        self.schema = gf.schema
        self.aux_width = gf.buffer.aux_width
        fields = [("record", self.schema.dtype)]
        if self.aux_width:
            fields.append(("aux", "<f8", (self.aux_width,)))
        self.dtype = np.dtype(fields)
        self.row_size = self.dtype.itemsize

    def pack(self, ledger: SubsampleLedger, start: int, stop: int) -> bytes:
        """Rows ``start:stop`` of ``ledger`` as packed bytes."""
        records = ledger.records.array[start:stop]
        if not self.aux_width:
            return self.schema.encode_many(records)
        rows = np.empty(stop - start, self.dtype)
        rows["record"] = records
        rows["aux"] = ledger.aux[start:stop]
        return rows.tobytes()

    def unpack(self, data: bytes, live: int):
        """(records, aux) of the first ``live`` rows: a writable
        :class:`RecordBatch` and its aux rows (``None`` without aux
        columns)."""
        rows = np.frombuffer(data, self.dtype, count=live)
        records = RecordBatch(self.schema, rows["record"].copy())
        aux = rows["aux"].copy() if self.aux_width else None
        return records, aux


@dataclass(frozen=True)
class _Slab:
    """A slab file and the records container it was written from."""

    name: str
    rows: int
    records: object


class SlabStore:
    """The immutable ledger slab files beside one checkpoint manifest.

    A ledger's slab is ``<manifest name>.ledger-<ident>-<rows>`` in the
    manifest's directory.  The store remembers which slab the committed
    manifest names for each ledger and which records container it was
    written from, and decides per checkpoint whether that slab still
    holds the ledger's live records as a prefix (see the module
    docstring).  A rewrite always holds fewer rows than the slab it
    replaces, so a new slab's name never collides with a committed one.

    Commit protocol (driven by :class:`~repro.core.managed.
    ManagedSample`): :func:`save_geometric_file` writes and closes every
    new slab before the manifest is complete; the caller renames the
    manifest into place, then calls :meth:`commit`, which deletes the
    slabs only the previous manifest named, or :meth:`abort` if the
    checkpoint failed.  One store owns a manifest path at a time.
    """

    def __init__(self, manifest_path: str | os.PathLike[str]) -> None:
        directory, self.name = os.path.split(os.fspath(manifest_path))
        self.directory = directory or "."
        self._slab_name = re.compile(re.escape(self.name)
                                     + r"\.ledger-\d+-\d+")
        self._committed: dict[int, _Slab] = {}
        self._staged: dict[int, _Slab] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def stage(self, ledger: SubsampleLedger, layout: _RowLayout) -> str:
        """The slab the in-flight manifest names for ``ledger``: the
        committed one while it holds the live records as a prefix and
        more than half its rows are live, else a new file, written and
        closed here."""
        slab = self._committed.get(ledger.ident)
        data = None
        if slab is not None and slab.records is ledger.records:
            if 2 * ledger.live > slab.rows:
                self._staged[ledger.ident] = slab
                return slab.name
            # Still a prefix, so the new slab is the old one's head.
            data = self._head(slab.name, ledger.live * layout.row_size)
        if data is None:
            data = layout.pack(ledger, 0, ledger.live)
        name = f"{self.name}.ledger-{ledger.ident}-{ledger.live}"
        with open(self.path(name), "wb") as sink:
            sink.write(data)
        self._staged[ledger.ident] = _Slab(name, ledger.live, ledger.records)
        return name

    def _head(self, name: str, size: int) -> bytes | None:
        """The first ``size`` bytes of slab ``name``; ``None`` if it no
        longer holds them (another writer broke the one-owner rule), so
        the caller packs the rows from memory instead."""
        try:
            with open(self.path(name), "rb") as source:
                data = source.read(size)
        except FileNotFoundError:
            return None
        return data if len(data) == size else None

    def adopt(self, ledger: SubsampleLedger, name: str, rows: int) -> None:
        """Record that the committed manifest names ``name`` (``rows``
        rows) for a ledger restored from it."""
        self._committed[ledger.ident] = _Slab(name, rows, ledger.records)

    def commit(self) -> None:
        """The manifest naming the staged slabs is in place: delete the
        slabs only the previous manifest named."""
        self._unlink(self._committed, self._staged)
        self._committed, self._staged = self._staged, {}

    def abort(self) -> None:
        """The checkpoint failed before its rename: delete the slabs it
        wrote; the committed manifest and its slabs stay."""
        self._unlink(self._staged, self._committed)
        self._staged = {}

    def is_stale(self, name: str) -> bool:
        """True for a slab file of this manifest that the committed
        manifest does not name (left by a writer killed before its
        rename)."""
        return (self._slab_name.fullmatch(name) is not None
                and name not in _names(self._committed))

    def _unlink(self, doomed: dict[int, _Slab],
                kept: dict[int, _Slab]) -> None:
        """Delete the slabs of ``doomed`` that ``kept`` does not name."""
        for name in _names(doomed) - _names(kept):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.path(name))


def _names(slabs: dict[int, _Slab]) -> set[str]:
    return {slab.name for slab in slabs.values()}


def _encode_ledger(ledger: SubsampleLedger, layout: _RowLayout,
                   slabs: SlabStore | None) -> dict:
    state = {
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
        "slab": None,
        "last": None,
    }
    if ledger.records is not None and ledger.live:
        if slabs is None:
            data = layout.pack(ledger, 0, ledger.live)
            state["slab"] = {
                "inline": base64.b64encode(data).decode("ascii")}
        else:
            state["slab"] = {"file": slabs.stage(ledger, layout)}
        last = layout.pack(ledger, ledger.live - 1, ledger.live)
        state["last"] = base64.b64encode(last).decode("ascii")
    return state


def _read_slab(slab: dict, live: int, layout: _RowLayout,
               slabs: SlabStore | None, ident: int) -> tuple[bytes, str, int]:
    """(first ``live`` rows' bytes, slab name for errors, slab rows)."""
    need = live * layout.row_size
    if "inline" in slab:
        name = f"<inline slab of ledger {ident}>"
        data = base64.b64decode(slab["inline"])
        size = len(data)
    else:
        if slabs is None:
            raise ValueError(
                f"ledger {ident}'s records are in slab file "
                f"{slab['file']!r}; pass the SlabStore of its checkpoint")
        name = slabs.path(slab["file"])
        try:
            with open(name, "rb") as source:
                size = os.fstat(source.fileno()).st_size
                data = source.read(need)
        except FileNotFoundError:
            raise ValueError(f"slab {name} is missing") from None
    rows, remainder = divmod(size, layout.row_size)
    if remainder:
        raise ValueError(f"slab {name} is {size} bytes, not a whole "
                         f"number of {layout.row_size}-byte rows")
    if rows < live:
        raise ValueError(f"slab {name} holds {rows} rows; its manifest "
                         f"says {live} are live")
    return data[:need], name, rows


def _decode_ledger(state: dict, gf, layout: _RowLayout,
                   slabs: SlabStore | None) -> SubsampleLedger:
    ledger = SubsampleLedger.__new__(SubsampleLedger)
    ledger.ident = state["ident"]
    ledger.first_level = state["first_level"]
    ledger.tail_size = state["tail_size"]
    ledger.live = state["live"]
    ledger.records = ledger.aux = None
    slab = state["slab"]
    if slab is not None:
        data, name, rows = _read_slab(slab, ledger.live, layout, slabs,
                                      ledger.ident)
        if data[-layout.row_size:] != base64.b64decode(state["last"]):
            raise ValueError(
                f"slab {name} row {ledger.live - 1} differs from the row "
                f"its manifest recorded")
        ledger.records, ledger.aux = layout.unpack(data, ledger.live)
        if "file" in slab:
            slabs.adopt(ledger, slab["file"], rows)
    elif gf.config.retain_records:
        if ledger.live:
            raise ValueError(f"ledger {ledger.ident} has {ledger.live} "
                             f"live records but no slab")
        ledger.records, ledger.aux = layout.unpack(b"", 0)
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
                        layout: _RowLayout,
                        slabs: SlabStore | None) -> None:
    """Write ``head`` plus a last member ``"ledgers"``, encoding and
    writing one ledger at a time."""
    sink.write(json.dumps(head)[:-1] + ', "ledgers": [')
    for index, ledger in enumerate(ledgers):
        if index:
            sink.write(", ")
        sink.write(json.dumps(_encode_ledger(ledger, layout, slabs)))
    sink.write("]}")


def save_geometric_file(gf: GeometricFile | MultipleGeometricFiles,
                        sink: IO[str], *, meta: dict | None = None,
                        slabs: SlabStore | None = None) -> None:
    """Serialise the structure's complete logical state.

    Args:
        gf: a (possibly biased) geometric file or a multi-file
            structure.
        sink: a text file-like object the manifest is written to.
        meta: optional caller metadata stored alongside the state and
            returned by :func:`load_geometric_file` as
            ``gf.checkpoint_meta``.  The sharded service uses this to
            stamp each checkpoint with the batch sequence number it
            covers, so recovery replays exactly the batches the
            checkpoint has not seen -- storing the two in one file (one
            atomic rename) is what makes the no-loss/no-double-count
            guarantee crash-safe.
        slabs: where ledger slabs go.  ``None`` writes each inline in
            the manifest; a :class:`SlabStore` writes the ones it does
            not already hold as files beside the manifest, and the
            caller must rename the manifest into place and then
            :meth:`~SlabStore.commit` (or :meth:`~SlabStore.abort`).
    """
    layout = _RowLayout(gf)
    buffer = gf.buffer
    buffer_records = buffer_aux = None
    if gf.config.retain_records:
        buffer_records = _pack_records(gf.schema, buffer.pending_view())
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
        "buffer_aux": buffer_aux,
        "law_state": gf._law.state_dict(),
        "rng_state": _encode_py_rng(gf._rng.getstate()),
        "np_rng_state": _encode_np_rng(gf._np_rng),
    }
    if meta is not None:
        state["meta"] = meta
    if isinstance(gf, BiasedSamplingMixin):
        state["total_weight"] = gf.total_weight
        gf.fold_multiplier_scale()
        state["multipliers"] = {str(k): v
                                for k, v in gf.multipliers.items()}
        state["overflow_events"] = gf.overflow_events
        state["weight_epoch"] = gf.weight_epoch
    if isinstance(gf, MultipleGeometricFiles):
        sink.write(json.dumps(state)[:-1] + ', "files": [')
        for index, file in enumerate(gf.files):
            if index:
                sink.write(", ")
            _write_with_ledgers(
                sink, {"free_slots": file.layout._free_slots,
                       "dummy_slots": list(file.dummy_slots)},
                file.subsamples, layout, slabs)
        sink.write("]}")
    else:
        state["free_slots"] = gf._layout._free_slots
        _write_with_ledgers(sink, state, gf.subsamples, layout, slabs)


def load_geometric_file(source: IO[str], device: BlockDevice,
                        weight_fn=None, *,
                        slabs: SlabStore | None = None) -> GeometricFile:
    """Reconstruct a geometric file from :func:`save_geometric_file` output.

    Args:
        source: text file-like object with the manifest.
        device: a (fresh or original) backing device, at least as large
            as the original one.
        weight_fn: required when restoring a biased file -- functions
            cannot be serialised, so the caller re-supplies ``f``.
        slabs: the :class:`SlabStore` of the manifest's path, needed
            when its slabs are files; it learns which slabs the
            restored ledgers use.

    Returns:
        A file whose subsequent behaviour is identical to the saved one.
        Any ``meta`` mapping passed to :func:`save_geometric_file` is
        attached as ``checkpoint_meta`` (``None`` when absent).

    Raises:
        ValueError: for any format version but :data:`FORMAT_VERSION`,
            an unknown structure kind, record slabs that disagree with
            the counters stored beside them, or a slab that is missing,
            short, not a whole number of rows, or whose row
            ``live - 1`` differs from the manifest's copy (the error
            names the slab).
    """
    state = json.load(source)
    version = state.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r} "
                         f"(this build reads version {FORMAT_VERSION})")
    kind = state["kind"]
    # Manifests from builds with a record-list layout name a
    # ``columnar`` option; every layout restores to the same slabs.
    state["config"].pop("columnar", None)
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
        # Older manifests keep the buffer's weights and their epoch
        # factor beside a record-list buffer.
        gf.weight_epoch = state.get("weight_epoch",
                                    state.get("buffer_scale", 1.0))
        if state.get("buffer_weights") is not None:
            state["buffer_aux"] = state["buffer_weights"]
    elif kind == "GeometricFile":
        config = GeometricFileConfig(**state["config"])
        gf = GeometricFile(device, config, seed=0, weight_fn=weight_fn)
    elif kind == "MultipleGeometricFiles":
        config = MultiFileConfig(**state["config"])
        gf = MultipleGeometricFiles(device, config, seed=0,
                                    weight_fn=weight_fn)
    else:
        raise ValueError(f"unknown checkpoint kind {kind!r}")

    layout = _RowLayout(gf)
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
            file.subsamples = [_decode_ledger(s, gf, layout, slabs)
                               for s in file_state["ledgers"]]
    else:
        gf._layout._free_slots = [list(s) for s in state["free_slots"]]
        gf.subsamples = [_decode_ledger(s, gf, layout, slabs)
                         for s in state["ledgers"]]
    buffer = gf.buffer
    records = _unpack_records(gf.schema, state["buffer_records"],
                              state["buffer_count"])
    if records is None:
        buffer.append_count(state["buffer_count"])
    else:
        aux = _unpack_aux(state.get("buffer_aux"), buffer.aux_width)
        if aux is None and buffer.aux_width and not len(records):
            aux = np.zeros((0, buffer.aux_width))
        buffer.restore_batch(records, aux)
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
