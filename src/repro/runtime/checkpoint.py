"""Engine checkpointing.

Streaming deployments run for days; losing the tracked dependency
history to a crash would force a full re-run on the next mutation.
:func:`save_engine` persists a :class:`~repro.core.engine.GraphBoltEngine`'s
complete processing state -- graph snapshot, rolling values/aggregate,
frontier, and the per-iteration dependency history -- to a single
file; :func:`load_engine` reconstructs an engine that continues
exactly where the saved one stopped (same values, same refinement
behaviour on the next batch).

The file is an index over raw arrays -- the second container built from
the one array framing :mod:`repro.graph.storage` owns (the first is a
store generation: one ``RSSEG001`` segment per file)::

    0           RSSEG001 header   dtype |u1, count = len(index), CRC32
    64          index             JSON, space-padded to 8 bytes: format,
                                  version, fingerprint, scalars, extra,
                                  graph mode, store manifest reference,
                                  per array name/dtype/shape/offset/crc32
    data start  RSSEG001 header   dtype, count, CRC32  } one per array,
     + offset   payload           raw little-endian    } back to back
    EOF         the last payload's end -- nothing follows

Every array is ``<i8`` or ``<f8``, so members stay 8-byte aligned with
no padding; the history's records are four concatenated arrays plus two
small ones, not four members per iteration (format version 5):

    hist_offsets    (horizon + 1, 2)  cumulative value rows, g and c
    hist_dense      (horizon, 2)      1 where a half is dense: its rows
                                      are the whole array, with no ids
    hist_g_idx      sparse halves' ids, back to back (likewise hist_c_idx)
    hist_g_values   every half's rows, back to back (likewise hist_c_values)

A version 4 file has no ``hist_dense`` (every half sparse) and loads.

No compression: at scale 15 with ten iterations (7.1 MB of arrays) the
deflated ``.npz`` archive this replaced spent 350 of ``save_engine``'s
360 ms in ``zlib``, verifying it cost 94 ms and loading it 148 ms, while
CRC + ``write`` + ``fsync`` of the same bytes raw is 10 ms -- so a
checkpoint is now the size of the state it holds (EXPERIMENTS.md,
"Checkpoint, byte by byte").

Durability and integrity discipline (see ``docs/operations.md``):

- **Atomic, synced publish** -- temp file in the same directory, fsync,
  ``os.replace``, directory fsync: a crash leaves the previous
  checkpoint or none, and a checkpoint that is listed survives power
  loss.
- **Every byte under a CRC, checked once per open** -- on save each
  array is CRC'd once, from its own buffer.  :func:`open_checkpoint`
  reads the file once and verifies, in one pass and before anything is
  interpreted: the index segment, then each member's header against
  the index (canonical byte for byte, padding included) and payload
  against its CRC32, at offsets that must tile the file exactly; then
  shapes, dtypes and index ranges against ``num_vertices``.  Damage
  raises a ``ValueError`` naming the region.
- **Restore copies what the engine mutates** -- ``values``,
  ``prev_values``, ``aggregate``, ``frontier`` (and the history's two
  templates); history records and inline graph arrays are read-only
  views of the verified bytes.  The file is read, not mapped: later
  damage to it on disk cannot reach a live engine.

Graph payload modes: ``inline`` (heap graphs) -- the six canonical
CSR+CSC arrays are members and :meth:`CSRGraph.from_canonical` adopts
them with zero sorts and zero copies; ``manifest`` (mmap-store graphs)
-- the index records a *store manifest reference* (root, snapshot id,
per-array segment file + dtype + count + CRC32) instead of gigabytes of
edge arrays.  The snapshot is pinned in the store for as long as the
checkpoint file exists (by the seal's own manifest write, before the
file lands); restore reopens the segment files as ``np.memmap`` views
under ``store_root`` (replicas pass their own spool) and pins them there
the same way.

:func:`pack_state` frames a rolling state alone the same way (its own
index format, the same members and CRCs, no graph, no history) and
:func:`unpack_state` reads it back through the same member reader:
replication ships it so a replica installs the writer's state instead
of refining again.

The algorithm itself is *not* serialised; the caller supplies an
equally configured instance at load time, and a fingerprint check
rejects obvious mismatches.
"""

from __future__ import annotations

import json
import math
import zlib
from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.core.engine import GraphBoltEngine
from repro.core.history import DependencyHistory, IterationRecord
from repro.core.model import IncrementalAlgorithm
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.storage import (
    ARRAY_NAMES,
    StoreError,
    _HEADER,
    _HEADER_SIZE,
    _pack_header,
    atomic_write,
    open_snapshot_reference,
    verify_segment_blob,
)
from repro.ligra.delta import DeltaState
from repro.testing import faults

__all__ = [
    "Checkpoint",
    "load_engine",
    "open_checkpoint",
    "pack_state",
    "read_checkpoint_extra",
    "read_store_manifest",
    "save_engine",
    "unpack_state",
    "verify_checkpoint_blob",
]

_FORMAT = "repro-checkpoint"
_FORMAT_VERSION = 5
#: Versions a reader accepts: 4 had no dense history halves.
_READABLE_VERSIONS = (4, _FORMAT_VERSION)
#: A rolling state's arrays: all the engine mutates in place.
_DELTA_FIELDS = ("values", "prev_values", "aggregate", "frontier")
_STATE_ARRAYS = _DELTA_FIELDS + (
    "hist_initial", "hist_identity", "hist_offsets",
    "hist_g_idx", "hist_g_values", "hist_c_idx", "hist_c_values")


class Checkpoint(NamedTuple):
    """A verified, open checkpoint: its index and read-only array views."""

    index: dict
    arrays: Dict[str, np.ndarray]
    #: The file it was read from (``None``: opened from bytes).
    path: Optional[str]


def _fingerprint(algorithm: IncrementalAlgorithm) -> str:
    return (f"{type(algorithm).__name__}|{algorithm.name}|"
            f"{algorithm.value_shape}|{algorithm.aggregation_shape}|"
            f"{algorithm.aggregation.name}")


def save_engine(engine: GraphBoltEngine, path: str,
                extra: Optional[Dict[str, np.ndarray]] = None) -> str:
    """Atomically and durably persist a run engine's state at ``path``
    (returned for convenience).  ``extra`` entries (e.g. a recovery
    sequence number) are stored in the index, covered by its checksum,
    ignored by :func:`load_engine`, and read back with
    :func:`read_checkpoint_extra`."""
    engine._require_history()
    graph = engine.graph
    state = engine._state
    history = engine._history
    records = history.records
    store = graph.store
    reference = None
    if (store is not None and store.kind == "mmap"
            and graph.snapshot_id is not None):
        # Out-of-core snapshot: a reference to the store's segment
        # files, not the edge arrays.  This seals the generation and
        # pins it for ``path`` in one manifest write; the pin expires by
        # itself if the file below never lands.
        reference = store.manifest_entry(graph.snapshot_id, owner=path)
    lengths = [(record.g_values.shape[0], record.c_values.shape[0])
               for record in records]
    dense = [(record.g_idx is None, record.c_idx is None)
             for record in records]

    def joined(field: str, like: np.ndarray) -> np.ndarray:
        # History rows back to back (a dense half has no ids); ``like``
        # gives an empty history its row shape.
        parts = (getattr(record, field) for record in records)
        return np.concatenate(
            [like[:0]] + [part for part in parts if part is not None])

    arrays = {
        "values": state.values,
        "prev_values": state.prev_values,
        "aggregate": state.aggregate,
        "frontier": state.frontier,
        "hist_initial": history.initial_values,
        "hist_identity": history.identity_aggregate,
        "hist_offsets": np.cumsum([(0, 0)] + lengths, axis=0),
        "hist_dense": np.array(dense, dtype=np.int64).reshape(-1, 2),
        "hist_g_idx": joined("g_idx", state.frontier),
        "hist_g_values": joined("g_values", history.identity_aggregate),
        "hist_c_idx": joined("c_idx", state.frontier),
        "hist_c_values": joined("c_values", history.initial_values),
    }
    if reference is None:  # heap snapshot: the six arrays travel inline
        arrays.update(graph.canonical_arrays())

    fields = {
        "format": _FORMAT, "version": _FORMAT_VERSION,
        "fingerprint": _fingerprint(engine.algorithm),
        "num_vertices": int(graph.num_vertices),
        "iteration": int(state.iteration),
        "num_iterations": int(engine.num_iterations),
        "until_convergence": bool(engine.until_convergence),
        "graph_mode": "inline" if reference is None else "manifest",
        "store_manifest": reference,
        "extra": {key: np.asarray(value).tolist()
                  for key, value in (extra or {}).items()},
    }

    def content():
        yield from _pack(fields, arrays)
        # Inside the write, so a kill here takes atomic_write's cleanup:
        # the previous generation stays, no temp file does.
        faults.hit("checkpoint.replace")

    faults.hit("checkpoint.write")
    atomic_write(path, content(), fsync=True)
    return path


def _pack(fields: dict, arrays: Dict[str, np.ndarray]):
    """The file, piece by piece: the index segment (``fields`` plus one
    entry per array), then every array's segment.  Each array is CRC'd
    once from its own buffer and never copied."""
    members, pieces, offset = [], [], 0
    for name, array in arrays.items():
        dtype = "<f8" if np.asarray(array).dtype.kind == "f" else "<i8"
        array = np.ascontiguousarray(array, dtype=np.dtype(dtype))
        raw = array.reshape(-1).view(np.uint8)
        crc = zlib.crc32(raw) & 0xFFFFFFFF
        members.append({"name": name, "dtype": dtype, "offset": offset,
                        "shape": list(array.shape), "crc32": crc})
        pieces += [_pack_header(dtype, array.size, crc), raw]
        offset += _HEADER_SIZE + raw.size
    index = json.dumps({**fields, "arrays": members},
                       sort_keys=True).encode("utf-8")
    index += b" " * (-len(index) % 8)
    yield _pack_header("|u1", len(index), zlib.crc32(index))
    yield index
    yield from pieces


# ----------------------------------------------------------------------
# Open-time validation
# ----------------------------------------------------------------------
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"corrupt checkpoint: {message}")


def _member(view, start: int, nbytes: int, context: str):
    """The RSSEG001 member with an ``nbytes`` payload at ``start``:
    ``(header fields, payload view, end)`` after its CRC check.  Slices
    clamp, so a length that points past EOF is a size mismatch."""
    end = start + _HEADER_SIZE + nbytes
    try:
        header = verify_segment_blob(view[start:end], context)
    except StoreError as exc:
        raise ValueError(f"corrupt checkpoint: {exc}") from exc
    return header, view[start + _HEADER_SIZE:end], end


def _open_index(view, form: str, what: str, context: str):
    """``(index, data start)`` of a :func:`_pack`-framed blob whose
    CRC-checked index segment is a JSON object of format ``form``."""
    _require(len(view) >= _HEADER_SIZE,
             f"{context} is truncated before its index header ends")
    (dtype, _, _), raw, start = _member(
        view, 0, _HEADER.unpack_from(view)[2], f"{context} index")
    try:
        index = json.loads(bytes(raw)) if dtype == "|u1" else None
    except ValueError:
        index = None
    _require(isinstance(index, dict) and index.get("format") == form,
             f"{context} does not start with a {what} index")
    return index, start


def _read_members(view, index: dict, start: int,
                  context: str) -> Dict[str, np.ndarray]:
    """Every array the index lists, as read-only views of ``view``:
    each member's header checked against the index and its payload
    against its CRC32, at offsets that must tile the blob exactly."""
    arrays, position = {}, start
    for meta in index.get("arrays", ()):
        try:
            name, dtype, shape = meta["name"], meta["dtype"], meta["shape"]
            count = math.prod(shape)
            sound = (dtype in ("<i8", "<f8") and isinstance(count, int)
                     and min(shape, default=0) >= 0
                     and start + meta["offset"] == position)
        except (KeyError, TypeError):
            sound = False
        _require(sound, f"index entry {meta!r} is malformed, overlaps its "
                        f"neighbour or leaves the file")
        header, raw, position = _member(
            view, position, 8 * count, f"{context} array {name!r}")
        _require(header == (dtype, count, meta.get("crc32")),
                 f"array {name!r} header disagrees with the index")
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape)
    _require(position == len(view),
             f"{len(view) - position} bytes follow the last array")
    return arrays


def _read_index(source, context: Optional[str] = None):
    """``(view, index, data start, path, context)`` with the index
    segment's CRC and every index-only structural rule checked."""
    path = None
    if not isinstance(source, (bytes, bytearray, memoryview)):
        path = source
        with open(path, "rb") as stream:
            source = stream.read()
    view = memoryview(source)
    context = context or path or "<blob>"
    if view[:2] == b"PK":
        raise ValueError(
            f"unsupported checkpoint format: {context} is a pre-v4 .npz "
            f"archive (no reader is kept; re-checkpoint from a live engine)")
    index, start = _open_index(view, _FORMAT, "checkpoint", context)
    if index.get("version") not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported checkpoint version {index.get('version')!r}")
    for key in ("fingerprint", "until_convergence", "graph_mode",
                "store_manifest", "extra", "arrays"):
        _require(key in index, f"index is missing {key!r}")
    for key in ("num_vertices", "iteration", "num_iterations"):
        _require(isinstance(index.get(key), int) and index[key] >= 0,
                 f"index has no non-negative {key!r}")
    num_vertices, mode = index["num_vertices"], index["graph_mode"]
    reference = index["store_manifest"]
    if mode == "manifest":
        _require(isinstance(reference, dict),
                 "manifest payload has no store reference")
        for key in ("kind", "root", "snapshot", "num_vertices", "arrays"):
            _require(key in reference, f"store manifest is missing {key!r}")
        _require(reference["num_vertices"] == num_vertices,
                 "store manifest vertex count does not match payload")
    else:
        _require(mode == "inline" and reference is None,
                 f"unknown graph payload mode {mode!r}")
    return view, index, start, path, context


def open_checkpoint(source, context: Optional[str] = None) -> Checkpoint:
    """Verify a checkpoint -- a path, or its bytes before they land
    anywhere -- in one pass, and hand back its index and array views.

    The one integrity gate: :func:`load_engine`, recovery, the replica's
    verify-before-adopt rule and ``repro scrub`` all open through here.
    Raises :class:`ValueError` naming the damaged region: the index, a
    member's header or payload, its offset, trailing bytes, a shape."""
    view, index, data_start, path, context = _read_index(source, context)
    arrays = _read_members(view, index, data_start, context)
    _verify_structure(index, arrays)
    return Checkpoint(index, arrays, path)


def _check_index_array(name: str, arr: np.ndarray,
                       num_vertices: int) -> None:
    _require(arr.ndim == 1 and arr.dtype.kind == "i",
             f"{name} must be a 1-D integer array, got {arr.dtype} "
             f"{arr.shape}")
    if arr.size:
        _require(int(arr.min()) >= 0 and int(arr.max()) < num_vertices,
                 f"{name} indexes outside [0, {num_vertices})")


def _verify_canonical_arrays(data, num_vertices: int) -> None:
    """Structural checks on the six inline CSR+CSC arrays:
    ``from_canonical`` trusts its inputs (zero copies, zero sorts), so
    everything it would silently mis-index on is rejected here."""
    num_edges = int(data["out_targets"].size)
    for name in ("out_offsets", "in_offsets"):
        arr = data[name]
        _require(arr.dtype.kind == "i" and arr.shape == (num_vertices + 1,),
                 f"{name} is not {num_vertices} + 1 integers")
        _require(int(arr[0]) == 0 and int(arr[-1]) == num_edges,
                 f"{name} endpoints do not span the edge arrays")
        _require(int(np.diff(arr).min(initial=0)) >= 0,
                 f"{name} is not monotone")
    for ids, weights in (("out_targets", "out_weights"),
                         ("in_sources", "in_weights")):
        _check_index_array(ids, data[ids], num_vertices)
        _require(data[ids].size == num_edges,
                 "CSC edge count does not match CSR edge count")
        _require(data[weights].shape == data[ids].shape,
                 f"{weights} does not match {ids}")


def _verify_structure(index: dict, data: Dict[str, np.ndarray]) -> None:
    """Array-level validation, after the CRCs and before interpretation."""
    num_vertices, inline = index["num_vertices"], not index["store_manifest"]
    for name in _STATE_ARRAYS + (ARRAY_NAMES if inline else ()):
        _require(name in data, f"payload is missing {name}")
    _require(index["version"] == 4 or "hist_dense" in data,
             "payload is missing hist_dense")
    if inline:
        _verify_canonical_arrays(data, num_vertices)
    values = data["values"]
    _require(values.ndim >= 1 and values.shape[0] == num_vertices,
             f"values length {values.shape} != num_vertices "
             f"{num_vertices}")
    _require(data["prev_values"].shape == values.shape,
             "prev_values shape does not match values")
    _require(data["aggregate"].ndim >= 1
             and data["aggregate"].shape[0] == num_vertices,
             "aggregate length != num_vertices")
    _check_index_array("frontier", data["frontier"], num_vertices)
    _require(data["hist_initial"].shape == values.shape,
             "history initial values shape does not match values")
    _require(data["hist_identity"].shape == data["aggregate"].shape,
             "history identity shape does not match aggregate")
    offsets = data["hist_offsets"]
    _require(offsets.ndim == 2 and offsets.shape[0] >= 1
             and offsets.shape[1] == 2 and not offsets[0].any()
             and int(np.diff(offsets, axis=0).min(initial=0)) >= 0,
             "history offsets are not two monotone columns from zero")
    lengths, dense = _history_layout(data)
    _require(dense.shape == lengths.shape
             and np.isin(dense, (0, 1)).all(),
             "history dense flags are not one 0/1 pair per record")
    for column, part in enumerate("gc"):
        idx, rows = data[f"hist_{part}_idx"], data[f"hist_{part}_values"]
        _check_index_array(f"hist_{part}_idx", idx, num_vertices)
        whole = dense[:, column] == 1
        _require(int(offsets[-1, column]) == rows.shape[0]
                 and (lengths[whole, column] == num_vertices).all()
                 and idx.size == int(lengths[~whole, column].sum()),
                 f"history {part} rows do not match their offsets")


def _history_layout(data: Dict[str, np.ndarray]):
    """``(rows, dense)``: each record's value rows per half, and its
    dense flags (all zero in a version 4 file)."""
    lengths = np.diff(data["hist_offsets"], axis=0)
    dense = data.get("hist_dense")
    return lengths, (np.zeros_like(lengths) if dense is None else dense)


def load_engine(
    source,
    algorithm: IncrementalAlgorithm,
    store_root: Optional[str] = None,
    store_label: Optional[str] = None,
    **engine_kwargs,
) -> GraphBoltEngine:
    """Reconstruct an engine from a checkpoint -- a path, or a
    :class:`Checkpoint` the caller already opened (and so verified).

    ``algorithm`` must be configured identically to the one that was
    checkpointed (same class, shapes and aggregation); a fingerprint
    mismatch raises ``ValueError`` rather than corrupting results.
    No tracking horizon is needed: it only steers an initial run, and
    refinement's window is the stored history's length.
    ``store_root`` overrides the snapshot-store root a manifest-mode
    checkpoint recorded (replicas restore from their own spool, not the
    writer's); ``store_label`` names that spool if this creates it.
    """
    index, data, path = (source if isinstance(source, Checkpoint)
                         else open_checkpoint(source))
    stored, actual = index["fingerprint"], _fingerprint(algorithm)
    if stored != actual:
        raise ValueError(
            f"algorithm mismatch: checkpoint was {stored!r}, got {actual!r}")
    if index["store_manifest"] is not None:
        graph = open_snapshot_reference(
            index["store_manifest"], store_root=store_root,
            label=store_label, owner=path)
    else:
        graph = CSRGraph.from_canonical(
            index["num_vertices"], *(data[name] for name in ARRAY_NAMES))
    engine = GraphBoltEngine(
        algorithm, num_iterations=index["num_iterations"],
        until_convergence=bool(index["until_convergence"]), **engine_kwargs)
    engine._streaming = StreamingGraph(graph)
    engine._state = DeltaState(
        iteration=index["iteration"],
        **{name: data[name].copy() for name in _DELTA_FIELDS})
    # Copied: later histories share these bases; a view would pin the file.
    history = DependencyHistory(data["hist_initial"].copy(),
                                data["hist_identity"].copy())
    lengths, dense = _history_layout(data)
    row_ends = data["hist_offsets"][1:]
    id_ends = np.cumsum(np.where(dense, 0, lengths), axis=0)

    def half(record: int, column: int):
        part, count = "gc"[column], lengths[record, column]
        rows = data[f"hist_{part}_values"][
            row_ends[record, column] - count:row_ends[record, column]]
        if dense[record, column]:
            return None, rows
        return data[f"hist_{part}_idx"][
            id_ends[record, column] - count:id_ends[record, column]], rows

    for record in range(lengths.shape[0]):
        history.append(IterationRecord(*half(record, 0), *half(record, 1)))
    engine._history = history
    return engine


def read_store_manifest(source) -> Optional[dict]:
    """The store manifest reference a checkpoint (path or bytes)
    records, or ``None`` -- from the CRC-checked index alone: how
    replication learns which store files to ship ahead of it."""
    return _read_index(source)[1]["store_manifest"]


def read_checkpoint_extra(path: str) -> Dict[str, np.ndarray]:
    """Verified ``extra`` metadata stored by :func:`save_engine`."""
    return {key: np.asarray(value) for key, value
            in open_checkpoint(path).index["extra"].items()}


def verify_checkpoint_blob(blob: bytes,
                           context: str = "<blob>") -> Optional[dict]:
    """Full verification of checkpoint bytes *before* they land
    anywhere -- the replica's gate: a checkpoint corrupted in transit is
    NACKed at receive time, never adopted onto disk where a later reload
    would silently fall back past it.  Returns the store manifest
    reference (``None`` for an inline graph)."""
    return open_checkpoint(blob, context).index["store_manifest"]


# ----------------------------------------------------------------------
# A rolling state on its own (what a replication writer ships)
# ----------------------------------------------------------------------
_STATE_FORMAT = "repro-state"


def pack_state(state: DeltaState) -> bytes:
    """``state`` in the checkpoint framing -- an index (format,
    iteration) and one CRC-guarded member per array -- with no graph and
    no history: the engine state a replication writer ships beside the
    WAL records that produced it."""
    fields = {"format": _STATE_FORMAT, "iteration": int(state.iteration)}
    return b"".join(_pack(fields, {name: getattr(state, name)
                                   for name in _DELTA_FIELDS}))


def unpack_state(blob: bytes, context: str = "<state>") -> DeltaState:
    """The :class:`DeltaState` a :func:`pack_state` blob holds, every
    CRC checked before anything is read; its arrays are read-only views
    of ``blob``.  Raises :class:`ValueError` naming the damaged region."""
    view = memoryview(blob)
    index, start = _open_index(view, _STATE_FORMAT, "state", context)
    _require(isinstance(index.get("iteration"), int),
             f"{context} index has no iteration")
    arrays = _read_members(view, index, start, context)
    _require(sorted(arrays) == sorted(_DELTA_FIELDS),
             f"{context} holds {sorted(arrays)}, not {list(_DELTA_FIELDS)}")
    return DeltaState(iteration=index["iteration"], **arrays)
