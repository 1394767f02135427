"""Engine checkpointing.

Streaming deployments run for days; losing the tracked dependency
history to a crash would force a full re-run on the next mutation.
:func:`save_engine` persists a :class:`~repro.core.engine.GraphBoltEngine`'s
complete processing state -- graph snapshot, rolling values/aggregate,
frontier, and the per-iteration dependency history -- to a single
``.npz`` file; :func:`load_engine` reconstructs an engine that continues
exactly where the saved one stopped (same values, same refinement
behaviour on the next batch).

Durability discipline (see ``docs/operations.md``):

- **Atomic publish** -- the payload is written to a temp file in the
  *same directory* and moved into place with ``os.replace``, so a crash
  mid-write leaves either the previous checkpoint or none, never a
  truncated ``.npz``.  ``save_engine`` returns the real on-disk path
  (``numpy`` appends ``.npz`` to suffix-less names; the returned path
  always names an existing file).
- **Checksum in the payload** -- a CRC32 over every array's name,
  dtype, shape, and bytes is stored under ``payload_crc32`` and
  verified by :func:`load_engine` before anything is interpreted.
- **Structural validation on load** -- array shapes, dtypes, and index
  ranges are checked against ``num_vertices`` so a corrupted (or
  wrong-file) checkpoint raises a clear ``ValueError`` instead of
  propagating garbage into the engine.

Graph payload modes (format version 3):

- ``inline`` (heap graphs) -- the six canonical CSR+CSC arrays are
  stored verbatim, so :func:`load_engine` reconstructs the snapshot
  through :meth:`CSRGraph.from_canonical` with **zero** re-sorts; the
  pre-v3 format stored raw ``(src, dst, weight)`` triples and paid two
  O(E log E) lexsorts on every restore.
- ``manifest`` (mmap-store graphs) -- the payload records a JSON
  *store manifest reference* (root, snapshot id, per-array segment
  file + dtype + count + CRC32) instead of inlining gigabytes of edge
  arrays.  The referenced snapshot is pinned in the store for as long
  as the checkpoint file exists, and restore reopens the segment
  files as ``np.memmap`` views (``store_root`` overrides the recorded
  root -- replicas pass their own spool).

The algorithm itself is *not* serialised (closures and potentials do
not round-trip safely through arrays); the caller supplies an equally
configured algorithm instance at load time, and a fingerprint check
rejects obvious mismatches.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import zipfile
import zlib
from contextlib import contextmanager
from typing import Dict, Optional

import numpy as np

from repro.core.engine import GraphBoltEngine
from repro.core.history import DependencyHistory
from repro.core.model import IncrementalAlgorithm
from repro.core.pruning import PruningPolicy
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.storage import open_snapshot_reference
from repro.ligra.delta import DeltaState
from repro.testing import faults

__all__ = [
    "load_engine",
    "read_checkpoint_extra",
    "read_store_manifest",
    "save_engine",
    "verify_checkpoint_blob",
]

_FORMAT_VERSION = 3
_CRC_KEY = "payload_crc32"
_EXTRA_PREFIX = "extra_"
_GRAPH_ARRAYS = (
    "out_offsets", "out_targets", "out_weights",
    "in_offsets", "in_sources", "in_weights",
)


def _fingerprint(algorithm: IncrementalAlgorithm) -> str:
    return (
        f"{type(algorithm).__name__}|{algorithm.name}|"
        f"{algorithm.value_shape}|{algorithm.aggregation_shape}|"
        f"{algorithm.aggregation.name}"
    )


def _payload_crc32(payload: Dict[str, np.ndarray]) -> int:
    """CRC32 over every entry's name, dtype, shape, and raw bytes."""
    crc = 0
    for key in sorted(payload):
        if key == _CRC_KEY:
            continue
        arr = np.asarray(payload[key])
        for piece in (key, str(arr.dtype), str(arr.shape)):
            crc = zlib.crc32(piece.encode("utf-8"), crc)
        crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return crc


def _normalise_path(path: str) -> str:
    """The path ``numpy`` will actually write (suffix made explicit)."""
    return path if path.endswith(".npz") else path + ".npz"


def save_engine(engine: GraphBoltEngine, path: str,
                extra: Optional[Dict[str, np.ndarray]] = None) -> str:
    """Atomically persist a run engine's state; returns the on-disk path.

    ``extra`` entries (e.g. a recovery sequence number) are stored under
    ``extra_``-prefixed keys, covered by the payload checksum, ignored
    by :func:`load_engine`, and read back with
    :func:`read_checkpoint_extra`.
    """
    engine._require_run()
    graph = engine.graph
    state = engine._state
    history = engine._history

    store = graph.store
    store_backed = (
        store is not None
        and store.kind == "mmap"
        and graph.snapshot_id is not None
    )
    payload = {
        "format_version": np.int64(_FORMAT_VERSION),
        "fingerprint": np.array(_fingerprint(engine.algorithm)),
        "num_vertices": np.int64(graph.num_vertices),
        "values": state.values,
        "prev_values": state.prev_values,
        "aggregate": state.aggregate,
        "frontier": state.frontier,
        "iteration": np.int64(state.iteration),
        "num_iterations": np.int64(engine.num_iterations),
        "until_convergence": np.bool_(engine.until_convergence),
        "hist_initial": history.initial_values,
        "hist_identity": history.identity_aggregate,
        "hist_len": np.int64(history.horizon),
    }
    if store_backed:
        # Out-of-core snapshot: record a reference to the store's
        # published segment files instead of inlining the edge arrays.
        payload["graph_mode"] = np.array("manifest")
        payload["store_manifest"] = np.array(
            json.dumps(store.manifest_entry(graph.snapshot_id),
                       sort_keys=True)
        )
    else:
        # Heap snapshot: the six canonical arrays round-trip through
        # CSRGraph.from_canonical without re-sorting on restore.
        payload["graph_mode"] = np.array("inline")
        for name in _GRAPH_ARRAYS:
            payload[name] = getattr(graph, name)
    for index, record in enumerate(history.records):
        payload[f"rec_{index}_g_idx"] = record.g_idx
        payload[f"rec_{index}_g_values"] = record.g_values
        payload[f"rec_{index}_c_idx"] = record.c_idx
        payload[f"rec_{index}_c_values"] = record.c_values
    if extra:
        for key, value in extra.items():
            payload[f"{_EXTRA_PREFIX}{key}"] = np.asarray(value)
    payload[_CRC_KEY] = np.uint32(_payload_crc32(payload))

    path = _normalise_path(path)
    directory = os.path.dirname(os.path.abspath(path))
    faults.hit("checkpoint.write")
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as stream:
            np.savez_compressed(stream, **payload)
        faults.hit("checkpoint.replace")
        os.replace(tmp_path, path)
    except BaseException:
        # A failed (or crashed-over) write must not leave the temp file
        # masquerading as state; the published checkpoint is untouched.
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    if store_backed:
        # Pin the referenced snapshot so store compaction keeps its
        # segment files alive for as long as this checkpoint exists;
        # the pin self-expires once the owner file is rotated away.
        store.pin(graph.snapshot_id, owner=path)
    return path


# ----------------------------------------------------------------------
# Load-time validation
# ----------------------------------------------------------------------
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"corrupt checkpoint: {message}")


@contextmanager
def _checkpoint_data(path: str):
    """Open an ``.npz`` checkpoint, folding every way a damaged archive
    can fail (bad zip directory, bad member CRC, truncated deflate
    stream, missing arrays) into one clear ``ValueError``.

    ``npz`` members decompress lazily, so these errors can surface at
    any ``data[key]`` access inside the block, not just at open."""
    try:
        with np.load(path, allow_pickle=False) as data:
            yield data
    except ValueError:
        raise
    except (zipfile.BadZipFile, zlib.error, EOFError, KeyError) as exc:
        raise ValueError(
            f"corrupt checkpoint: {path} is unreadable "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def verify_checkpoint_blob(blob: bytes,
                           context: str = "<blob>") -> Optional[dict]:
    """Run the full payload verification on checkpoint bytes *before*
    they land anywhere; returns the store manifest reference the
    payload records (``None`` for an inline graph).

    The end-to-end integrity gate for replication: a checkpoint blob
    corrupted in transit must be rejected at receive time, never
    adopted onto a replica's disk where a later reload would silently
    fall back past it.  Raises :class:`ValueError` on any damage --
    bad zip structure, member CRC, payload checksum, or structural
    violation.
    """
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as data:
            return _verify_payload(data, context)
    except ValueError:
        raise
    except (zipfile.BadZipFile, zlib.error, EOFError, KeyError,
            OSError) as exc:
        raise ValueError(
            f"corrupt checkpoint: {context} is unreadable "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _check_index_array(name: str, arr: np.ndarray,
                       num_vertices: int) -> None:
    _require(arr.ndim == 1, f"{name} must be 1-D, got shape {arr.shape}")
    _require(np.issubdtype(arr.dtype, np.integer),
             f"{name} must be integer, got dtype {arr.dtype}")
    if arr.size:
        _require(int(arr.min()) >= 0 and int(arr.max()) < num_vertices,
                 f"{name} indexes outside [0, {num_vertices})")


def _verify_canonical_arrays(data, num_vertices: int) -> None:
    """Structural checks on the six inline CSR+CSC arrays.

    ``from_canonical`` trusts its inputs (that is the point -- zero
    copies, zero sorts), so everything it would otherwise silently
    mis-index on is rejected here."""
    num_edges = int(data["out_targets"].size)
    for name in ("out_offsets", "in_offsets"):
        arr = data[name]
        _require(arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer),
                 f"{name} must be a 1-D integer array")
        _require(arr.size == num_vertices + 1,
                 f"{name} length {arr.size} != num_vertices + 1")
        _require(int(arr[0]) == 0 and int(arr[-1]) == num_edges,
                 f"{name} endpoints do not span the edge arrays")
        if arr.size > 1:
            _require(int(np.diff(arr).min()) >= 0,
                     f"{name} is not monotone")
    _check_index_array("out_targets", data["out_targets"], num_vertices)
    _check_index_array("in_sources", data["in_sources"], num_vertices)
    _require(int(data["in_sources"].size) == num_edges,
             "CSC edge count does not match CSR edge count")
    _require(data["out_weights"].shape == data["out_targets"].shape,
             "out_weights does not match out_targets")
    _require(data["in_weights"].shape == data["in_sources"].shape,
             "in_weights does not match in_sources")


def _parse_store_manifest(text: str) -> dict:
    try:
        reference = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"corrupt checkpoint: unreadable store manifest ({exc})"
        ) from exc
    _require(isinstance(reference, dict),
             "store manifest is not a JSON object")
    for key in ("kind", "root", "snapshot", "num_vertices", "arrays"):
        _require(key in reference, f"store manifest is missing {key!r}")
    return reference


def _verify_payload(data, path: str) -> Optional[dict]:
    """Checksum plus structural validation, before interpretation;
    returns the store manifest reference of a manifest-mode payload."""
    reference = None
    version = int(data["format_version"])
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if _CRC_KEY not in data:
        raise ValueError(f"corrupt checkpoint: {path} has no checksum")
    payload = {key: data[key] for key in data.files if key != _CRC_KEY}
    stored = int(np.uint32(data[_CRC_KEY]))
    actual = _payload_crc32(payload)
    _require(stored == actual,
             f"checksum mismatch in {path} "
             f"(stored {stored}, computed {actual})")

    num_vertices = int(data["num_vertices"])
    _require(num_vertices >= 0, "negative vertex count")
    _require("graph_mode" in data, "missing graph payload mode")
    mode = str(data["graph_mode"])
    if mode == "inline":
        for name in _GRAPH_ARRAYS:
            _require(name in data, f"inline payload is missing {name}")
        _verify_canonical_arrays(data, num_vertices)
    elif mode == "manifest":
        _require("store_manifest" in data,
                 "manifest payload has no store reference")
        reference = _parse_store_manifest(str(data["store_manifest"]))
        _require(int(reference.get("num_vertices", -1)) == num_vertices,
                 "store manifest vertex count does not match payload")
    else:
        raise ValueError(
            f"corrupt checkpoint: unknown graph payload mode {mode!r}"
        )
    values = data["values"]
    _require(values.shape[0] == num_vertices if values.ndim else False,
             f"values length {values.shape} != num_vertices "
             f"{num_vertices}")
    _require(data["prev_values"].shape == values.shape,
             "prev_values shape does not match values")
    _require(data["aggregate"].shape[0] == num_vertices
             if data["aggregate"].ndim else False,
             "aggregate length != num_vertices")
    _check_index_array("frontier", data["frontier"], num_vertices)
    _require(int(data["iteration"]) >= 0, "negative iteration")
    _require(data["hist_initial"].shape == values.shape,
             "history initial values shape does not match values")
    hist_len = int(data["hist_len"])
    _require(hist_len >= 0, "negative history length")
    for index in range(hist_len):
        for part in ("g_idx", "g_values", "c_idx", "c_values"):
            _require(f"rec_{index}_{part}" in data,
                     f"history record {index} is missing {part}")
        g_idx = data[f"rec_{index}_g_idx"]
        c_idx = data[f"rec_{index}_c_idx"]
        _check_index_array(f"rec_{index}_g_idx", g_idx, num_vertices)
        _check_index_array(f"rec_{index}_c_idx", c_idx, num_vertices)
        _require(data[f"rec_{index}_g_values"].shape[0] == g_idx.size,
                 f"history record {index} aggregate values do not "
                 f"match indices")
        _require(data[f"rec_{index}_c_values"].shape[0] == c_idx.size,
                 f"history record {index} vertex values do not "
                 f"match indices")
    return reference


def _restore_graph(data, reference: Optional[dict],
                   store_root: Optional[str],
                   store_label: Optional[str]) -> CSRGraph:
    """Rebuild the snapshot from either payload mode, with zero sorts."""
    if reference is not None:
        return open_snapshot_reference(reference, store_root=store_root,
                                       label=store_label)
    return CSRGraph.from_canonical(
        int(data["num_vertices"]),
        *(np.ascontiguousarray(data[name]) for name in _GRAPH_ARRAYS),
    )


def load_engine(
    path: str,
    algorithm: IncrementalAlgorithm,
    pruning: Optional[PruningPolicy] = None,
    store_root: Optional[str] = None,
    store_label: Optional[str] = None,
    **engine_kwargs,
) -> GraphBoltEngine:
    """Reconstruct an engine from a checkpoint.

    ``algorithm`` must be configured identically to the one that was
    checkpointed (same class, shapes and aggregation); a fingerprint
    mismatch raises ``ValueError`` rather than corrupting results.  The
    payload checksum and array shapes/ranges are verified first, so a
    corrupted file fails loudly.

    ``store_root`` only matters for manifest-mode checkpoints: it
    overrides the snapshot-store root recorded at save time (replicas
    restore from their own spool directory, not the writer's), and
    ``store_label`` names that spool when this restore creates it.
    """
    with _checkpoint_data(path) as data:
        reference = _verify_payload(data, path)
        stored = str(data["fingerprint"])
        actual = _fingerprint(algorithm)
        if stored != actual:
            raise ValueError(
                f"algorithm mismatch: checkpoint was {stored!r}, "
                f"got {actual!r}"
            )
        graph = _restore_graph(data, reference, store_root, store_label)
        engine = GraphBoltEngine(
            algorithm,
            num_iterations=int(data["num_iterations"]),
            until_convergence=bool(data["until_convergence"]),
            pruning=pruning,
            **engine_kwargs,
        )
        engine._streaming = StreamingGraph(graph)
        engine._state = DeltaState(
            values=data["values"].copy(),
            prev_values=data["prev_values"].copy(),
            aggregate=data["aggregate"].copy(),
            frontier=data["frontier"].copy(),
            iteration=int(data["iteration"]),
        )
        history = DependencyHistory(data["hist_initial"],
                                    data["hist_identity"])
        for index in range(int(data["hist_len"])):
            history.record(
                data[f"rec_{index}_g_idx"],
                data[f"rec_{index}_g_values"],
                data[f"rec_{index}_c_idx"],
                data[f"rec_{index}_c_values"],
            )
        engine._history = history
        return engine


def read_store_manifest(path: str) -> Optional[dict]:
    """The store manifest reference a checkpoint records, or ``None``.

    Replication uses this to discover which snapshot-store segment
    files a manifest-mode checkpoint depends on, so they can be
    shipped to replicas ahead of the checkpoint itself."""
    with _checkpoint_data(path) as data:
        return _verify_payload(data, path)


def read_checkpoint_extra(path: str) -> Dict[str, np.ndarray]:
    """Checksum-verified ``extra`` metadata stored by :func:`save_engine`."""
    with _checkpoint_data(path) as data:
        _verify_payload(data, path)
        return {
            key[len(_EXTRA_PREFIX):]: data[key]
            for key in data.files if key.startswith(_EXTRA_PREFIX)
        }
