"""Pluggable snapshot storage for CSR graph snapshots.

A :class:`SnapshotStore` decides where the six canonical arrays of a
:class:`~repro.graph.csr.CSRGraph` snapshot live:

- :class:`HeapStore` -- plain heap ``ndarray``s, today's behaviour and
  the default.  ``publish`` is the identity; nothing touches disk.
- :class:`MmapStore` -- sealed generations persisted to a spool
  directory in a versioned, CRC-guarded binary layout and reopened as
  read-only ``np.memmap`` views; an adjusted generation stays in heap
  until a seal writes it.  The engines, ``PartitionedCSR`` and the
  dataflow layer run unmodified over either because the
  :class:`CSRGraph` slice API is unchanged; of a mapped generation only
  the pages an engine actually touches are resident.

On-disk layout of an :class:`MmapStore` root::

    manifest.json                      atomically-replaced JSON index
    <label>-g000000-out_offsets.seg    one segment file per array per
    <label>-g000000-out_targets.seg    sealed snapshot generation
    ...

Each ``.seg`` file is a 64-byte header (magic+version, dtype code,
element count, CRC32 of the payload) followed by the raw little-endian
array payload.  Segment files are written once, by a seal, and never
change after their rename.

An adjusted generation starts **unsealed**: :meth:`SnapshotStore.adjust`
splices it in heap exactly as :class:`HeapStore` does, and the store
only mints its snapshot id and holds its graph.  No file exists for it
(``segment_files`` is ``[]``) and ``manifest.json`` does not name it.
:meth:`MmapStore.seal` writes its six segment files -- each payload's
CRC computed from memory as it is written, header, file fsync, rename
-- then fsyncs the directory and replaces the manifest once with the
entry (and the namer's pin) in it, exactly when something durable or
remote is about to name it: ``publish`` (bootstrap graphs),
``manifest_entry`` (*before* the checkpoint that embeds it is written),
``alias_snapshot`` (the replica's CRC then witnesses the bytes its own
replay produced) and ``verify``.  Sealed, the graph reads its arrays
from those files, like any sealed generation, and its heap copies go
once nothing else holds them.  So the on-disk state is the last
sealed generation plus the WAL tail: durability of an acknowledged
batch is the WAL's fsync, and a restart opens the generation its newest
checkpoint pins and replays the tail -- *pinned => sealed => survives
power loss*.  A kill inside a seal (``storage.segment_write`` before a
file's header, ``storage.seal`` before its fsync and before the
manifest replace) or between a seal and its checkpoint leaves an
on-disk manifest that names sealed files only, plus temps or unnamed
files the next ``compact()`` reaps -- the storage crash sweep's rows.
The out-of-core build (:meth:`SnapshotStore.writer`: the xl generator)
streams its chunks straight into segment files and ``publish``
registers them sealed.

Generations no longer referenced by a live graph, the ``current``
pointer (the newest generation; null on disk while that is unsealed)
or a checkpoint pin are *tombstoned*; :meth:`MmapStore.compact` (run
opportunistically after each release) drops an unsealed one from
memory and deletes a sealed one's files -- those no surviving entry
still names: an *alias* entry (:meth:`MmapStore.alias_snapshot`, a
checkpoint's snapshot id bound to a generation the spool already holds)
shares its generation's files -- rewriting the manifest only when a
sealed entry went.  POSIX keeps open ``np.memmap`` views valid even
after the backing file is unlinked, so compaction never races a reader
-- not even the next adjustment, which reads a published generation
through its mapping after a second :class:`MmapStore` on the root
(every checkpoint restore makes one) may have unlinked its files.

A store is chosen by a ``heap`` / ``mmap[:dir]`` spec
(:func:`store_from_spec`): ``--snapshot-store`` on ``repro run`` /
``repro serve``, and the ``storage`` axis of an experiment matrix.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import weakref
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.splice import AppliedBatch, splice, spliced_offsets
from repro.obs import trace
from repro.obs.registry import get_registry

__all__ = [
    "ARRAY_NAMES",
    "HeapStore",
    "MmapStore",
    "SnapshotStore",
    "StoreError",
    "atomic_write",
    "open_snapshot_reference",
    "store_from_spec",
    "verify_segment_blob",
    "verify_segment_file",
]

#: The six canonical arrays of a CSR+CSC snapshot, in manifest order.
ARRAY_NAMES = (
    "out_offsets",
    "out_targets",
    "out_weights",
    "in_offsets",
    "in_sources",
    "in_weights",
)

ARRAY_DTYPES = {
    "out_offsets": "<i8",
    "out_targets": "<i8",
    "out_weights": "<f8",
    "in_offsets": "<i8",
    "in_sources": "<i8",
    "in_weights": "<f8",
}

_MAGIC = b"RSSEG001"
_HEADER_SIZE = 64
_HEADER = struct.Struct("<8s8sQI")  # magic, dtype code, count, crc32
#: What a segment may hold: the snapshot arrays' two, plus raw bytes (a
#: checkpoint's JSON index is framed as a segment like its arrays).
_SEGMENT_DTYPES = ("<i8", "<f8", "|u1")
_MANIFEST_VERSION = 1
_MANIFEST_NAME = "manifest.json"


class StoreError(ValueError):
    """A snapshot store's on-disk state failed validation."""


def _fsync_directory(path: str) -> None:
    """Make the renames and creations inside ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str, data, fsync: bool = False) -> None:
    """Replace ``path`` with ``data`` -- ``bytes``, ``str`` (as UTF-8),
    or an iterable of buffers written back to back without being joined
    -- through a temp file in its directory + ``os.replace``: a reader
    sees the old content or the new, never a torn write, and a failed
    write leaves no temp file behind.  ``fsync`` syncs the file before
    the rename and the directory after it, so the new name survives
    power loss too."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = (data,)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as stream:
            stream.writelines(data)
            if fsync:
                stream.flush()
                os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    if fsync:
        _fsync_directory(directory)


# ----------------------------------------------------------------------
# Base interface
# ----------------------------------------------------------------------
class SnapshotStore:
    """Where the canonical arrays of CSR snapshots live."""

    kind: str = "abstract"

    def writer(self) -> "_SnapshotWriter":
        """An incremental writer: append canonical-array chunks in
        order, then ``commit(num_vertices)`` to obtain the graph.
        Streaming producers (the xl RMAT generator) use this so the
        full edge list never exists in heap at once."""
        raise NotImplementedError

    def publish(self, graph: CSRGraph) -> CSRGraph:
        """Persist ``graph``'s arrays into the store and return the
        store-backed equivalent (identity for :class:`HeapStore`)."""
        raise NotImplementedError

    def release(self, graph: CSRGraph) -> None:
        """Drop the live reference a graph holds on its snapshot."""

    def adjust(
        self,
        old: CSRGraph,
        num_vertices: int,
        add_src: np.ndarray,
        add_dst: np.ndarray,
        add_weight: np.ndarray,
        del_src: np.ndarray,
        del_dst: np.ndarray,
    ) -> Tuple[CSRGraph, np.ndarray]:
        """Build the post-batch snapshot and return it with the CSR
        slot of every added edge in it.

        One :func:`~repro.graph.splice.splice` per direction into heap
        arrays, whatever the store: each edge array arrives as a few
        bounded chunks of ``old``'s untouched runs and the additions, so
        no full edge list, mask or key array is ever built and the
        arrays come out exactly as the :class:`CSRGraph` constructor
        would order ``survivors ++ additions``.  The store then takes
        the graph as its next generation (:meth:`_hold`).

        The in-direction's offsets are written at once
        (:func:`~repro.graph.splice.spliced_offsets`); its neighbour
        and weight arrays are deferred
        (:class:`~repro.graph.splice.InEdges`) and spliced here only
        when ``old``'s were read -- an algorithm that pulls over
        in-edges reads every snapshot's -- or once the backlog holds as
        many mutations as its base has edges.  Otherwise the first
        read, or a seal, splices them.
        """
        in_edges = old._in.then(AppliedBatch(
            num_vertices, add_src, add_dst, add_weight, del_src, del_dst))
        writer = _HeapWriter()
        added_slots = splice(
            writer, ("out_offsets", "out_targets", "out_weights"),
            num_vertices,
            old.out_offsets, old.out_targets, old.out_weights,
            add_src, add_dst, add_weight, del_src, del_dst,
        )
        writer.append("in_offsets", spliced_offsets(
            old.in_offsets, num_vertices, add_dst, del_dst))
        graph = self._hold(writer.commit(num_vertices, in_edges))
        if old._in.read or in_edges.due():
            in_edges.arrays()
        return graph, added_slots

    def _hold(self, graph: CSRGraph) -> CSRGraph:
        """Take an adjusted heap graph as this store's next snapshot."""
        return graph

    def describe(self) -> str:
        return self.kind


class HeapStore(SnapshotStore):
    """Today's behaviour: snapshots are plain heap arrays."""

    kind = "heap"

    def writer(self) -> "_HeapWriter":
        return _HeapWriter()

    def publish(self, graph: CSRGraph) -> CSRGraph:
        return graph


class _SnapshotWriter:
    def append(self, name: str, chunk: np.ndarray) -> None:
        raise NotImplementedError

    def commit(self, num_vertices: int) -> CSRGraph:
        """The graph of the six appended arrays."""
        raise NotImplementedError

    def abort(self) -> None:
        """Discard partial output (no-op after commit)."""


class _HeapWriter(_SnapshotWriter):
    """Assemble plain arrays in heap.

    An edge array whose direction's offsets came first, as
    :func:`~repro.graph.splice.splice` emits them, knows its length: if
    its first chunk falls short of it, the array is allocated once and
    every chunk is copied into place, so it is never held twice.  A
    chunk that is a whole array is kept as is; other chunks are joined
    at commit.
    """

    def __init__(self) -> None:
        self._chunks: Dict[str, List[np.ndarray]] = {
            name: [] for name in ARRAY_NAMES
        }
        self._sizes: Dict[str, int] = {}
        self._filled: Dict[str, Tuple[np.ndarray, int]] = {}

    def append(self, name: str, chunk: np.ndarray) -> None:
        chunk = np.ascontiguousarray(chunk, dtype=ARRAY_DTYPES[name])
        size = self._sizes.pop(name, chunk.size)
        if name in self._filled or chunk.size < size:
            array, count = self._filled.get(
                name, (np.empty(size, chunk.dtype), 0))
            array[count:count + chunk.size] = chunk
            self._filled[name] = array, count + chunk.size
            return
        self._chunks[name].append(chunk)
        if name.endswith("_offsets") and chunk.size:
            first = ARRAY_NAMES.index(name) + 1
            for edges in ARRAY_NAMES[first:first + 2]:
                if not self._chunks[edges]:
                    self._sizes[edges] = int(chunk[-1])

    def _array(self, name: str) -> np.ndarray:
        chunks = self._chunks[name]
        if name in self._filled:  # a short fill fails from_canonical
            array, count = self._filled[name]
            return array[:count]
        if len(chunks) == 1:
            return chunks[0]
        return (np.concatenate(chunks) if chunks
                else np.empty(0, dtype=np.dtype(ARRAY_DTYPES[name])))

    def commit(self, num_vertices: int, in_edges=None) -> CSRGraph:
        """The graph of the appended arrays: all six, or the
        out-direction and ``in_offsets`` under a deferred
        ``in_edges``."""
        names = ARRAY_NAMES if in_edges is None else ARRAY_NAMES[:4]
        arrays = {name: self._array(name) for name in names}
        self._chunks = {name: [] for name in ARRAY_NAMES}
        self._sizes, self._filled = {}, {}
        return CSRGraph.from_canonical(num_vertices, in_edges=in_edges,
                                       **arrays)

    def in_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(in_offsets, in_sources, in_weights)`` of an in-direction
        splice run."""
        return tuple(self._array(name) for name in ARRAY_NAMES[3:])


# ----------------------------------------------------------------------
# Segment files
# ----------------------------------------------------------------------
def _pack_header(dtype: str, count: int, crc: int) -> bytes:
    header = _HEADER.pack(_MAGIC, dtype.encode("ascii").ljust(8, b"\0"),
                          count, crc & 0xFFFFFFFF)
    return header.ljust(_HEADER_SIZE, b"\0")


def _parse_header(raw, context: str, size: int) -> Tuple[str, int, int]:
    """``(dtype, count, crc32)`` of the ``size``-byte segment image that
    starts with ``raw``, after structural validation."""
    if len(raw) < _HEADER_SIZE:
        raise StoreError(f"segment {context} truncated before header end")
    magic, dtype_raw, count, crc = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise StoreError(f"segment {context} has bad magic {magic!r}")
    dtype = dtype_raw.rstrip(b"\0").decode("ascii", errors="replace")
    if dtype not in _SEGMENT_DTYPES:
        raise StoreError(f"segment {context} has unknown dtype {dtype!r}")
    if raw[:_HEADER_SIZE] != _pack_header(dtype, count, crc):
        raise StoreError(f"segment {context} has a non-canonical header")
    expected = _HEADER_SIZE + count * np.dtype(dtype).itemsize
    if size != expected:
        raise StoreError(
            f"segment {context}: size {size} != expected {expected}"
        )
    return dtype, int(count), int(crc)


def _read_header(path: str) -> Tuple[str, int, int]:
    """Return ``(dtype, count, crc32)`` after structural validation."""
    try:
        with open(path, "rb") as stream:
            raw = stream.read(_HEADER_SIZE)
    except OSError as exc:
        raise StoreError(f"unreadable segment {path}: {exc}") from exc
    return _parse_header(raw, path, os.path.getsize(path))


def _payload_crc32(stream) -> int:
    """CRC32 of everything after the header of an open segment file."""
    stream.seek(_HEADER_SIZE)
    crc = 0
    while True:
        block = stream.read(1 << 20)
        if not block:
            return crc & 0xFFFFFFFF
        crc = zlib.crc32(block, crc)


def verify_segment_file(path: str) -> Tuple[str, int, int]:
    """Header + full payload-CRC check of one ``.seg`` file.

    Returns ``(dtype, count, crc32)`` on success; raises
    :class:`StoreError` on structural damage or payload bit-rot.  This
    is the primitive the integrity scrubber and the replica receive
    path share with :meth:`MmapStore.verify`.
    """
    dtype, count, crc = _read_header(path)
    with open(path, "rb") as stream:
        if _payload_crc32(stream) != crc:
            raise StoreError(f"segment {path} payload CRC mismatch")
    return dtype, count, crc


def verify_segment_blob(blob, context: str = "<blob>"
                        ) -> Tuple[str, int, int]:
    """Like :func:`verify_segment_file` for an in-memory segment image
    (a shipped store-segment payload that has not touched disk yet, or
    one member of a checkpoint: any buffer, sliced without a copy)."""
    header = _parse_header(blob, context, len(blob))
    if zlib.crc32(blob[_HEADER_SIZE:]) & 0xFFFFFFFF != header[2]:
        raise StoreError(f"segment {context} payload CRC mismatch")
    return header


class _SegmentFile:
    """One array's segment file under construction.

    Unbuffered and written at explicit offsets (the payload position
    is ``count``): one ``pwrite`` per appended chunk, whose CRC is
    folded in as it goes, then the header, an fsync and the rename.
    """

    def __init__(self, root: str, name: str) -> None:
        self.name = name
        self.dtype = np.dtype(ARRAY_DTYPES[name])
        fd, self.tmp_path = tempfile.mkstemp(
            prefix=f".{name}-", suffix=".tmp", dir=root
        )
        self._stream = os.fdopen(fd, "wb", buffering=0)
        self.count = 0
        self.crc = 0

    def _position(self) -> int:
        return _HEADER_SIZE + self.count * self.dtype.itemsize

    def _write(self, data, position: int) -> None:
        view = memoryview(data)
        while view:
            written = os.pwrite(self._stream.fileno(), view, position)
            view, position = view[written:], position + written

    def append(self, chunk: np.ndarray) -> None:
        chunk = np.ascontiguousarray(chunk, dtype=self.dtype)
        if chunk.size:
            data = chunk.reshape(-1).view(np.uint8)
            self.crc = zlib.crc32(data, self.crc)
            self._write(data, self._position())
            self.count += int(chunk.size)

    def finalize(self, final_path: str) -> None:
        # Imported here, not at module top: the graph layer sits below
        # repro.testing in the import graph (testing's oracle pulls in
        # every engine, which pulls this package back in).
        from repro.testing import faults

        fd = self._stream.fileno()
        # The failpoints sit after the payload: a crash at the first
        # leaves a torn temp file (payload without a header, never
        # renamed), at the second a whole one never synced or renamed
        # -- the artifacts a real mid-seal kill leaves.  A corrupt plan
        # flips one payload byte *after* the CRC was computed: planted
        # bit-rot the header cannot see, which only a payload re-read
        # (scrub/verify) can detect.
        if faults.hit_corruptible("storage.segment_write") and self.count:
            offset = _HEADER_SIZE + self.count * self.dtype.itemsize // 2
            os.pwrite(fd, bytes([os.pread(fd, 1, offset)[0] ^ 0x01]),
                      offset)
        self._write(_pack_header(self.dtype.str, self.count, self.crc), 0)
        faults.hit("storage.seal")
        os.fsync(fd)
        self._stream.close()
        os.replace(self.tmp_path, final_path)

    def discard(self) -> None:
        try:
            self._stream.close()
        except OSError:
            pass
        try:
            os.unlink(self.tmp_path)
        except OSError:
            pass


def _map_payload(path: str, dtype: np.dtype, count: int) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="r", offset=_HEADER_SIZE,
                     shape=(count,))


class _MmapWriter(_SnapshotWriter):
    """Stream one generation's arrays into segment files, then register
    it sealed (the out-of-core build; :meth:`MmapStore.publish` then
    writes the manifest)."""

    def __init__(self, store: "MmapStore") -> None:
        self._store = store
        self._segments: Dict[str, _SegmentFile] = {}
        self._done = False

    def _segment(self, name: str) -> _SegmentFile:
        if name not in self._segments:
            self._segments[name] = _SegmentFile(self._store.root, name)
        return self._segments[name]

    def append(self, name: str, chunk: np.ndarray) -> None:
        self._segment(name).append(chunk)

    def commit(self, num_vertices: int) -> CSRGraph:
        if self._done:
            raise RuntimeError("writer already committed")
        segments = {name: self._segment(name) for name in ARRAY_NAMES}
        edge_count = segments["out_targets"].count
        for name in ("out_weights", "in_sources", "in_weights"):
            if segments[name].count != edge_count:
                raise StoreError(
                    f"array {name} has {segments[name].count} "
                    f"elements, expected {edge_count}"
                )
        snapshot_id = self._store._mint_snapshot_id()
        try:
            self._store._seal_segments(snapshot_id, num_vertices,
                                       segments.values())
        except Exception:
            # Ordinary failures tidy the temp files; an InjectedCrash
            # (BaseException) deliberately does not -- a killed process
            # leaves its torn temps behind, and the storage crash
            # sweep asserts the store survives them.
            self.abort()
            raise
        self._done = True
        self._store._manifest["current"] = snapshot_id
        return self._store.open_snapshot(snapshot_id)

    def abort(self) -> None:
        if self._done:
            return
        for segment in self._segments.values():
            segment.discard()
        self._done = True


# ----------------------------------------------------------------------
# MmapStore
# ----------------------------------------------------------------------
class MmapStore(SnapshotStore):
    """Snapshots spooled to disk and reopened as ``np.memmap`` views.

    Parameters
    ----------
    root:
        Spool directory (created if missing).  One store per
        directory; the manifest and all segment files live here.
    label:
        Prefix for snapshot ids and file names minted by *this* store.
        Replicas use their own label so snapshots adopted from a
        writer's checkpoint manifest never collide with the replica's
        own generations in the same root.  A spool keeps the label it
        was first written under (the manifest records it), so a
        reopened or promoted spool goes on minting under its own name.
    """

    kind = "mmap"

    def __init__(self, root: str, label: str = "snap") -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        if not label or any(ch in label for ch in "/\\ \t\n"):
            raise ValueError(f"invalid store label {label!r}")
        self._live: Dict[str, int] = {}
        #: Adjusted generations no seal has written yet: their graphs.
        self._unsealed: Dict[str, "weakref.ref[CSRGraph]"] = {}
        #: Sealed entries or pins the on-disk manifest does not hold yet.
        self._unwritten = False
        self._manifest = self._read_manifest()
        self.label = self._manifest.setdefault("label", label)

    # -- manifest ------------------------------------------------------
    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.root, _MANIFEST_NAME)

    def _read_manifest(self) -> dict:
        if not os.path.exists(self._manifest_path):
            return {
                "version": _MANIFEST_VERSION,
                "generation": 0,
                "current": None,
                "snapshots": {},
                "pins": {},
            }
        try:
            with open(self._manifest_path, "r", encoding="utf-8") as stream:
                manifest = json.load(stream)
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(
                f"unreadable store manifest {self._manifest_path}: {exc}"
            ) from exc
        if manifest.get("version") != _MANIFEST_VERSION:
            raise StoreError(
                f"store manifest version {manifest.get('version')!r} "
                f"!= {_MANIFEST_VERSION}"
            )
        return manifest

    def _write_manifest(self) -> None:
        """Persist the table: it names sealed generations only, whose
        files were fsynced first, and no ``current`` while that is
        unsealed."""
        current = self.current_snapshot
        atomic_write(
            self._manifest_path,
            json.dumps({**self._manifest, "current": (
                current if current in self._manifest["snapshots"]
                else None)}, indent=1, sort_keys=True),
            fsync=True,
        )
        self._unwritten = False

    # -- snapshot ids --------------------------------------------------
    def _mint_snapshot_id(self) -> str:
        generation = int(self._manifest["generation"])
        self._manifest["generation"] = generation + 1
        return f"{self.label}-g{generation:06d}"

    def snapshot_ids(self) -> List[str]:
        """Every generation this store holds, unsealed ones included
        (``manifest.json`` lists the sealed subset)."""
        return sorted([*self._manifest["snapshots"], *self._unsealed])

    @property
    def current_snapshot(self) -> Optional[str]:
        return self._manifest.get("current")

    # -- publish / open ------------------------------------------------
    def writer(self) -> _MmapWriter:
        return _MmapWriter(self)

    def publish(self, graph: CSRGraph) -> CSRGraph:
        """Persist ``graph`` (unless this store already holds it) and
        seal it: durable, and what a fresh store reopens as current."""
        if getattr(graph, "store", None) is not self:
            writer = self.writer()
            for name, array in graph.canonical_arrays().items():
                writer.append(name, array)
            graph = writer.commit(graph.num_vertices)
        self.seal(graph.snapshot_id)
        return graph

    def _hold(self, graph: CSRGraph) -> CSRGraph:
        """Mint an id for an adjusted heap graph and hold it unsealed,
        as the current generation: nothing is written."""
        snapshot_id = self._mint_snapshot_id()
        # Weakly: a strong reference would close a cycle (graph.store ->
        # store -> graph) that keeps a dropped store's generations in
        # heap until the cycle collector runs -- after every writer kill.
        self._unsealed[snapshot_id] = weakref.ref(graph)
        graph.store, graph.snapshot_id = self, snapshot_id
        self._manifest["current"] = snapshot_id
        self._live[snapshot_id] = self._live.get(snapshot_id, 0) + 1
        return graph

    def seal(self, snapshot_id: str, owner: Optional[str] = None) -> None:
        """Write an unsealed generation's segment files, durable and
        CRC-guarded (no-op on a sealed one), before anything durable or
        remote names it.

        ``owner`` -- the checkpoint path about to name the generation --
        is recorded as a *pin* by the same manifest replace: the files
        are kept for as long as the file at ``owner`` exists
        (self-expiring, so checkpoint rotation needs no store hook).
        The pin is written before that file exists -- safe, because the
        generation is live until the checkpoint lands, and a pin whose
        owner never appears (a kill in between) expires by itself in
        :meth:`_retained`."""
        self._seal_files(snapshot_id)
        if owner is not None:
            owners = self._manifest["pins"].setdefault(snapshot_id, [])
            owner = os.path.abspath(owner)
            if owner not in owners:
                owners.append(owner)
                self._unwritten = True
        if self._unwritten:
            self._write_manifest()

    def _seal_files(self, snapshot_id: str) -> None:
        """The file half of a seal: the six arrays written from memory
        (a deferred in-direction spliced first), then served from the
        files like any sealed generation's, so the heap copies go once
        nothing else holds them; the manifest is the caller's to
        replace."""
        if snapshot_id in self._manifest["snapshots"]:
            return
        graph = self._unsealed[snapshot_id]()
        if graph is None:
            raise StoreError(f"generation {snapshot_id!r} was dropped "
                             "before a seal wrote it")
        arrays = graph.canonical_arrays()

        def written(name: str) -> _SegmentFile:
            segment = _SegmentFile(self.root, name)
            segment.append(arrays[name])
            return segment

        self._seal_segments(snapshot_id, graph.num_vertices,
                            map(written, ARRAY_NAMES))
        del self._unsealed[snapshot_id]
        graph._serve_from({
            name: self._open_array(meta) for name, meta
            in self._manifest["snapshots"][snapshot_id]["arrays"].items()})

    def _seal_segments(self, snapshot_id: str, num_vertices: int,
                       segments) -> None:
        """Finalize ``segments`` (one per array, in manifest order) as
        the sealed generation ``snapshot_id``: each file renamed after
        its CRC header and fsync, then the directory fsynced; the entry
        joins the in-memory table."""
        from repro.testing import faults  # see _SegmentFile.finalize

        arrays, written = {}, 0
        with trace.span("store.seal", snapshot=snapshot_id) as span:
            for segment in segments:
                file_name = f"{snapshot_id}-{segment.name}.seg"
                segment.finalize(os.path.join(self.root, file_name))
                arrays[segment.name] = {
                    "file": file_name, "dtype": segment.dtype.str,
                    "count": segment.count, "crc32": segment.crc,
                }
                written += segment.count * segment.dtype.itemsize
            _fsync_directory(self.root)
            # A kill here leaves six sealed files no manifest names.
            faults.hit("storage.seal")
            span.tag(bytes_written=written, fsyncs=len(ARRAY_NAMES) + 3)
        self._manifest["snapshots"][snapshot_id] = {
            "num_vertices": int(num_vertices), "arrays": arrays}
        self._unwritten = True
        get_registry().counter("store.generations_sealed").inc()

    def _open_array(self, meta: dict, verify: bool = False) -> np.ndarray:
        path = os.path.join(self.root, meta["file"])
        dtype, count, crc = (verify_segment_file if verify
                             else _read_header)(path)
        if dtype != meta["dtype"] or count != int(meta["count"]):
            raise StoreError(
                f"segment {path} header disagrees with manifest "
                f"({dtype},{count}) != ({meta['dtype']},{meta['count']})"
            )
        if crc != int(meta["crc32"]):
            raise StoreError(f"segment {path} CRC header/manifest mismatch")
        return _map_payload(path, np.dtype(dtype), count)

    def open_snapshot(self, snapshot_id: Optional[str] = None) -> CSRGraph:
        """Open a snapshot (default: current) as a store-backed graph."""
        snapshot_id = snapshot_id or self.current_snapshot
        if snapshot_id is None:
            raise StoreError(f"store {self.root} holds no snapshots")
        try:
            entry = self._manifest["snapshots"][snapshot_id]
        except KeyError:
            raise StoreError(
                f"unknown snapshot {snapshot_id!r} in store {self.root}"
            ) from None
        arrays = {name: self._open_array(meta)
                  for name, meta in entry["arrays"].items()}
        graph = CSRGraph.from_canonical(
            int(entry["num_vertices"]), store=self,
            snapshot_id=snapshot_id, **arrays,
        )
        self._live[snapshot_id] = self._live.get(snapshot_id, 0) + 1
        return graph

    def verify(self, snapshot_id: Optional[str] = None) -> None:
        """Full payload-CRC verification of one snapshot (default:
        current), sealing it first if it was unsealed.  Raises
        :class:`StoreError` on any mismatch."""
        snapshot_id = snapshot_id or self.current_snapshot
        if snapshot_id is None:
            raise StoreError(f"store {self.root} holds no snapshots")
        self.seal(snapshot_id)
        entry = self._manifest["snapshots"][snapshot_id]
        for name in ARRAY_NAMES:
            self._open_array(entry["arrays"][name], verify=True)

    # -- reference counting / pins / compaction ------------------------
    def release(self, graph: CSRGraph) -> None:
        snapshot_id = getattr(graph, "snapshot_id", None)
        if snapshot_id is None:
            return
        count = self._live.get(snapshot_id, 0)
        if count <= 1:
            self._live.pop(snapshot_id, None)
        else:
            self._live[snapshot_id] = count - 1
        self.compact()

    def _retained(self) -> set:
        keep = set(self._live)
        if self.current_snapshot is not None:
            keep.add(self.current_snapshot)
        for snapshot_id, owners in self._manifest["pins"].items():
            if any(os.path.exists(owner) for owner in owners):
                keep.add(snapshot_id)
        return keep

    def compact(self) -> List[str]:
        """Delete tombstoned generations and stray temp files.

        A generation is tombstoned when no live graph references it,
        it is not the manifest's ``current``, and no pin with a
        still-existing owner file protects it.  Dropping an unsealed
        generation only lets go of its graph; the manifest is rewritten
        when a sealed one goes.  Returns the deleted snapshot ids.
        """
        keep = self._retained()
        doomed = [sid for sid in self.snapshot_ids() if sid not in keep]
        doomed_files = set()
        sealed = 0
        for snapshot_id in doomed:
            if self._unsealed.pop(snapshot_id, None) is not None:
                continue
            entry = self._manifest["snapshots"].pop(snapshot_id)
            self._manifest["pins"].pop(snapshot_id, None)
            doomed_files.update(meta["file"]
                                for meta in entry["arrays"].values())
            sealed += 1
        if sealed:
            stale_pins = [sid for sid in self._manifest["pins"]
                          if sid not in self._manifest["snapshots"]]
            for snapshot_id in stale_pins:
                del self._manifest["pins"][snapshot_id]
            self._write_manifest()
        get_registry().counter("store.generations_released_unsealed").inc(
            len(doomed) - sealed)
        # Files are reference-counted across entries: an alias keeps
        # the files of the generation it was bound to alive after that
        # generation's own entry is gone.
        referenced = set()
        for entry in self._manifest["snapshots"].values():
            for meta in entry["arrays"].values():
                referenced.add(meta["file"])
        for name in doomed_files - referenced:
            try:
                os.unlink(os.path.join(self.root, name))
            except OSError:
                pass
        # Sweep only files *this* store minted: foreign-label segments
        # may be mid-bootstrap shipments whose adopting checkpoint has
        # not arrived yet, so they are never reaped by name.
        own_prefix = f"{self.label}-g"
        for name in os.listdir(self.root):
            if name.endswith(".tmp") or (
                    name.endswith(".seg") and name.startswith(own_prefix)
                    and name not in referenced):
                try:
                    os.unlink(os.path.join(self.root, name))
                except OSError:
                    pass
        return doomed

    # -- checkpoint manifest references --------------------------------
    def manifest_entry(self, snapshot_id: str,
                       owner: Optional[str] = None) -> dict:
        """A self-contained JSON reference for checkpoints: enough to
        reopen the snapshot from this root (or a replica's copy).
        Sealed first -- and pinned for ``owner``, the checkpoint about
        to embed the reference, by the same manifest write: it needs
        the CRCs and must never name unsynced files."""
        self.seal(snapshot_id, owner)
        entry = self._manifest["snapshots"][snapshot_id]
        return {
            "kind": self.kind,
            "root": self.root,
            "label": self.label,
            "snapshot": snapshot_id,
            "num_vertices": int(entry["num_vertices"]),
            "arrays": {name: dict(meta)
                       for name, meta in entry["arrays"].items()},
        }

    def adopt_snapshot(self, reference: dict,
                       owner: Optional[str] = None) -> str:
        """Register a snapshot described by a checkpoint manifest
        reference whose segment files already sit in this root (e.g.
        shipped there by replication), pinned for the checkpoint at
        ``owner`` like one saved here.  Idempotent."""
        snapshot_id = reference["snapshot"]
        if snapshot_id not in self._manifest["snapshots"]:
            entry = {
                "num_vertices": int(reference["num_vertices"]),
                "arrays": {name: dict(meta)
                           for name, meta in reference["arrays"].items()},
            }
            for name in ARRAY_NAMES:
                if name not in entry["arrays"]:
                    raise StoreError(
                        f"manifest reference missing array {name!r}"
                    )
                # Header check up front: adopting a half-shipped
                # snapshot must fail loudly, not at first page fault.
                self._open_array(entry["arrays"][name])
            self._manifest["snapshots"][snapshot_id] = entry
            if self._manifest["current"] is None:
                self._manifest["current"] = snapshot_id
            self._unwritten = True
        self.seal(snapshot_id, owner)
        return snapshot_id

    def alias_snapshot(self, reference: dict, held: str,
                       owner: str) -> None:
        """Bind the snapshot a checkpoint's manifest reference names to
        generation ``held``, which this store already holds under its
        own id -- instead of receiving six files it can derive.

        A replica that replayed its way to the checkpoint's position
        holds the checkpoint's graph; the binding is made only after
        every array's ``dtype``, ``count`` and payload ``crc32`` in the
        reference equal the held generation's (:class:`StoreError`
        otherwise, no alias written); ``held`` is sealed first, so its
        CRCs are those of the bytes this store's own replay produced.
        The alias is an ordinary manifest entry over the held files,
        pinned by ``owner`` (the checkpoint path) like any checkpointed
        snapshot.
        """
        self._seal_files(held)
        entry = self._manifest["snapshots"][held]
        for name in ARRAY_NAMES:
            theirs, ours = reference["arrays"][name], entry["arrays"][name]
            for key in ("dtype", "count", "crc32"):
                if theirs[key] != ours[key]:
                    raise StoreError(
                        f"snapshot {reference['snapshot']!r} is not "
                        f"generation {held!r}: {name} {key} "
                        f"{theirs[key]!r} != {ours[key]!r}"
                    )
        self._manifest["snapshots"][reference["snapshot"]] = {
            "num_vertices": int(entry["num_vertices"]),
            "arrays": {name: dict(meta)
                       for name, meta in entry["arrays"].items()},
        }
        self._unwritten = True
        self.seal(reference["snapshot"], owner)  # the one manifest replace

    def segment_files(self, snapshot_id: str) -> List[str]:
        """File names (relative to root) backing one snapshot: its six
        segments once sealed, none while it is unsealed."""
        if snapshot_id in self._unsealed:
            return []
        arrays = self._manifest["snapshots"][snapshot_id]["arrays"]
        return [arrays[name]["file"] for name in ARRAY_NAMES]

    def describe(self) -> str:
        return f"mmap:{self.root}"


# ----------------------------------------------------------------------
# Checkpoint manifest references
# ----------------------------------------------------------------------
def open_snapshot_reference(reference: dict,
                            store_root: Optional[str] = None,
                            label: Optional[str] = None,
                            owner: Optional[str] = None) -> CSRGraph:
    """Reopen the snapshot a checkpoint's manifest reference names.

    ``store_root`` overrides the recorded root (a replica passes its
    own spool, where the writer's segment files were shipped); the
    snapshot is adopted into that root's manifest if absent, pinned for
    the checkpoint file at ``owner``, so later structure adjustments
    and compaction work locally.
    """
    if reference.get("kind") != "mmap":
        raise StoreError(
            f"unsupported store kind {reference.get('kind')!r}"
        )
    root = store_root or reference["root"]
    store = MmapStore(root, label=label or reference.get("label", "snap"))
    return store.open_snapshot(store.adopt_snapshot(reference, owner))


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def store_from_spec(spec: Optional[str],
                    default_root: Optional[str] = None) -> SnapshotStore:
    """Build a store from ``heap`` or ``mmap[:dir]``.

    ``mmap`` without a directory spools under ``default_root`` when
    given, else a fresh temporary directory.
    """
    spec = (spec or "heap").strip()
    kind, _, rest = spec.partition(":")
    if kind == "heap":
        if rest:
            raise ValueError(f"heap store takes no directory: {spec!r}")
        return HeapStore()
    if kind == "mmap":
        root = rest or default_root or tempfile.mkdtemp(
            prefix="repro-store-"
        )
        return MmapStore(root)
    raise ValueError(
        f"unknown snapshot store {spec!r} (choose heap or mmap[:dir])"
    )

