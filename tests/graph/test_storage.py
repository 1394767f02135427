"""Unit tests for the pluggable snapshot stores.

The contract under test: :class:`MmapStore` is a drop-in behind the
unchanged :class:`CSRGraph` slice API -- every array it serves is
bit-for-bit equal to the heap build it was published from, torn or
corrupted segments are detected by CRC/header checks, generation
lifecycle (live refs, pins, compaction) never deletes a reachable
snapshot, and an adjusted generation is held in memory (no file, not
in ``manifest.json``) until a seal writes it for something durable that
names it.
"""

import os
import stat

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat, rmat_streamed, rmat_xl
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.graph import generators, splice, storage
from repro.graph.storage import (
    ARRAY_NAMES,
    HeapStore,
    MmapStore,
    StoreError,
    atomic_write,
    store_from_spec,
)
from repro.testing.faults import scoped_failpoints
from tests.conftest import on_disk_snapshots


def small_graph(seed=3):
    return rmat(6, 4, seed=seed, weighted=True)


def mutate(streaming, step):
    return streaming.apply_batch(MutationBatch.from_edges(
        additions=[(step % 5, (step + 7) % 11)], deletions=[]))


class FsyncCounter:
    """Counts ``os.fsync`` calls by what the descriptor refers to."""

    def __init__(self, monkeypatch):
        self.files = self.directories = 0
        real = os.fsync

        def counting(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                self.directories += 1
            else:
                self.files += 1
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)


def assert_graphs_equal(left, right):
    assert left.num_vertices == right.num_vertices
    for name in ARRAY_NAMES:
        assert np.array_equal(np.asarray(getattr(left, name)),
                              np.asarray(getattr(right, name))), name


class TestHeapStore:
    def test_publish_is_identity_for_heap_graphs(self):
        graph = small_graph()
        store = HeapStore()
        assert store.publish(graph) is graph

    def test_writer_round_trip(self):
        graph = small_graph()
        store = HeapStore()
        writer = store.writer()
        for name in ARRAY_NAMES:
            writer.append(name, getattr(graph, name))
        rebuilt = writer.commit(graph.num_vertices)
        assert_graphs_equal(graph, rebuilt)

    def test_describe(self):
        assert HeapStore().describe() == "heap"


class TestMmapRoundTrip:
    def test_publish_serves_equal_memmap_views(self, tmp_path):
        graph = small_graph()
        store = MmapStore(str(tmp_path))
        published = store.publish(graph)
        assert_graphs_equal(graph, published)
        assert isinstance(published.out_targets, np.memmap)
        assert published.store is store
        assert published.snapshot_id == store.current_snapshot

    def test_reopen_from_fresh_store_object(self, tmp_path):
        graph = small_graph()
        MmapStore(str(tmp_path)).publish(graph)
        reopened = MmapStore(str(tmp_path)).open_snapshot()
        assert_graphs_equal(graph, reopened)

    def test_empty_graph_round_trips(self, tmp_path):
        graph = CSRGraph.from_edges([], num_vertices=4)
        published = MmapStore(str(tmp_path)).publish(graph)
        assert_graphs_equal(graph, published)

    def test_publish_same_snapshot_is_idempotent(self, tmp_path):
        store = MmapStore(str(tmp_path))
        published = store.publish(small_graph())
        assert store.publish(published) is published

    def test_engine_slice_api_unchanged(self, tmp_path):
        graph = small_graph()
        published = MmapStore(str(tmp_path)).publish(graph)
        for v in range(graph.num_vertices):
            assert np.array_equal(graph.out_neighbors(v),
                                  published.out_neighbors(v))
            assert np.array_equal(graph.in_neighbors(v),
                                  published.in_neighbors(v))


class TestIntegrity:
    def _segment_path(self, store, name="out_targets"):
        entry = store.manifest_entry(store.current_snapshot)
        return os.path.join(store.root, entry["arrays"][name]["file"])

    def test_verify_passes_on_clean_store(self, tmp_path):
        store = MmapStore(str(tmp_path))
        store.publish(small_graph())
        store.verify()

    def test_verify_detects_flipped_payload_byte(self, tmp_path):
        store = MmapStore(str(tmp_path))
        store.publish(small_graph())
        path = self._segment_path(store)
        with open(path, "r+b") as stream:
            stream.seek(-1, os.SEEK_END)
            byte = stream.read(1)
            stream.seek(-1, os.SEEK_END)
            stream.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(StoreError, match="CRC mismatch"):
            MmapStore(str(tmp_path)).verify()

    def test_open_detects_corrupt_header(self, tmp_path):
        store = MmapStore(str(tmp_path))
        store.publish(small_graph())
        path = self._segment_path(store)
        with open(path, "r+b") as stream:
            stream.write(b"XXXXXXXX")
        with pytest.raises(StoreError):
            MmapStore(str(tmp_path)).open_snapshot()

    def test_open_detects_truncated_segment(self, tmp_path):
        store = MmapStore(str(tmp_path))
        store.publish(small_graph())
        path = self._segment_path(store)
        os.truncate(path, os.path.getsize(path) - 8)
        with pytest.raises(StoreError):
            MmapStore(str(tmp_path)).open_snapshot()


class TestLifecycle:
    def test_retired_generations_are_compacted(self, tmp_path):
        store = MmapStore(str(tmp_path))
        streaming = StreamingGraph(store.publish(small_graph()))
        for step in range(4):
            mutate(streaming, step)
        # StreamingGraph holds only the current generation; every older
        # one is released and must be gone from the in-memory table and
        # from disk.  The on-disk manifest lost the published generation
        # with it and never listed the adjusted (unsealed) ones.
        assert store.snapshot_ids() == [streaming.graph.snapshot_id]
        assert on_disk_snapshots(tmp_path) == []
        on_disk = [f for f in os.listdir(str(tmp_path))
                   if f.endswith(".seg")]
        referenced = set()
        for sid in store.snapshot_ids():
            referenced.update(store.segment_files(sid))
        assert sorted(on_disk) == sorted(referenced)

    def test_pin_outlives_release_until_owner_vanishes(self, tmp_path):
        root = tmp_path / "store"
        owner = tmp_path / "checkpoint.json"
        owner.write_text("{}")
        store = MmapStore(str(root))
        published = store.publish(small_graph())
        pinned_id = published.snapshot_id
        store.seal(pinned_id, str(owner))
        streaming = StreamingGraph(published)
        for step in range(4):
            mutate(streaming, step)
        # In memory next to the live unsealed generation; alone in the
        # on-disk manifest.
        assert pinned_id in store.snapshot_ids()
        assert on_disk_snapshots(root) == [pinned_id]
        owner.unlink()
        store.compact()
        assert pinned_id not in store.snapshot_ids()
        assert on_disk_snapshots(root) == []


class TestAlias:
    """A checkpoint reference bound to a generation the store already
    holds: same bytes, no second copy, files outlive the generation's
    own entry for exactly as long as the pinning checkpoint exists."""

    def _writer_reference(self, tmp_path, graph):
        writer = MmapStore(str(tmp_path / "writer"))
        published = writer.publish(graph)
        return writer.manifest_entry(published.snapshot_id)

    def _replica(self, tmp_path, graph):
        store = MmapStore(str(tmp_path / "replica"), label="r0")
        return store, store.publish(graph)

    def test_alias_opens_the_held_generation_bit_for_bit(self, tmp_path):
        graph = small_graph()
        reference = self._writer_reference(tmp_path, graph)
        store, held = self._replica(tmp_path, graph)
        owner = tmp_path / "ckpt.ckpt"
        owner.write_text("")
        store.alias_snapshot(reference, held.snapshot_id, str(owner))
        assert reference["snapshot"] in store.snapshot_ids()
        assert (store.segment_files(reference["snapshot"])
                == store.segment_files(held.snapshot_id))
        store.verify(reference["snapshot"])
        # A fresh store object (a restarted replica) adopts the
        # reference as already present and serves the held files.
        reopened = MmapStore(str(tmp_path / "replica"))
        assert reopened.adopt_snapshot(reference) == reference["snapshot"]
        assert_graphs_equal(
            reopened.open_snapshot(reference["snapshot"]), graph)

    @pytest.mark.parametrize("key", ["dtype", "count", "crc32"])
    def test_a_disagreeing_array_is_refused_and_nothing_written(
            self, tmp_path, key):
        graph = small_graph()
        reference = self._writer_reference(tmp_path, graph)
        store, held = self._replica(tmp_path, graph)
        meta = reference["arrays"]["in_sources"]
        meta[key] = "<f8" if key == "dtype" else meta[key] + 1
        with pytest.raises(StoreError, match="in_sources " + key):
            store.alias_snapshot(reference, held.snapshot_id, "owner")
        # Neither the in-memory table nor the on-disk manifest (which
        # a fresh store object reads) gained the alias.
        assert store.snapshot_ids() == [held.snapshot_id]
        assert MmapStore(str(tmp_path / "replica")).snapshot_ids() == [
            held.snapshot_id]

    def test_compact_keeps_aliased_files_until_the_pin_expires(
            self, tmp_path):
        graph = small_graph()
        reference = self._writer_reference(tmp_path, graph)
        store, held = self._replica(tmp_path, graph)
        owner = tmp_path / "ckpt.ckpt"
        owner.write_text("")
        store.alias_snapshot(reference, held.snapshot_id, str(owner))
        held_id = held.snapshot_id
        files = store.segment_files(held_id)
        streaming = StreamingGraph(held)
        del held
        for step in range(3):
            streaming.apply_batch(MutationBatch.from_edges(
                additions=[(step, step + 9)], deletions=[]))
        # The generation's own entry is tombstoned; the alias still
        # references its files, so none was unlinked.
        # (in memory and on disk alike: the alias is sealed, the
        # generations the stream is on are not)
        assert held_id not in store.snapshot_ids()
        assert reference["snapshot"] in store.snapshot_ids()
        assert on_disk_snapshots(tmp_path / "replica") == [
            reference["snapshot"]]
        assert all(os.path.exists(tmp_path / "replica" / name)
                   for name in files)
        store.verify(reference["snapshot"])
        owner.unlink()  # the pinning checkpoint rotates out
        assert reference["snapshot"] in store.compact()
        assert on_disk_snapshots(tmp_path / "replica") == []
        assert not any(os.path.exists(tmp_path / "replica" / name)
                       for name in files)

    def test_a_spool_keeps_the_label_it_was_created_under(self, tmp_path):
        store, held = self._replica(tmp_path, small_graph())
        assert held.snapshot_id.startswith("r0-g")
        # Reopened under the default label (a promoted replica's
        # recovery does this), the spool goes on minting under its own.
        reopened = MmapStore(str(tmp_path / "replica"))
        assert reopened.label == "r0"
        streaming = StreamingGraph(reopened.open_snapshot())
        streaming.apply_batch(MutationBatch.from_edges(
            additions=[(1, 2)], deletions=[]))
        assert streaming.graph.snapshot_id.startswith("r0-g")


class TestVolatileUntilPinned:
    """An adjusted generation writes no file and costs no fsync and no
    manifest write; it is sealed -- six files written with their CRCs,
    files + directory synced, named by ``manifest.json`` -- exactly when
    something durable names it."""

    def _adjusted(self, tmp_path, steps=1):
        store = MmapStore(str(tmp_path))
        streaming = StreamingGraph(store.publish(small_graph()))
        for step in range(steps):
            mutate(streaming, step)
        return store, streaming

    def test_an_adjusted_generation_costs_no_fsync_and_no_manifest_write(
            self, tmp_path, monkeypatch):
        # A batch in, the published (sealed) generation has been
        # released and has left the on-disk table -- the one manifest
        # write a stream of adjustments ever causes.
        store, streaming = self._adjusted(tmp_path, steps=2)
        assert on_disk_snapshots(tmp_path) == []
        fsyncs = FsyncCounter(monkeypatch)
        manifests = []
        monkeypatch.setattr(
            storage, "atomic_write",
            lambda *args, **kwargs: manifests.append(args[0]))
        before = set(store.snapshot_ids())
        for step in range(2, 5):  # each writes one, releases one
            mutate(streaming, step)
        assert not before & set(store.snapshot_ids())
        assert len(store.snapshot_ids()) == 1
        assert (fsyncs.files, fsyncs.directories, manifests) == (0, 0, [])

    def test_a_stream_of_batches_adds_no_file(self, tmp_path):
        store, streaming = self._adjusted(tmp_path, steps=0)
        before = sorted(os.listdir(tmp_path))
        for step in range(6):
            mutate(streaming, step)
            streaming.graph.in_sources  # a read splices, in heap
            # The current generation is unsealed: no file backs it.
            assert store.segment_files(streaming.graph.snapshot_id) == []
        # The published generation was released and compacted; nothing
        # took its place.
        after = sorted(os.listdir(tmp_path))
        assert set(after) <= set(before)
        assert not [name for name in after
                    if name.endswith(".tmp") or (name.endswith(".seg")
                                                 and name not in before)]
        assert after == ["manifest.json"]

    def test_a_seal_is_seven_file_fsyncs_and_two_directory_fsyncs(
            self, tmp_path, monkeypatch):
        store, streaming = self._adjusted(tmp_path)
        fsyncs = FsyncCounter(monkeypatch)
        store.seal(streaming.graph.snapshot_id)
        # six segments + the manifest; the directory after the
        # segments and again after the manifest replace
        assert (fsyncs.files, fsyncs.directories) == (6 + 1, 2)
        store.seal(streaming.graph.snapshot_id)  # idempotent
        assert (fsyncs.files, fsyncs.directories) == (6 + 1, 2)

    def test_a_sealed_generation_reads_its_files(self, tmp_path):
        store, streaming = self._adjusted(tmp_path, steps=2)
        graph = streaming.graph
        assert not isinstance(graph.out_targets, np.memmap)
        store.seal(graph.snapshot_id)
        # The heap copies are dropped for the maps of the files the seal
        # wrote; the next adjustment reads those.
        assert all(isinstance(getattr(graph, name), np.memmap)
                   for name in ARRAY_NAMES)
        heap = StreamingGraph(small_graph())
        for step in range(3):
            mutate(heap, step)
        mutate(streaming, 2)
        assert_graphs_equal(streaming.graph, heap.graph)
        # A generation whose graph is gone cannot be sealed any more.
        dropped, _ = store.adjust(streaming.graph,
                                  streaming.graph.num_vertices,
                                  *(np.empty(0, np.int64),) * 2,
                                  np.empty(0), *(np.empty(0, np.int64),) * 2)
        snapshot_id = dropped.snapshot_id
        del dropped
        with pytest.raises(StoreError, match="dropped before a seal"):
            store.seal(snapshot_id)

    def test_seals_and_volatile_releases_are_recorded(self, tmp_path):
        """Counters and the seal span; an unsealed generation's release
        is counted as such."""
        from repro.obs.registry import scoped_registry
        from repro.obs.trace import Tracer, activated

        with scoped_registry() as registry, activated(Tracer()) as tracer:
            store, streaming = self._adjusted(tmp_path, steps=4)
            graph = streaming.graph
            store.seal(graph.snapshot_id)
            # the publish and the explicit seal; generations 1 to 3
            # were released without ever being written
            assert registry.counter(
                "store.generations_sealed").value == 2
            assert registry.counter(
                "store.generations_released_unsealed").value == 3
            spans = [event for event in tracer.events()
                     if event["name"] == "store.seal"]
        assert [span["tags"]["snapshot"] for span in spans] == [
            "snap-g000000", graph.snapshot_id]
        assert spans[-1]["tags"]["fsyncs"] == 6 + 1 + 2
        assert spans[-1]["tags"]["bytes_written"] == sum(
            getattr(graph, name).nbytes for name in ARRAY_NAMES)

    def test_volatile_is_absent_from_the_manifest_until_pinned(
            self, tmp_path):
        store, streaming = self._adjusted(tmp_path / "store")
        # The published generation went with the batch's release.
        (adjusted,) = store.snapshot_ids()
        assert adjusted == streaming.graph.snapshot_id
        assert on_disk_snapshots(store.root) == []
        owner = tmp_path / "checkpoint.ckpt"
        owner.write_text("")
        store.seal(adjusted, str(owner))
        assert on_disk_snapshots(store.root) == [adjusted]
        # Sealed means verifiable from disk alone, CRCs in the header.
        reopened = MmapStore(store.root)
        assert reopened.current_snapshot == adjusted
        reopened.verify(adjusted)
        assert_graphs_equal(reopened.open_snapshot(adjusted),
                            streaming.graph)

    def test_each_namer_seals(self, tmp_path):
        for index, name in enumerate(
                ["manifest_entry", "verify", "publish", "alias"]):
            store, streaming = self._adjusted(tmp_path / name)
            graph = streaming.graph
            assert graph.snapshot_id not in on_disk_snapshots(store.root)
            if name == "manifest_entry":
                entry = store.manifest_entry(graph.snapshot_id)
                assert all("crc32" in meta
                           for meta in entry["arrays"].values())
            elif name == "verify":
                store.verify(graph.snapshot_id)
            elif name == "publish":
                assert store.publish(graph) is graph
            else:
                writer = MmapStore(str(tmp_path / "alias-writer"))
                reference = writer.manifest_entry(
                    writer.publish(graph).snapshot_id)
                store.alias_snapshot(reference, graph.snapshot_id, "owner")
            assert graph.snapshot_id in on_disk_snapshots(store.root), name

    def test_a_checkpoint_is_one_manifest_replace(self, tmp_path,
                                                  monkeypatch):
        """The pin rides the seal's manifest write; it used to be a
        second replace (2 of the 11 fsyncs a checkpoint cost a node)."""
        from repro.algorithms import PageRank
        from repro.core.engine import GraphBoltEngine
        from repro.runtime.checkpoint import save_engine

        store, streaming = self._adjusted(tmp_path / "store")
        writes = []
        real = MmapStore._write_manifest
        monkeypatch.setattr(
            MmapStore, "_write_manifest",
            lambda self: (writes.append(1), real(self))[1])
        engine = GraphBoltEngine(PageRank(), num_iterations=2)
        engine.run(streaming.graph)
        first = str(tmp_path / "first.ckpt")
        save_engine(engine, first)  # of an unsealed generation
        assert len(writes) == 1
        save_engine(engine, str(tmp_path / "second.ckpt"))  # a sealed one
        assert len(writes) == 2
        save_engine(engine, first)  # the same owner again
        store.seal(engine.graph.snapshot_id, first)
        assert len(writes) == 2
        # ... and the alias path: seal of the held generation, alias
        # entry and pin in one replace.
        replica = MmapStore(str(tmp_path / "replica"), label="r0")
        replayed = StreamingGraph(replica.publish(small_graph()))
        mutate(replayed, 0)
        reference = store.manifest_entry(engine.graph.snapshot_id)
        del writes[:]
        replica.alias_snapshot(reference, replayed.graph.snapshot_id,
                               str(tmp_path / "adopted.ckpt"))
        assert len(writes) == 1
        assert {replayed.graph.snapshot_id, reference["snapshot"]} <= set(
            on_disk_snapshots(replica.root))

    def test_a_dropped_store_reopens_to_sealed_generations_only(
            self, tmp_path):
        root = tmp_path / "store"
        owner = tmp_path / "checkpoint.ckpt"
        owner.write_text("")
        store = MmapStore(str(root))
        published = store.publish(small_graph())
        store.seal(published.snapshot_id, str(owner))
        streaming = StreamingGraph(published)
        for step in range(3):
            mutate(streaming, step)
        assert on_disk_snapshots(root) == [published.snapshot_id]
        # One unsealed generation in memory, and no file of it.
        unsealed = [sid for sid in store.snapshot_ids()
                    if sid != published.snapshot_id]
        assert len(unsealed) == 1
        assert not [name for sid in unsealed
                    for name in store.segment_files(sid)]
        sealed = store.segment_files(published.snapshot_id)
        assert sorted(name for name in os.listdir(root)
                      if name.endswith(".seg")) == sorted(sealed)
        del store, streaming  # the "crash": the object dies mid-stream
        reopened = MmapStore(str(root))
        assert reopened.snapshot_ids() == [published.snapshot_id]
        reopened.verify(published.snapshot_id)
        reopened.compact()
        assert sorted(name for name in os.listdir(root)
                      if name.endswith(".seg")) == sorted(sealed)

    def test_planted_rot_lands_after_the_crc_and_only_verify_sees_it(
            self, tmp_path):
        store, streaming = self._adjusted(tmp_path)
        graph = streaming.graph
        with scoped_failpoints() as failpoints:
            # The seal writes the six arrays in manifest order: its
            # second segment is out_targets'.
            failpoints.arm("storage.segment_write", kind="corrupt", hit=2)
            store.seal(graph.snapshot_id)
            assert [record.site for record in failpoints.fired] == [
                "storage.segment_write"]
        reopened = MmapStore(str(tmp_path))
        reopened.open_snapshot(graph.snapshot_id)  # headers agree
        with pytest.raises(StoreError, match="out_targets.*CRC mismatch"):
            reopened.verify(graph.snapshot_id)

    def test_a_corrupt_plan_waits_for_the_pass_that_fixes_a_crc(
            self, tmp_path):
        store, streaming = self._adjusted(tmp_path, steps=0)
        with scoped_failpoints() as failpoints:
            failpoints.arm("storage.segment_write", kind="corrupt", hit=1)
            mutate(streaming, 0)  # writes no segment: nothing to rot
            assert failpoints.fired == []
            heap = StreamingGraph(small_graph())
            mutate(heap, 0)
            assert_graphs_equal(streaming.graph, heap.graph)
            store.seal(streaming.graph.snapshot_id)
            assert [fired.hit_number for fired in failpoints.fired] == [1]
        with pytest.raises(StoreError, match="out_offsets.*CRC mismatch"):
            store.verify(streaming.graph.snapshot_id)


class TestRunCopies:
    """The runs a batch leaves untouched reach the new generation in
    bulk: each edge array is a few chunks of old runs and additions,
    one writer ``append`` and one ``pwrite`` apiece -- nothing per run,
    and no file object kept open per mapped array."""

    @staticmethod
    def _batch(graph, count=12):
        src, dst, _ = graph.all_edges()
        picks = np.linspace(0, src.size - 1, count).astype(np.int64)
        return MutationBatch(
            add_src=(src[picks] + 1) % graph.num_vertices,
            add_dst=(dst[picks] + 3) % graph.num_vertices,
            del_src=src[picks], del_dst=dst[picks])

    def test_one_append_per_chunk_per_edge_array(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(splice, "CHUNK_ELEMENTS", 64)
        store = MmapStore(str(tmp_path))
        base = small_graph()
        streaming = StreamingGraph(store.publish(base))
        appended = []
        real = storage._HeapWriter.append
        monkeypatch.setattr(
            storage._HeapWriter, "append",
            lambda self, name, chunk: (
                appended.append(name), real(self, name, chunk))[1])
        batch = self._batch(base)
        streaming.apply_batch(batch)
        streaming.graph.in_sources  # the deferred in-edge splice
        chunks = -(-base.num_edges // 64)
        assert chunks > 1
        # Both splices write heap arrays, the deferred one its own
        # offsets too.
        assert sorted(appended) == sorted(
            ["out_offsets", "in_offsets", "in_offsets"]
            + chunks * ["out_targets", "out_weights",
                        "in_sources", "in_weights"])
        heap = StreamingGraph(base)
        heap.apply_batch(batch)
        assert_graphs_equal(streaming.graph, heap.graph)

    def test_no_per_run_call(self, tmp_path, monkeypatch):
        store = MmapStore(str(tmp_path))
        base = small_graph()
        streaming = StreamingGraph(store.publish(base))
        writes, real = [], os.pwrite
        monkeypatch.setattr(os, "pwrite", lambda fd, data, position: (
            writes.append(position), real(fd, data, position))[1])
        streaming.apply_batch(self._batch(base))
        streaming.graph.in_sources  # the deferred in-edge splice
        assert writes == []  # both splices run in heap
        store.seal(streaming.graph.snapshot_id)
        # ≈ 25 runs per edge array, one payload write per array (at the
        # first payload byte) and one header write per file.
        assert sorted(writes) == [0] * 6 + [storage._HEADER_SIZE] * 6
        assert not hasattr(storage._MmapWriter, "append_raw")
        assert not hasattr(storage._SegmentFile, "copy_range")

    def test_publishing_a_heap_graph_takes_the_byte_path(
            self, tmp_path, monkeypatch):
        payload, real = [], os.pwrite
        monkeypatch.setattr(os, "pwrite", lambda fd, data, position: (
            payload.extend([position] if position else []),
            real(fd, data, position))[1])
        published = MmapStore(str(tmp_path)).publish(small_graph())
        # Each array's bytes leave this process's buffer in one write.
        assert payload == [storage._HEADER_SIZE] * len(ARRAY_NAMES)
        assert_graphs_equal(published, small_graph())

    def test_copy_survives_a_second_store_unlinking_the_source(
            self, tmp_path):
        store = MmapStore(str(tmp_path))
        streaming = StreamingGraph(store.publish(small_graph()))
        source = store.segment_files(streaming.graph.snapshot_id)
        result = mutate(streaming, 0)
        store.seal(streaming.graph.snapshot_id)  # now the current one
        # A checkpoint restore opens its own store object on the root;
        # its compaction reaps what *it* does not hold live -- here the
        # published generation the first batch's result still holds as
        # its old snapshot, now read through its mappings alone.
        MmapStore(str(tmp_path)).compact()
        assert not any(os.path.exists(tmp_path / name) for name in source)
        assert_graphs_equal(result.old_graph, small_graph())
        result = mutate(streaming, 1)
        heap = StreamingGraph(small_graph())
        mutate(heap, 0)
        heap_result = mutate(heap, 1)
        assert_graphs_equal(result.old_graph, heap_result.old_graph)
        assert_graphs_equal(streaming.graph, heap.graph)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_a_mapped_array_holds_no_file_descriptor(self, tmp_path):
        store = MmapStore(str(tmp_path))
        streaming = StreamingGraph(store.publish(small_graph()))
        graphs = [streaming.graph]
        for step in range(3):
            mutate(streaming, step)
            graphs.append(streaming.graph)
        maps = {id(array._mmap) for graph in graphs for name in ARRAY_NAMES
                for array in [getattr(graph, name)]
                if isinstance(array, np.memmap)}
        # Only the published generation is mapped (the adjusted ones
        # live in heap): the only descriptors open on the spool are the
        # mappings' own, one per map.
        spool = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:  # the listing's own descriptor, closed
                continue
            spool += [target] if target.startswith(f"{tmp_path}/") else []
        assert len(spool) == len(maps) == len(ARRAY_NAMES)
        assert_graphs_equal(graphs[0], small_graph())


class TestAtomicWrite:
    def test_fsync_also_syncs_the_parent_directory(self, tmp_path,
                                                   monkeypatch):
        fsyncs = FsyncCounter(monkeypatch)
        atomic_write(str(tmp_path / "plain.json"), "{}")
        assert (fsyncs.files, fsyncs.directories) == (0, 0)
        atomic_write(str(tmp_path / "durable.json"), "{}", fsync=True)
        # the file before the rename, the directory after it
        assert (fsyncs.files, fsyncs.directories) == (1, 1)
        assert (tmp_path / "durable.json").read_text() == "{}"


class TestSelection:
    def test_spec_heap(self):
        assert isinstance(store_from_spec("heap"), HeapStore)
        assert isinstance(store_from_spec(None), HeapStore)

    def test_spec_mmap_with_dir(self, tmp_path):
        store = store_from_spec(f"mmap:{tmp_path}")
        assert isinstance(store, MmapStore)
        assert store.root == str(tmp_path)

    def test_spec_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown snapshot store"):
            store_from_spec("tape")

    def test_spec_rejects_heap_with_dir(self):
        with pytest.raises(ValueError, match="takes no directory"):
            store_from_spec("heap:/tmp/x")


class TestAdjust:
    """Segment-wise structure adjustment must match the heap rebuild
    bit-for-bit, including vertex-growing batches."""

    def _batches(self, graph):
        src, dst, _ = graph.all_edges()
        n = graph.num_vertices
        yield MutationBatch.from_edges(
            additions=[(0, n - 1), (2, 4)],
            deletions=[(int(src[0]), int(dst[0]))],
            add_weights=[0.5, 1.5],
        )
        yield MutationBatch.from_edges(
            additions=[(n + 2, 1), (3, n)],  # grows the vertex set
            deletions=[(int(src[-1]), int(dst[-1]))],
            add_weights=[2.0, 0.25],
            grow_to=n + 3,
        )

    def test_mmap_adjust_matches_heap_rebuild(self, tmp_path):
        base = small_graph(seed=11)
        store = MmapStore(str(tmp_path))
        heap = StreamingGraph(base)
        mmapped = StreamingGraph(store.publish(base))
        for batch in self._batches(base):
            heap.apply_batch(batch)
            mmapped.apply_batch(batch)
            assert_graphs_equal(heap.graph, mmapped.graph)
        # The store's generation, spliced in heap like the heap store's.
        assert mmapped.graph.store is store
        assert not isinstance(mmapped.graph.out_targets, np.memmap)
        store.verify(mmapped.graph.snapshot_id)
        assert_graphs_equal(store.open_snapshot(mmapped.graph.snapshot_id),
                            heap.graph)


class TestXLTier:
    def test_rmat_streamed_equals_materialized_build(self, tmp_path):
        heap = rmat_xl(9, 6, seed=5, store=HeapStore())
        mmapped = rmat_xl(9, 6, seed=5,
                          store=MmapStore(str(tmp_path)))
        assert_graphs_equal(heap, mmapped)
        assert isinstance(mmapped.out_targets, np.memmap)

    def test_rmat_streamed_spools_through_store(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(generators, "CHUNK_EDGES", 1 << 10)
        store = MmapStore(str(tmp_path))
        graph = rmat_streamed(9, 6, seed=5, store=store)
        assert graph.store is store
        store.verify()
