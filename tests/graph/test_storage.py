"""Unit tests for the pluggable snapshot stores.

The contract under test: :class:`MmapStore` is a drop-in behind the
unchanged :class:`CSRGraph` slice API -- every array it serves is
bit-for-bit equal to the heap build it was published from, torn or
corrupted segments are detected by CRC/header checks, and generation
lifecycle (live refs, pins, compaction) never deletes a reachable
snapshot.
"""

import os

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat, rmat_streamed, rmat_xl
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.graph.storage import (
    ARRAY_NAMES,
    ENV_SNAPSHOT_STORE,
    HeapStore,
    MmapStore,
    StoreError,
    store_from_env,
    store_from_spec,
)


def small_graph(seed=3):
    return rmat(6, 4, seed=seed, weighted=True)


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
    def _mutate(self, streaming, step):
        batch = MutationBatch.from_edges(
            additions=[(step % 5, (step + 7) % 11)],
            deletions=[],
        )
        streaming.apply_batch(batch)

    def test_retired_generations_are_compacted(self, tmp_path):
        store = MmapStore(str(tmp_path))
        streaming = StreamingGraph(store.publish(small_graph()))
        for step in range(4):
            self._mutate(streaming, step)
        # StreamingGraph holds current + previous; everything older is
        # released and must be gone from manifest and disk.
        assert len(store.snapshot_ids()) <= 2
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
        store.pin(pinned_id, str(owner))
        streaming = StreamingGraph(published)
        for step in range(4):
            self._mutate(streaming, step)
        assert pinned_id in store.snapshot_ids()
        owner.unlink()
        store.compact()
        assert pinned_id not in store.snapshot_ids()


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
        owner = tmp_path / "ckpt.npz"
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
        assert store.snapshot_ids() == [held.snapshot_id]
        assert MmapStore(str(tmp_path / "replica")).snapshot_ids() == [
            held.snapshot_id]

    def test_compact_keeps_aliased_files_until_the_pin_expires(
            self, tmp_path):
        graph = small_graph()
        reference = self._writer_reference(tmp_path, graph)
        store, held = self._replica(tmp_path, graph)
        owner = tmp_path / "ckpt.npz"
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
        assert held_id not in store.snapshot_ids()
        assert reference["snapshot"] in store.snapshot_ids()
        assert all(os.path.exists(tmp_path / "replica" / name)
                   for name in files)
        store.verify(reference["snapshot"])
        owner.unlink()  # the pinning checkpoint rotates out
        assert reference["snapshot"] in store.compact()
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

    def test_env_selection(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_SNAPSHOT_STORE, f"mmap:{tmp_path}")
        store = store_from_env()
        assert isinstance(store, MmapStore)
        monkeypatch.delenv(ENV_SNAPSHOT_STORE)
        assert isinstance(store_from_env(), HeapStore)


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
        heap = StreamingGraph(base)
        mmapped = StreamingGraph(MmapStore(str(tmp_path)).publish(base))
        for batch in self._batches(base):
            heap.apply_batch(batch)
            mmapped.apply_batch(batch)
            assert_graphs_equal(heap.graph, mmapped.graph)
        assert isinstance(mmapped.graph.out_targets, np.memmap)


class TestXLTier:
    def test_rmat_streamed_equals_materialized_build(self, tmp_path):
        heap = rmat_xl(9, 6, seed=5, store=HeapStore())
        mmapped = rmat_xl(9, 6, seed=5,
                          store=MmapStore(str(tmp_path)))
        assert_graphs_equal(heap, mmapped)
        assert isinstance(mmapped.out_targets, np.memmap)

    def test_rmat_streamed_spools_through_store(self, tmp_path):
        store = MmapStore(str(tmp_path))
        graph = rmat_streamed(9, 6, seed=5, store=store,
                              chunk_edges=1 << 10)
        assert graph.store is store
        store.verify()
