"""A snapshot's in-edge arrays are spliced when something reads them.

The contract under test: a deferred in-direction
(:class:`~repro.graph.splice.InEdges`) is, once read, byte for byte the
in-direction the :class:`CSRGraph` constructor builds -- one splice per
maximal run of pair-disjoint batches, on heap and out of core alike;
an adjustment splices at once only after a read of its predecessor or
once the backlog holds as many mutations as its base has edges; and an
mmap generation writes no segment before its seal, whose six files hold
the bytes a heap store's arrays hold, read or not.
"""

import numpy as np
import pytest

from repro.algorithms.registry import REGISTRY
from repro.bench.workloads import uniform_batch
from repro.core.engine import GraphBoltEngine
from repro.graph import splice
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch, pair_disjoint_runs
from repro.graph.storage import ARRAY_NAMES, HeapStore, MmapStore
from repro.obs import trace
from repro.obs.trace import Tracer

NUM_VERTICES = 40


def simple_graph(seed=0, num_edges=160):
    """A weighted graph without repeated pairs, so the constructor's
    order of the final edge list is the one canonical order."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(NUM_VERTICES * NUM_VERTICES, num_edges, replace=False)
    return CSRGraph(NUM_VERTICES, keys // NUM_VERTICES, keys % NUM_VERTICES,
                    rng.random(num_edges) + 0.5)


def mixed_stream(graph, num_batches=30, seed=1):
    """Deletions, additions with fresh weights, vertex growth, and one
    pair deleted early and re-added later (a run boundary)."""
    rng = np.random.default_rng(seed)
    src, dst, _ = graph.all_edges()
    present = set(zip(src.tolist(), dst.tolist()))
    num_vertices = graph.num_vertices
    readded = (int(src[0]), int(dst[0]))
    batches = []
    for index in range(num_batches):
        deletions = [readded] if index == 2 else []
        candidates = sorted(present - {readded})
        for pick in rng.choice(len(candidates), 2, replace=False):
            deletions.append(candidates[pick])
        additions = [(readded[0], readded[1])] if index == 20 else []
        grow_to = num_vertices + 1 if index % 10 == 5 else None
        if grow_to is not None:
            num_vertices = grow_to
            additions.append((int(rng.integers(NUM_VERTICES)), grow_to - 1))
        while len(additions) < 3:
            pair = tuple(int(v) for v in rng.integers(num_vertices, size=2))
            if pair not in present and pair not in additions:
                additions.append(pair)
        present -= set(deletions)
        present |= set(additions)
        batches.append(MutationBatch.from_edges(
            additions=additions, deletions=deletions,
            add_weights=(rng.random(len(additions)) + 0.5).tolist(),
            grow_to=grow_to))
    return batches


def constructed(graph):
    return CSRGraph(graph.num_vertices, *graph.all_edges())


def assert_bytes_equal(graph, want):
    assert graph.num_vertices == want.num_vertices
    for name in ARRAY_NAMES:
        got = np.asarray(getattr(graph, name))
        expected = np.asarray(getattr(want, name))
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name


def stores(tmp_path):
    return {"heap": lambda graph: graph,
            "mmap": lambda graph: MmapStore(str(tmp_path)).publish(graph)}


@pytest.fixture(params=["heap", "mmap"])
def placed(request, tmp_path):
    """Place a graph in the parametrized store."""
    return stores(tmp_path)[request.param]


class TestSplicedWhenRead:
    def test_a_backlog_reads_as_the_constructor_builds(self, placed,
                                                       monkeypatch):
        graph = simple_graph()
        batches = mixed_stream(graph)
        streaming = StreamingGraph(placed(graph))
        applied = [streaming.apply_batch(batch) for batch in batches]
        assert all(result.new_graph.in_deferred for result in applied)
        runs = pair_disjoint_runs([
            splice.AppliedBatch(r.new_graph.num_vertices, r.add_src,
                                r.add_dst, r.add_weight, r.del_src,
                                r.del_dst) for r in applied])
        assert 1 < len(runs) < len(batches)

        calls = []
        real = splice.splice
        monkeypatch.setattr(splice, "splice", lambda writer, names, *args: (
            calls.append(names), real(writer, names, *args))[1])
        tracer = Tracer()
        with trace.activated(tracer):
            final = streaming.graph
            final.in_sources
        # One splice per pair-disjoint run, under one traced span.
        assert len(calls) == len(runs)
        spans = [event for event in tracer.events()
                 if event["name"] == "adjust_structure"]
        assert [span["tags"] for span in spans] == [
            {"deferred_batches": len(batches)}]
        assert final.num_vertices == NUM_VERTICES + 3
        assert_bytes_equal(final, constructed(final))

        # The same stream with every snapshot read is the eager path.
        eager = StreamingGraph(graph)
        for batch in batches:
            eager.graph.in_sources
            eager.apply_batch(batch)
            assert not eager.graph.in_deferred
        assert_bytes_equal(final, eager.graph)

    def test_a_never_read_chain_splices_at_the_bound(self):
        graph = CSRGraph(8, [0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6])
        streaming = StreamingGraph(graph)
        deferred = []
        for step in range(5):
            streaming.apply_batch(MutationBatch.from_edges(
                additions=[(7, step)]))
            deferred.append(streaming.graph.in_deferred)
        # Base of six edges: the sixth mutation is due, and the next
        # chain starts from the arrays it built.
        assert deferred == [True] * 5
        streaming.apply_batch(MutationBatch.from_edges(additions=[(6, 0)]))
        assert not streaming.graph.in_deferred
        streaming.apply_batch(MutationBatch.from_edges(additions=[(6, 1)]))
        assert streaming.graph.in_deferred
        assert_bytes_equal(streaming.graph, constructed(streaming.graph))

    def test_a_read_predecessor_makes_the_next_adjust_eager(self, placed):
        streaming = StreamingGraph(placed(simple_graph()))
        batches = mixed_stream(simple_graph(), num_batches=4)
        streaming.apply_batch(batches[0])
        assert streaming.graph.in_deferred
        streaming.graph.in_neighbors(3)
        streaming.apply_batch(batches[1])
        assert not streaming.graph.in_deferred
        streaming.apply_batch(batches[2])  # nothing read that one
        assert streaming.graph.in_deferred
        streaming.graph.in_edges_of(np.arange(4))
        streaming.apply_batch(batches[3])
        assert not streaming.graph.in_deferred
        assert_bytes_equal(streaming.graph, constructed(streaming.graph))

    def test_persisting_splices_but_is_not_a_read(self, placed):
        """What a checkpoint or a store copies is spliced, and the next
        adjustment still defers."""
        streaming = StreamingGraph(placed(simple_graph()))
        batches = mixed_stream(simple_graph(), num_batches=2)
        streaming.apply_batch(batches[0])
        arrays = streaming.graph.canonical_arrays()
        assert not streaming.graph.in_deferred
        want = constructed(streaming.graph)
        for name in ARRAY_NAMES:
            assert arrays[name].tobytes() == getattr(want, name).tobytes()
        streaming.apply_batch(batches[1])
        assert streaming.graph.in_deferred

    def test_nbytes_does_not_splice(self, placed):
        streaming = StreamingGraph(placed(simple_graph()))
        for batch in mixed_stream(simple_graph(), num_batches=3):
            streaming.apply_batch(batch)
        graph = streaming.graph
        assert graph.nbytes == constructed(graph).nbytes
        assert graph.in_deferred


class TestMmapGenerations:
    def test_no_files_until_sealed_then_the_eager_crcs(self, tmp_path):
        graph = simple_graph()
        batches = mixed_stream(graph, num_batches=6)
        crcs, files = {}, {}
        for kind in ("deferred", "eager"):
            store = MmapStore(str(tmp_path / kind))
            streaming = StreamingGraph(store.publish(graph))
            for batch in batches:
                if kind == "eager":
                    streaming.graph.in_weights
                streaming.apply_batch(batch)
            snapshot_id = streaming.graph.snapshot_id
            files[kind] = len(store.segment_files(snapshot_id))
            entry = store.manifest_entry(snapshot_id)  # seals it
            assert len(store.segment_files(snapshot_id)) == 6
            crcs[kind] = {name: entry["arrays"][name]["crc32"]
                          for name in ARRAY_NAMES}
            store.verify(snapshot_id)
        assert files == {"deferred": 0, "eager": 0}
        assert crcs["deferred"] == crcs["eager"]

    @pytest.mark.parametrize("reads_in", [False, True])
    def test_each_seal_writes_the_heap_stores_bytes(self, reads_in,
                                                    tmp_path):
        """Sealed every third batch, a stream that reads the
        in-direction and one that never does: each seal's six payloads
        are the heap store's arrays for the same stream, byte for
        byte."""
        graph = simple_graph()
        store = MmapStore(str(tmp_path))
        mmapped = StreamingGraph(store.publish(graph))
        heap = StreamingGraph(HeapStore().publish(graph))
        for index, batch in enumerate(mixed_stream(graph, num_batches=12)):
            if reads_in:
                mmapped.graph.in_sources
            mmapped.apply_batch(batch)
            heap.apply_batch(batch)
            if index % 3 != 2:
                continue
            snapshot_id = mmapped.graph.snapshot_id
            assert mmapped.graph.in_deferred is not reads_in
            assert store.segment_files(snapshot_id) == []
            store.seal(snapshot_id)
            names = store.segment_files(snapshot_id)
            assert len(names) == len(ARRAY_NAMES)
            for name, file_name in zip(ARRAY_NAMES, names):
                with open(tmp_path / file_name, "rb") as stream:
                    payload = stream.read()[64:]
                assert payload == getattr(heap.graph, name).tobytes(), name

    def test_a_first_read_writes_no_file(self, tmp_path):
        store = MmapStore(str(tmp_path))
        streaming = StreamingGraph(store.publish(simple_graph()))
        for batch in mixed_stream(simple_graph(), num_batches=3):
            streaming.apply_batch(batch)
        graph = streaming.graph
        before = sorted(p.name for p in tmp_path.iterdir())
        sources = graph.in_sources
        assert not isinstance(sources, np.memmap)
        assert store.segment_files(graph.snapshot_id) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        # Sealed, the generation reopens from its six files.
        store.seal(graph.snapshot_id)
        again = store.open_snapshot(graph.snapshot_id)
        assert not again.in_deferred
        assert_bytes_equal(again, constructed(graph))

    def test_a_compacted_base_still_splices(self, tmp_path):
        """The base is held only through its mappings once the stream
        released its generation and compaction unlinked the files."""
        store = MmapStore(str(tmp_path))
        base = store.publish(simple_graph())
        base_files = store.segment_files(base.snapshot_id)
        streaming = StreamingGraph(base)
        del base
        batches = mixed_stream(simple_graph(), num_batches=5)
        for batch in batches:
            streaming.apply_batch(batch)
        assert streaming.graph.in_deferred
        assert not any((tmp_path / name).exists() for name in base_files)
        heap = StreamingGraph(simple_graph())
        for batch in batches:
            heap.apply_batch(batch)
        assert_bytes_equal(streaming.graph, heap.graph)

    def test_a_replica_aliases_a_deferred_generation(self, tmp_path):
        graph = simple_graph()
        batches = mixed_stream(graph, num_batches=8)
        writer = MmapStore(str(tmp_path / "writer"))
        written = StreamingGraph(writer.publish(graph))
        for batch in batches:
            written.apply_batch(batch)
        reference = writer.manifest_entry(written.graph.snapshot_id)

        replica = MmapStore(str(tmp_path / "replica"), label="r0")
        replayed = StreamingGraph(replica.publish(graph))
        for batch in batches:
            replayed.apply_batch(batch)
        held = replayed.graph.snapshot_id
        assert replica.segment_files(held) == []
        owner = tmp_path / "ckpt.ckpt"
        owner.write_text("")
        replica.alias_snapshot(reference, held, str(owner))
        assert (replica.segment_files(reference["snapshot"])
                == replica.segment_files(held))
        replica.verify(reference["snapshot"])
        reopened = MmapStore(str(tmp_path / "replica"))
        assert_bytes_equal(reopened.open_snapshot(reference["snapshot"]),
                           constructed(written.graph))


#: Registry names whose aggregation cannot retract (min / max): they
#: re-evaluate by pulling in-edges, so every adjustment stays eager.
PULLING = sorted(name for name, spec in REGISTRY.items()
                 if not spec.factory().aggregation.decomposable)


class TestSumsDoNotReadTheCSC:
    """A decomposable algorithm's batch path reads only the
    out-direction -- the edge-weighted product and CoEM's normaliser
    included -- so a stream below the splice bound never splices its
    in-edge arrays; a re-evaluating one still splices every batch."""

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_a_stream_below_the_bound_stays_deferred(self, name, placed):
        graph = placed(rmat(scale=7, edge_factor=8, seed=2, weighted=True))
        engine = GraphBoltEngine(REGISTRY[name].factory())
        engine.run(graph)
        pulls = name in PULLING
        backlog = 0
        for index in range(20):
            batch = uniform_batch(engine.graph, 10, seed=index)
            backlog += len(batch)
            tracer = Tracer()
            with trace.activated(tracer):
                engine.apply_mutations(batch)
            spans = [event["tags"] for event in tracer.events()
                     if event["name"] == "adjust_structure"]
            assert engine.graph.in_deferred is not pulls, index
            # The batch's own adjustment span; a splice is a span of its
            # own, nested in it when eager.
            splices = [{"deferred_batches": 1}] if pulls else []
            assert spans == splices + [{"deferred": not pulls}], index
        assert backlog < graph.num_edges
