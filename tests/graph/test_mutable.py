"""Unit and property tests for the streaming graph's batch application."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import PageRank
from repro.core.engine import GraphBoltEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.graph.storage import MmapStore
from tests.conftest import edge_set, edge_weights


def base_graph():
    return CSRGraph.from_edges(
        [(0, 1), (1, 2), (2, 0), (2, 3)], num_vertices=4,
        weights=[1.0, 2.0, 3.0, 4.0],
    )


class TestEdgePositions:
    """Regression tests for the vectorised CSR slot lookup."""

    def _expected(self, graph, src, dst):
        pairs = {(int(s), int(d)): i
                 for i, (s, d) in enumerate(zip(*graph.all_edges()[:2]))}
        return [pairs.get((int(s), int(d)), -1) for s, d in zip(src, dst)]

    def test_duplicate_pairs_resolve_to_same_slot(self):
        graph = base_graph()
        src = np.array([1, 0, 1, 2, 1], dtype=np.int64)
        dst = np.array([2, 1, 2, 3, 2], dtype=np.int64)
        positions = StreamingGraph._edge_positions(graph, src, dst)
        assert positions.tolist() == self._expected(graph, src, dst)
        assert positions[0] == positions[2] == positions[4]

    def test_missing_edges_report_minus_one(self):
        graph = base_graph()
        src = np.array([0, 3, 1, 2], dtype=np.int64)
        dst = np.array([2, 1, 2, 0], dtype=np.int64)
        positions = StreamingGraph._edge_positions(graph, src, dst)
        assert positions.tolist() == self._expected(graph, src, dst)
        assert positions[0] == -1 and positions[1] == -1

    def test_out_of_range_endpoints_are_absent(self):
        # dst >= V must not alias the key of a different in-range pair:
        # with V=4, (0, 5) would collide with (1, 1) if unmasked.
        graph = CSRGraph.from_edges([(1, 1), (2, 0)], num_vertices=4)
        src = np.array([0, 1, -1, 2, 7], dtype=np.int64)
        dst = np.array([5, 1, 0, -2, 0], dtype=np.int64)
        positions = StreamingGraph._edge_positions(graph, src, dst)
        assert positions.tolist() == [-1, 0, -1, -1, -1]

    def test_probe_beyond_last_key(self):
        graph = base_graph()
        positions = StreamingGraph._edge_positions(
            graph, np.array([3]), np.array([3])
        )
        assert positions.tolist() == [-1]

    def test_empty_query_and_empty_graph(self):
        graph = base_graph()
        empty = StreamingGraph._edge_positions(
            graph, np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        assert empty.size == 0
        edgeless = CSRGraph.from_edges([], num_vertices=3)
        positions = StreamingGraph._edge_positions(
            edgeless, np.array([0, 1]), np.array([1, 2])
        )
        assert positions.tolist() == [-1, -1]

    def test_matches_bruteforce_on_random_batches(self):
        rng = np.random.default_rng(17)
        edges = {(int(s), int(d))
                 for s, d in zip(rng.integers(0, 12, 40),
                                 rng.integers(0, 12, 40))}
        graph = CSRGraph.from_edges(sorted(edges), num_vertices=12)
        src = rng.integers(-2, 14, 200)
        dst = rng.integers(-2, 14, 200)
        positions = StreamingGraph._edge_positions(graph, src, dst)
        assert positions.tolist() == self._expected(graph, src, dst)


class TestApplyBatch:
    def test_repr(self):
        stream = StreamingGraph(base_graph())
        assert repr(stream) == "StreamingGraph(V=4, E=4, batches=0)"
        stream.apply_batch(MutationBatch.from_edges(additions=[(3, 0)]))
        assert repr(stream) == "StreamingGraph(V=4, E=5, batches=1)"

    def test_addition(self):
        stream = StreamingGraph(base_graph())
        result = stream.apply_batch(
            MutationBatch.from_edges(additions=[(3, 0)])
        )
        assert (3, 0) in edge_set(stream.graph)
        assert result.add_src.tolist() == [3]
        assert result.skipped_additions == 0

    def test_deletion(self):
        stream = StreamingGraph(base_graph())
        result = stream.apply_batch(
            MutationBatch.from_edges(deletions=[(1, 2)])
        )
        assert (1, 2) not in edge_set(stream.graph)
        assert result.del_src.tolist() == [1]
        assert result.del_weight.tolist() == [2.0]

    def test_duplicate_addition_skipped(self):
        stream = StreamingGraph(base_graph())
        result = stream.apply_batch(
            MutationBatch.from_edges(additions=[(0, 1), (3, 0)])
        )
        assert result.skipped_additions == 1
        assert result.add_src.tolist() == [3]
        assert stream.graph.num_edges == 5

    def test_absent_deletion_skipped(self):
        stream = StreamingGraph(base_graph())
        result = stream.apply_batch(
            MutationBatch.from_edges(deletions=[(0, 3), (1, 2)])
        )
        assert result.skipped_deletions == 1
        assert stream.graph.num_edges == 3

    def test_delete_then_readd_replaces_weight(self):
        stream = StreamingGraph(base_graph())
        batch = MutationBatch.from_edges(
            additions=[(0, 1)], deletions=[(0, 1)], add_weights=[9.0]
        )
        result = stream.apply_batch(batch)
        assert edge_weights(stream.graph)[(0, 1)] == 9.0
        assert result.add_src.tolist() == [0]
        assert result.del_src.tolist() == [0]

    def test_delete_and_add_of_absent_edge_is_plain_add(self):
        stream = StreamingGraph(base_graph())
        batch = MutationBatch.from_edges(
            additions=[(3, 1)], deletions=[(3, 1)]
        )
        result = stream.apply_batch(batch)
        assert (3, 1) in edge_set(stream.graph)
        assert result.skipped_deletions == 1
        assert result.del_src.size == 0

    def test_previous_snapshot_retained(self):
        stream = StreamingGraph(base_graph())
        old = stream.graph
        result = stream.apply_batch(
            MutationBatch.from_edges(additions=[(3, 1)]))
        assert result.old_graph is old
        assert result.new_graph is stream.graph
        assert old.num_edges == 4

    def test_vertex_growth_implicit(self):
        stream = StreamingGraph(base_graph())
        result = stream.apply_batch(
            MutationBatch.from_edges(additions=[(0, 6)])
        )
        assert stream.graph.num_vertices == 7
        assert result.grew()

    def test_skipped_out_of_range_deletion_does_not_grow(self):
        graph = rmat(6)
        stream = StreamingGraph(graph)
        result = stream.apply_batch(MutationBatch(
            del_src=[0], del_dst=[graph.num_vertices + 100]))
        assert result.skipped_deletions == 1
        assert stream.graph.num_vertices == graph.num_vertices == 64
        assert not result.grew()

    def test_vertex_growth_explicit(self):
        stream = StreamingGraph(base_graph())
        stream.apply_batch(MutationBatch(grow_to=9))
        assert stream.graph.num_vertices == 9
        assert stream.graph.num_edges == 4

    def test_empty_batch(self):
        stream = StreamingGraph(base_graph())
        result = stream.apply_batch(MutationBatch.empty())
        assert result.add_src.size == result.del_src.size == 0
        assert stream.graph.num_edges == 4

    def test_batches_applied_counter(self):
        stream = StreamingGraph(base_graph())
        stream.apply_batch(MutationBatch.empty())
        stream.apply_batch(MutationBatch.empty())
        assert stream.batches_applied == 2


class TestNoSnapshotPastItsBatch:
    """A stream keeps only its latest snapshot: the pre-batch graph
    lives as long as the batch's result, and no longer."""

    def test_heap_stream(self):
        stream = StreamingGraph(rmat(6, 4, seed=3, weighted=True))
        before = weakref.ref(stream.graph)
        result = stream.apply_batch(
            MutationBatch.from_edges(additions=[(3, 1)]))
        assert result.old_graph is before()
        del result
        assert before() is None

    def test_mmap_replica(self, tmp_path):
        """A replica adopts batches and never refines: it drops each
        result as it applies it, so no old generation stays in memory."""
        store = MmapStore(str(tmp_path))
        stream = StreamingGraph(store.publish(
            rmat(6, 4, seed=3, weighted=True)))
        replica = GraphBoltEngine(PageRank(), num_iterations=3)
        replica.run(streaming=stream)
        for step in range(3):
            before = weakref.ref(replica.graph)
            replica.adopt([MutationBatch.from_edges(
                additions=[(step, step + 5)])], None)
            assert replica.graph is not before()
            assert before() is None


class TestMutationResult:
    def test_out_changed_vertices(self):
        stream = StreamingGraph(base_graph())
        result = stream.apply_batch(
            MutationBatch.from_edges(additions=[(3, 0)], deletions=[(1, 2)])
        )
        assert result.out_changed_vertices().tolist() == [1, 3]

    def test_in_changed_vertices(self):
        stream = StreamingGraph(base_graph())
        result = stream.apply_batch(
            MutationBatch.from_edges(additions=[(3, 0)], deletions=[(1, 2)])
        )
        assert result.in_changed_vertices().tolist() == [0, 2]

    def test_changed_vertices_include_new_ids(self):
        stream = StreamingGraph(base_graph())
        result = stream.apply_batch(
            MutationBatch.from_edges(additions=[(0, 5)])
        )
        assert 4 in result.out_changed_vertices().tolist()
        assert 5 in result.in_changed_vertices().tolist()

    def test_added_edge_mask(self):
        stream = StreamingGraph(base_graph())
        result = stream.apply_batch(
            MutationBatch.from_edges(additions=[(3, 0), (0, 2)])
        )
        mask = result.added_edge_mask()
        graph = stream.graph
        assert mask.sum() == 2
        src, dst, _ = graph.all_edges()
        flagged = set(zip(src[mask].tolist(), dst[mask].tolist()))
        assert flagged == {(3, 0), (0, 2)}


@st.composite
def graph_and_batches(draw):
    num_vertices = draw(st.integers(2, 12))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_vertices - 1),
                st.integers(0, num_vertices - 1),
            ).filter(lambda e: e[0] != e[1]),
            max_size=30,
        )
    )
    batches = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(0, num_vertices - 1),
                        st.integers(0, num_vertices - 1),
                    ),
                    max_size=8,
                ),
                st.lists(
                    st.tuples(
                        st.integers(0, num_vertices - 1),
                        st.integers(0, num_vertices - 1),
                    ),
                    max_size=8,
                ),
            ),
            max_size=4,
        )
    )
    return num_vertices, edges, batches


class TestAgainstSetModel:
    @given(graph_and_batches())
    @settings(max_examples=60, deadline=None)
    def test_matches_python_set_semantics(self, data):
        num_vertices, edges, batches = data
        graph = CSRGraph.from_edges(set(edges), num_vertices=num_vertices)
        stream = StreamingGraph(graph)
        model = edge_set(graph)
        for additions, deletions in batches:
            batch = MutationBatch.from_edges(additions=additions,
                                             deletions=deletions)
            stream.apply_batch(batch)
            for edge in batch.deletions():
                model.discard(edge)
            for src, dst, _ in batch.additions():
                model.add((src, dst))
            assert edge_set(stream.graph) == model
