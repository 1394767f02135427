"""Unit tests for the CSR/CSC snapshot structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph, _ranges
from tests.conftest import edge_set, edge_weights


def simple_graph():
    return CSRGraph.from_edges(
        [(0, 1), (0, 2), (1, 2), (2, 0), (3, 1)], num_vertices=4
    )


class TestConstruction:
    def test_shape(self):
        graph = simple_graph()
        assert graph.num_vertices == 4
        assert graph.num_edges == 5

    def test_empty_graph(self):
        graph = CSRGraph.from_edges([], num_vertices=3)
        assert graph.num_vertices == 3
        assert graph.num_edges == 0
        assert graph.out_neighbors(0).size == 0

    def test_zero_vertices(self):
        graph = CSRGraph.from_edges([], num_vertices=0)
        assert graph.num_vertices == 0

    def test_from_edges_infers_vertex_count(self):
        graph = CSRGraph.from_edges([(0, 7)])
        assert graph.num_vertices == 8

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph(2, np.array([0]), np.array([5]))

    def test_rejects_negative_endpoint(self):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            CSRGraph(3, [-1], [0])

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError, match="same shape"):
            CSRGraph(3, np.array([0, 1]), np.array([1]))

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError, match="weight"):
            CSRGraph(3, np.array([0]), np.array([1]), np.array([1.0, 2.0]))

    def test_default_weights_are_ones(self):
        graph = simple_graph()
        assert np.all(graph.out_weights == 1.0)

    def test_constructor_copies_input(self):
        src = np.array([0, 1])
        dst = np.array([1, 2])
        graph = CSRGraph(3, src, dst)
        src[0] = 2
        assert (0, 1) in edge_set(graph)

    def test_edges_with_no_vertices_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(0, np.array([0]), np.array([0]))


class TestNeighborhoods:
    def test_out_neighbors_sorted(self):
        graph = CSRGraph.from_edges([(0, 3), (0, 1), (0, 2)])
        assert graph.out_neighbors(0).tolist() == [1, 2, 3]

    def test_in_neighbors_sorted(self):
        graph = CSRGraph.from_edges([(3, 0), (1, 0), (2, 0)])
        assert graph.in_neighbors(0).tolist() == [1, 2, 3]

    def test_degrees(self):
        graph = simple_graph()
        assert graph.out_degrees().tolist() == [2, 1, 1, 1]
        assert graph.in_degrees().tolist() == [1, 2, 2, 0]

    def test_has_edge(self):
        edges = edge_set(simple_graph())
        assert (0, 1) in edges
        assert (1, 0) not in edges
        assert (3, 3) not in edges

    def test_edge_weight(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], weights=[2.5, 0.5])
        assert edge_weights(graph) == {(0, 1): 2.5, (1, 2): 0.5}

    def test_weights_follow_sorting(self):
        graph = CSRGraph.from_edges([(0, 2), (0, 1)], weights=[2.0, 1.0])
        assert graph.out_edges_of(np.array([0]))[2].tolist() == [1.0, 2.0]
        assert graph.in_edges_of(np.array([2]))[2].tolist() == [2.0]

    def test_in_weight_sums(self):
        graph = CSRGraph.from_edges(
            [(0, 2), (1, 2), (2, 0)], weights=[1.5, 2.0, 0.5]
        )
        assert graph.in_weight_sums().tolist() == [0.5, 0.0, 3.5]


class TestGathers:
    def test_all_edges_roundtrip(self):
        graph = simple_graph()
        src, dst, weight = graph.all_edges()
        assert set(zip(src.tolist(), dst.tolist())) == {
            (0, 1), (0, 2), (1, 2), (2, 0), (3, 1),
        }
        assert weight.size == 5

    def test_out_edges_of_subset(self):
        graph = simple_graph()
        src, dst, _ = graph.out_edges_of(np.array([0, 3]))
        assert sorted(zip(src.tolist(), dst.tolist())) == [
            (0, 1), (0, 2), (3, 1),
        ]

    def test_out_edges_of_empty(self):
        graph = simple_graph()
        src, dst, weight = graph.out_edges_of(np.array([], dtype=np.int64))
        assert src.size == dst.size == weight.size == 0

    def test_out_edges_of_isolated_vertex(self):
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=3)
        src, dst, _ = graph.out_edges_of(np.array([2]))
        assert src.size == 0

    def test_in_edges_of_subset(self):
        graph = simple_graph()
        src, dst, _ = graph.in_edges_of(np.array([1, 2]))
        assert sorted(zip(src.tolist(), dst.tolist())) == [
            (0, 1), (0, 2), (1, 2), (3, 1),
        ]

    def test_in_edges_grouped_by_target(self):
        graph = simple_graph()
        _, dst, _ = graph.in_edges_of(np.array([2, 1]))
        # Groups appear in the order requested, contiguous per target.
        assert dst.tolist() == [2, 2, 1, 1]

    def test_out_edge_slots_alignment(self):
        graph = simple_graph()
        src, slots = graph.out_edge_slots(np.array([0, 2]))
        assert src.tolist() == [0, 0, 2]
        assert graph.out_targets[slots].tolist() == [1, 2, 0]

    def test_repeated_vertices_gather_repeatedly(self):
        graph = simple_graph()
        src, dst, _ = graph.out_edges_of(np.array([1, 1]))
        assert src.tolist() == [1, 1]
        assert dst.tolist() == [2, 2]


class TestConversions:
    def test_edge_set(self):
        assert edge_set(simple_graph()) == {
            (0, 1), (0, 2), (1, 2), (2, 0), (3, 1),
        }

    def test_nbytes_positive(self):
        assert simple_graph().nbytes > 0

    def test_repr(self):
        assert "V=4" in repr(simple_graph())


class TestRangesHelper:
    def test_basic(self):
        starts = np.array([0, 5, 9])
        stops = np.array([3, 5, 11])
        assert _ranges(starts, stops).tolist() == [0, 1, 2, 9, 10]

    def test_all_empty(self):
        starts = np.array([4, 7])
        stops = np.array([4, 7])
        assert _ranges(starts, stops).size == 0

    def test_no_segments(self):
        assert _ranges(np.array([], dtype=np.int64),
                       np.array([], dtype=np.int64)).size == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 10)),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_concatenation(self, segments):
        starts = np.array([s for s, _ in segments], dtype=np.int64)
        stops = starts + np.array([l for _, l in segments], dtype=np.int64)
        expected = np.concatenate(
            [np.arange(s, e) for s, e in zip(starts, stops)]
        ) if segments else np.empty(0, dtype=np.int64)
        assert _ranges(starts, stops).tolist() == expected.tolist()


class TestFastPaths:
    """The presorted / from_canonical construct-from-store fast paths
    must match the sorting constructor bit-for-bit -- and provably skip
    the O(E log E) re-sort (satellite regression pin)."""

    def _canonical_edges(self):
        graph = simple_graph()
        src, dst, weight = graph.all_edges()  # already (src, dst) order
        return graph, src, dst, weight

    def test_presorted_matches_sorting_constructor(self):
        graph, src, dst, weight = self._canonical_edges()
        fast = CSRGraph(graph.num_vertices, src, dst, weight,
                        presorted=True)
        for name in ("out_offsets", "out_targets", "out_weights",
                     "in_offsets", "in_sources", "in_weights"):
            assert np.array_equal(getattr(graph, name),
                                  getattr(fast, name)), name

    def test_presorted_rejects_unsorted_input(self):
        with pytest.raises(ValueError, match="not in .src, dst. order"):
            CSRGraph(3, np.array([1, 0]), np.array([0, 1]),
                     presorted=True)

    def test_presorted_skips_edge_lexsort(self, monkeypatch):
        """Regression pin: the presorted path must never call
        ``np.lexsort`` (the O(E log E) CSR-side re-sort)."""
        graph, src, dst, weight = self._canonical_edges()

        def forbidden(*args, **kwargs):
            raise AssertionError("presorted path re-sorted the edges")

        monkeypatch.setattr(np, "lexsort", forbidden)
        fast = CSRGraph(graph.num_vertices, src, dst, weight,
                        presorted=True)
        assert fast.num_edges == graph.num_edges

    def test_from_canonical_skips_all_sorts_and_copies(self, monkeypatch):
        """Regression pin: the store-load path does zero sorting and
        adopts the arrays by reference (memmap views stay memmaps)."""
        graph = simple_graph()
        arrays = {name: getattr(graph, name)
                  for name in ("out_offsets", "out_targets",
                               "out_weights", "in_offsets",
                               "in_sources", "in_weights")}

        def forbidden(*args, **kwargs):
            raise AssertionError("from_canonical sorted something")

        monkeypatch.setattr(np, "lexsort", forbidden)
        monkeypatch.setattr(np, "argsort", forbidden)
        adopted = CSRGraph.from_canonical(graph.num_vertices, **arrays)
        for name, array in arrays.items():
            assert getattr(adopted, name) is array, name

    def test_from_canonical_validates_offsets(self):
        graph = simple_graph()
        bad = graph.out_offsets.copy()
        bad[-1] += 1
        with pytest.raises(ValueError, match="disagree with edges"):
            CSRGraph.from_canonical(
                graph.num_vertices, bad, graph.out_targets,
                graph.out_weights, graph.in_offsets, graph.in_sources,
                graph.in_weights,
            )
