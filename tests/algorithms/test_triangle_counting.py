"""Tests for triangle counting: baseline, incremental, and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.triangle_counting import (
    IncrementalTriangleCounting,
    _canonical,
    triangle_counts,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph, cycle_graph, rmat
from repro.graph.mutation import MutationBatch
from repro.runtime.metrics import EngineMetrics
from tests.conftest import edge_set, make_random_batch


def brute_force(graph):
    """Reference: enumerate all directed 3-cycles."""
    edges = edge_set(graph)
    count = 0
    per_vertex = np.zeros(graph.num_vertices, dtype=np.int64)
    vertices = range(graph.num_vertices)
    for u in vertices:
        for v in graph.out_neighbors(u).tolist():
            for w in graph.out_neighbors(v).tolist():
                if (w, u) in edges and u < v and u < w:
                    count += 1
                    per_vertex[[u, v, w]] += 1
    return per_vertex, count


class TestCanonical:
    def test_rotations_equal(self):
        assert _canonical(1, 2, 3) == _canonical(2, 3, 1) == _canonical(3, 1, 2)

    def test_distinct_triangles_differ(self):
        assert _canonical(1, 2, 3) != _canonical(1, 3, 2)


class TestFullCount:
    def test_directed_triangle(self):
        graph = cycle_graph(3)
        result = triangle_counts(graph)
        assert result.total == 1
        assert result.per_vertex.tolist() == [1, 1, 1]

    def test_undirected_pair_is_two_cycles(self):
        edges = [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]
        graph = CSRGraph.from_edges(edges, num_vertices=3)
        assert triangle_counts(graph).total == 2

    def test_no_triangles_in_a_cycle4(self):
        assert triangle_counts(cycle_graph(4)).total == 0

    def test_complete_graph(self):
        # K4 directed both ways: each vertex triple forms 2 directed
        # 3-cycles, and C(4,3) = 4 triples.
        assert triangle_counts(complete_graph(4)).total == 8

    def test_matches_brute_force(self):
        graph = rmat(scale=6, edge_factor=5, seed=15)
        per_vertex, total = brute_force(graph)
        result = triangle_counts(graph)
        assert result.total == total
        assert np.array_equal(result.per_vertex, per_vertex)

    def test_counts_edge_work(self):
        metrics = EngineMetrics()
        triangle_counts(cycle_graph(3), metrics)
        assert metrics.edge_computations > 0


class TestIncremental:
    def test_addition_creates_triangle(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        counter = IncrementalTriangleCounting(graph)
        assert counter.total == 0
        counter.apply_mutations(MutationBatch.from_edges(additions=[(2, 0)]))
        assert counter.total == 1
        assert counter.per_vertex.tolist() == [1, 1, 1]

    def test_deletion_destroys_triangle(self):
        counter = IncrementalTriangleCounting(cycle_graph(3))
        counter.apply_mutations(MutationBatch.from_edges(deletions=[(0, 1)]))
        assert counter.total == 0
        assert counter.per_vertex.tolist() == [0, 0, 0]

    def test_multi_mutated_triangle_not_double_counted(self):
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=3)
        counter = IncrementalTriangleCounting(graph)
        counter.apply_mutations(
            MutationBatch.from_edges(additions=[(1, 2), (2, 0)])
        )
        assert counter.total == 1

    def test_vertex_growth(self):
        counter = IncrementalTriangleCounting(cycle_graph(3))
        counter.apply_mutations(
            MutationBatch.from_edges(additions=[(2, 3), (3, 0)])
        )
        assert counter.per_vertex.size == 4
        assert counter.total == 1  # original triangle intact

    def test_stream_matches_recompute(self, rng):
        graph = rmat(scale=7, edge_factor=6, seed=16)
        counter = IncrementalTriangleCounting(graph)
        for _ in range(6):
            counter.apply_mutations(
                make_random_batch(counter.graph, rng, 20, 20,
                                  weighted=False)
            )
        expected = triangle_counts(counter.graph)
        assert counter.total == expected.total
        assert np.array_equal(counter.per_vertex, expected.per_vertex)

    def test_incremental_work_is_local(self, rng):
        graph = rmat(scale=9, edge_factor=8, seed=17)
        counter = IncrementalTriangleCounting(graph)
        recount_metrics = EngineMetrics()
        triangle_counts(graph, recount_metrics)
        before = counter.metrics.snapshot()
        counter.apply_mutations(
            make_random_batch(counter.graph, rng, 5, 5, weighted=False)
        )
        delta = counter.metrics.delta_since(before)
        assert delta.edge_computations < (
            recount_metrics.edge_computations * 0.05
        )

    def test_dependency_bytes_reports_retained_structure(self):
        counter = IncrementalTriangleCounting(cycle_graph(3))
        assert counter.dependency_bytes() == counter.per_vertex.nbytes
        counter.apply_mutations(MutationBatch.from_edges(additions=[(0, 2)]))
        assert counter.dependency_bytes() > counter.per_vertex.nbytes


@st.composite
def evolving_graph(draw):
    num_vertices = draw(st.integers(3, 10))
    def edge():
        return st.tuples(
            st.integers(0, num_vertices - 1),
            st.integers(0, num_vertices - 1),
        ).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(edge(), max_size=25))
    batches = draw(
        st.lists(
            st.tuples(st.lists(edge(), max_size=6),
                      st.lists(edge(), max_size=6)),
            max_size=3,
        )
    )
    return num_vertices, edges, batches


class TestIncrementalProperty:
    @given(evolving_graph())
    @settings(max_examples=50, deadline=None)
    def test_always_matches_recompute(self, data):
        num_vertices, edges, batches = data
        graph = CSRGraph.from_edges(set(edges), num_vertices=num_vertices)
        counter = IncrementalTriangleCounting(graph)
        for additions, deletions in batches:
            counter.apply_mutations(
                MutationBatch.from_edges(additions=additions,
                                         deletions=deletions)
            )
            expected = triangle_counts(counter.graph)
            assert counter.total == expected.total
            assert np.array_equal(counter.per_vertex, expected.per_vertex)
