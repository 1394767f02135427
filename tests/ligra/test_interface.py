"""Unit tests for edge_map / vertex_map / pull_edges."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.ligra.frontier import VertexSubset
from repro.ligra.interface import edge_map, pull_edges, vertex_map
from repro.runtime.metrics import EngineMetrics


@pytest.fixture
def graph():
    return CSRGraph.from_edges(
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)], num_vertices=4
    )


class TestEdgeMap:
    def test_gathers_frontier_out_edges(self, graph):
        frontier = VertexSubset.from_ids(4, [0, 2])
        src, dst, _ = edge_map(graph, frontier)
        assert sorted(zip(src.tolist(), dst.tolist())) == [
            (0, 1), (0, 2), (2, 3),
        ]

    def test_counts_edges(self, graph):
        metrics = EngineMetrics()
        edge_map(graph, VertexSubset.from_ids(4, [0]), metrics=metrics)
        assert metrics.edge_computations == 2

    def test_kernel_invoked(self, graph):
        seen = []
        edge_map(
            graph, VertexSubset.from_ids(4, [3]),
            kernel=lambda s, d, w: seen.append((s.tolist(), d.tolist())),
        )
        assert seen == [([3], [0])]


class TestPullEdges:
    def test_gathers_in_edges(self, graph):
        metrics = EngineMetrics()
        src, dst, _ = pull_edges(graph, np.array([2]), metrics=metrics)
        assert sorted(src.tolist()) == [0, 1]
        assert dst.tolist() == [2, 2]
        assert metrics.edge_computations == 2


class TestVertexMap:
    def test_returns_flagged_subset(self, graph):
        frontier = VertexSubset.from_ids(4, [0, 1, 2])
        result = vertex_map(frontier, lambda ids: ids % 2 == 0)
        assert result.ids.tolist() == [0, 2]

    def test_counts_vertices(self, graph):
        metrics = EngineMetrics()
        vertex_map(VertexSubset.from_ids(4, [0, 1]),
                   lambda ids: np.ones(ids.size, dtype=bool),
                   metrics=metrics)
        assert metrics.vertex_computations == 2

    def test_shape_mismatch_rejected(self, graph):
        with pytest.raises(ValueError):
            vertex_map(VertexSubset.from_ids(4, [0, 1]),
                       lambda ids: np.ones(1, dtype=bool))
