"""Unit tests for the gather kernels the Ligra-style engines run on
(``edgeMap``'s push and pull counterparts, ``repro.runtime.exec``)."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.runtime.exec import gather_in, gather_out
from repro.runtime.metrics import EngineMetrics


@pytest.fixture
def graph():
    return CSRGraph.from_edges(
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)], num_vertices=4
    )


class TestEdgeMap:
    def test_gathers_frontier_out_edges(self, graph):
        src, dst, _ = gather_out(graph, np.array([0, 2]))
        assert sorted(zip(src.tolist(), dst.tolist())) == [
            (0, 1), (0, 2), (2, 3),
        ]

    def test_counts_edges(self, graph):
        metrics = EngineMetrics()
        gather_out(graph, np.array([0]), metrics)
        assert metrics.edge_computations == 2


class TestPullEdges:
    def test_gathers_in_edges(self, graph):
        metrics = EngineMetrics()
        src, dst, _ = gather_in(graph, np.array([2]), metrics)
        assert sorted(src.tolist()) == [0, 1]
        assert dst.tolist() == [2, 2]
        assert metrics.edge_computations == 2
