"""Semantic tests for SSSP/BFS/CC, cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import BFS, ConnectedComponents, SSSP
from repro.graph.csr import CSRGraph
from repro.graph.generators import cycle_graph, rmat
from repro.ligra.delta import ITERATION_CAP
from repro.ligra.engine import LigraEngine


def to_networkx(graph):
    nx_graph = nx.DiGraph()
    nx_graph.add_nodes_from(range(graph.num_vertices))
    src, dst, weight = graph.all_edges()
    for u, v, w in zip(src.tolist(), dst.tolist(), weight.tolist()):
        nx_graph.add_edge(u, v, weight=w)
    return nx_graph


class TestSSSP:
    def test_invalid_source(self):
        with pytest.raises(ValueError):
            SSSP(source=-1)

    def test_matches_networkx_dijkstra(self):
        graph = rmat(scale=8, edge_factor=5, seed=12, weighted=True)
        ours = LigraEngine(SSSP(source=0)).run(graph, ITERATION_CAP)
        theirs = nx.single_source_dijkstra_path_length(
            to_networkx(graph), 0
        )
        for vertex in range(graph.num_vertices):
            if vertex in theirs:
                assert np.isclose(ours[vertex], theirs[vertex]), vertex
            else:
                assert np.isinf(ours[vertex]), vertex

    def test_source_is_zero(self):
        graph = cycle_graph(5)
        distances = LigraEngine(SSSP(source=2)).run(graph, ITERATION_CAP)
        assert distances[2] == 0.0
        assert distances[3] == 1.0
        assert distances[1] == 4.0

    def test_unreachable_is_inf(self):
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=3)
        distances = LigraEngine(SSSP(source=0)).run(graph, 10)
        assert np.isinf(distances[2])

    def test_source_beyond_graph_all_inf(self):
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=2)
        distances = LigraEngine(SSSP(source=5)).run(graph, 5)
        assert np.all(np.isinf(distances))

    def test_values_changed_handles_inf(self):
        algo = SSSP(source=0)
        old = np.array([np.inf, np.inf, 1.0, 2.0])
        new = np.array([np.inf, 3.0, 1.0, 2.5])
        assert algo.values_changed(old, new).tolist() == [
            False, True, False, True,
        ]

    def test_apply_requires_previous(self):
        algo = SSSP(source=0)
        graph = cycle_graph(3)
        with pytest.raises(ValueError):
            algo.apply(graph, np.zeros(1), np.array([1]))


class TestBFS:
    def test_hop_counts(self):
        graph = CSRGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (0, 3)], num_vertices=4,
            weights=[9.0, 9.0, 9.0, 9.0],  # weights ignored by BFS
        )
        hops = LigraEngine(BFS(source=0)).run(graph, ITERATION_CAP)
        assert hops.tolist() == [0.0, 1.0, 2.0, 1.0]

    def test_matches_networkx_bfs(self):
        graph = rmat(scale=7, edge_factor=4, seed=13)
        ours = LigraEngine(BFS(source=0)).run(graph, ITERATION_CAP)
        theirs = nx.single_source_shortest_path_length(
            to_networkx(graph), 0
        )
        for vertex in range(graph.num_vertices):
            if vertex in theirs:
                assert ours[vertex] == theirs[vertex]
            else:
                assert np.isinf(ours[vertex])


class TestConnectedComponents:
    def test_symmetric_graph_components(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)]
        graph = CSRGraph.from_edges(edges, num_vertices=6)
        labels = LigraEngine(ConnectedComponents()).run(graph, ITERATION_CAP)
        assert labels[:3].tolist() == [0.0, 0.0, 0.0]
        assert labels[3:5].tolist() == [3.0, 3.0]
        assert labels[5] == 5.0

    def test_matches_networkx_weak_components(self):
        graph = rmat(scale=7, edge_factor=3, seed=14)
        src, dst, _ = graph.all_edges()
        # Symmetrise so min-label propagation is exact.
        sym = CSRGraph(
            graph.num_vertices,
            np.concatenate([src, dst]),
            np.concatenate([dst, src]),
        )
        ours = LigraEngine(ConnectedComponents()).run(sym, ITERATION_CAP)
        for component in nx.weakly_connected_components(to_networkx(graph)):
            members = sorted(component)
            assert np.all(ours[members] == min(members))
