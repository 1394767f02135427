"""Semantic tests for PageRank, including a networkx cross-check."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.graph.generators import cycle_graph, rmat, star_graph
from repro.ligra.engine import LigraEngine
from repro.runtime.exec import edge_contributions


class TestBasics:
    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            PageRank(damping=1.5)
        with pytest.raises(ValueError):
            PageRank(damping=0.0)

    def test_initial_values_are_ones(self):
        graph = cycle_graph(4)
        assert np.all(PageRank().initial_values(graph) == 1.0)

    def test_no_in_edges_gets_base_rank(self):
        graph = star_graph(4, outward=True)
        ranks = LigraEngine(PageRank()).run(graph, 10)
        # The hub has no in-edges, so its steady rank is the base 0.15,
        # and each leaf receives a quarter of it through damping.
        assert np.isclose(ranks[0], 0.15)
        assert np.allclose(ranks[1:], 0.15 + 0.85 * (0.15 / 4))

    def test_cycle_is_uniform_fixpoint(self):
        graph = cycle_graph(6)
        ranks = LigraEngine(PageRank()).run(graph, 50)
        assert np.allclose(ranks, 1.0)

    def test_contribution_splits_by_degree(self):
        graph = star_graph(4, outward=True)
        algo = PageRank()
        contribs = edge_contributions(
            graph, algo, np.array([2.0]), np.array([0]), np.array([0]),
            np.array([1.0]),
        )
        assert contribs[0] == 0.5  # 2.0 / out_degree 4


class TestAgainstNetworkx:
    def test_matches_networkx_power_iteration(self):
        graph = rmat(scale=7, edge_factor=5, seed=8)
        src, dst, _ = graph.all_edges()
        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(range(graph.num_vertices))
        nx_graph.add_edges_from(zip(src.tolist(), dst.tolist()))

        iterations = 60
        ours = LigraEngine(PageRank()).run(graph, iterations)

        # networkx normalises ranks to sum 1 and spreads dangling mass;
        # replicate our formulation (per-vertex base, dangling dropped)
        # by running its generic power iteration with personalization off
        # and comparing *relative* orderings of the top vertices instead.
        theirs = nx.pagerank(nx_graph, alpha=0.85, max_iter=200, tol=1e-12)
        theirs_arr = np.array([theirs[v] for v in range(graph.num_vertices)])

        top_ours = np.argsort(ours)[-20:]
        top_theirs = np.argsort(theirs_arr)[-20:]
        overlap = len(set(top_ours.tolist()) & set(top_theirs.tolist()))
        assert overlap >= 15
