"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graph import generators as gen
from tests.conftest import edge_set


def assert_simple(graph):
    """No self-loops, no duplicate edges."""
    src, dst, _ = graph.all_edges()
    assert np.all(src != dst)
    pairs = set(zip(src.tolist(), dst.tolist()))
    assert len(pairs) == graph.num_edges


class TestRmat:
    def test_shape_and_simplicity(self):
        graph = gen.rmat(scale=8, edge_factor=8, seed=1)
        assert graph.num_vertices == 256
        assert 0 < graph.num_edges <= 8 * 256
        assert_simple(graph)

    def test_deterministic(self):
        a = gen.rmat(scale=7, edge_factor=4, seed=9)
        b = gen.rmat(scale=7, edge_factor=4, seed=9)
        assert edge_set(a) == edge_set(b)

    def test_seed_changes_graph(self):
        a = gen.rmat(scale=7, edge_factor=4, seed=1)
        b = gen.rmat(scale=7, edge_factor=4, seed=2)
        assert edge_set(a) != edge_set(b)

    def test_skewed_degrees(self):
        graph = gen.rmat(scale=10, edge_factor=8, seed=3)
        degrees = graph.out_degrees()
        assert degrees.max() > 8 * degrees.mean()

    def test_weighted(self):
        graph = gen.rmat(scale=6, edge_factor=4, seed=1, weighted=True)
        weights = graph.out_weights
        assert np.all((weights >= 0.5) & (weights < 1.5))

    def test_invalid_partition(self):
        with pytest.raises(ValueError):
            gen.rmat(scale=5, a=0.5, b=0.5, c=0.5)


class TestErdosRenyi:
    def test_exact_edge_count(self):
        graph = gen.erdos_renyi(num_vertices=50, num_edges=200, seed=4)
        assert graph.num_edges == 200
        assert_simple(graph)

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            gen.erdos_renyi(num_vertices=3, num_edges=100)


class TestWattsStrogatz:
    def test_shape_and_simplicity(self):
        graph = gen.watts_strogatz(200, neighbors_each_side=3,
                                   rewire_probability=0.1, seed=7)
        assert graph.num_vertices == 200
        assert_simple(graph)

    def test_zero_rewiring_is_regular(self):
        graph = gen.watts_strogatz(50, neighbors_each_side=2,
                                   rewire_probability=0.0)
        assert np.all(graph.out_degrees() == 4)

    def test_invalid_neighbors(self):
        with pytest.raises(ValueError):
            gen.watts_strogatz(10, neighbors_each_side=0)


class TestDeterministicShapes:
    def test_star_outward(self):
        graph = gen.star_graph(5, outward=True)
        assert graph.out_degrees()[0] == 5
        assert graph.in_degrees()[0] == 0

    def test_star_inward(self):
        graph = gen.star_graph(5, outward=False)
        assert graph.in_degrees()[0] == 5

    def test_cycle(self):
        graph = gen.cycle_graph(6)
        assert graph.num_edges == 6
        assert np.all(graph.out_degrees() == 1)

    def test_complete(self):
        graph = gen.complete_graph(5)
        assert graph.num_edges == 20


class TestBipartite:
    def test_structure(self):
        graph = gen.bipartite_graph(num_users=20, num_items=10,
                                    edges_per_user=3, seed=8)
        assert graph.num_vertices == 30
        # Symmetric rating edges: every user edge has a mirror.
        src, dst, _ = graph.all_edges()
        edges = set(zip(src.tolist(), dst.tolist()))
        assert all((d, s) in edges for s, d in edges)

    def test_ratings_in_range(self):
        graph = gen.bipartite_graph(10, 5, 2, seed=9)
        weights = graph.out_weights
        assert np.all((weights >= 1) & (weights <= 5))


class TestPaperGraphs:
    def test_all_names_resolve(self):
        sizes = []
        for name in gen.PAPER_GRAPH_SCALES:
            graph = gen.paper_graph(name)
            sizes.append((name, graph.num_edges))
            assert_simple(graph)
        # The paper's size ordering is preserved.
        ordered = [edges for _, edges in sizes]
        assert ordered == sorted(ordered)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            gen.paper_graph("nope")

    def test_uk_is_high_locality(self):
        uk = gen.paper_graph("UK")
        tw = gen.paper_graph("TW")
        # The web stand-in is far less skewed than the social stand-ins.
        assert uk.out_degrees().max() < tw.out_degrees().max() / 4
