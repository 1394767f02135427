"""Unit tests for graph statistics and degree bands."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat, star_graph
from repro.graph.properties import (
    degree_percentile_vertices,
    graph_stats,
)


class TestGraphStats:
    def test_basic_counts(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)],
                                    num_vertices=5)
        stats = graph_stats(graph)
        assert stats.num_vertices == 5
        assert stats.num_edges == 3
        assert stats.max_out_degree == 2
        assert stats.max_in_degree == 2
        assert stats.isolated_vertices == 2

    def test_star_skew_positive(self):
        stats = graph_stats(star_graph(50))
        assert stats.degree_skew > 1.0

    def test_empty_graph(self):
        stats = graph_stats(CSRGraph.from_edges([], num_vertices=3))
        assert stats.mean_degree == 0.0
        assert stats.degree_skew == 0.0

    def test_as_dict_keys(self):
        stats = graph_stats(star_graph(3))
        assert set(stats.as_dict()) == {
            "vertices", "edges", "max_out_degree", "max_in_degree",
            "mean_degree", "degree_skew", "isolated",
        }


class TestDegreeBands:
    def test_bands_partition_by_degree(self):
        graph = rmat(scale=8, edge_factor=6, seed=1)
        degrees = graph.out_degrees()
        low = degree_percentile_vertices(graph, 0.0, 0.4)
        high = degree_percentile_vertices(graph, 0.9, 1.0)
        assert degrees[low].max() <= degrees[high].min()

    def test_zero_degree_excluded(self):
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=4)
        band = degree_percentile_vertices(graph, 0.0, 1.0)
        assert band.tolist() == [0]

    def test_full_band_covers_all_active(self):
        graph = rmat(scale=7, edge_factor=4, seed=2)
        band = degree_percentile_vertices(graph, 0.0, 1.0)
        assert band.size == int((graph.out_degrees() > 0).sum())

    def test_invalid_band(self):
        graph = star_graph(3)
        with pytest.raises(ValueError):
            degree_percentile_vertices(graph, 0.8, 0.2)
        with pytest.raises(ValueError):
            degree_percentile_vertices(graph, -0.1, 0.5)

    def test_bands_rank_by_out_degree(self):
        graph = star_graph(10, outward=True)
        band = degree_percentile_vertices(graph, 0.0, 1.0)
        # Only the hub has out-edges; the leaves' in-edges do not count.
        assert band.tolist() == [0]

    def test_empty_graph_band(self):
        graph = CSRGraph.from_edges([], num_vertices=3)
        assert degree_percentile_vertices(graph, 0.0, 1.0).size == 0
