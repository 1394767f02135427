"""Semantic tests for Collaborative Filtering (ALS)."""

import numpy as np
import pytest

from repro.algorithms import CollaborativeFiltering
from repro.graph.csr import CSRGraph
from repro.graph.generators import bipartite_graph
from repro.ligra.engine import LigraEngine
from repro.runtime.exec import edge_contributions


class TestConfiguration:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CollaborativeFiltering(num_factors=0)
        with pytest.raises(ValueError):
            CollaborativeFiltering(regulariser=0.0)

    def test_aggregation_shape_is_pair(self):
        algo = CollaborativeFiltering(num_factors=4)
        assert algo.aggregation_shape == (4 * 5,)

    def test_initial_values_deterministic_and_bounded(self):
        graph = bipartite_graph(10, 5, 3, seed=1)
        algo = CollaborativeFiltering(num_factors=3)
        values = algo.initial_values(graph)
        assert values.shape == (15, 3)
        assert np.all((values >= 0.1) & (values <= 0.9))
        assert np.array_equal(values, algo.initial_values(graph))


class TestDecomposition:
    def test_contribution_layout(self):
        algo = CollaborativeFiltering(num_factors=2)
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=2)
        vec = np.array([[1.0, 2.0]])
        contrib = edge_contributions(graph, algo, vec, np.array([0]),
                                     np.array([0]), np.array([3.0]))
        # <flattened outer product | weighted vector>
        assert contrib[0].tolist() == [1.0, 2.0, 2.0, 4.0, 3.0, 6.0]

    def test_apply_solves_regularised_normal_equations(self):
        algo = CollaborativeFiltering(num_factors=2, regulariser=0.5)
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=2)
        vec = np.array([1.0, 2.0])
        weight = 3.0
        aggregate = np.concatenate(
            [np.outer(vec, vec).reshape(-1), vec * weight]
        )[None, :]
        out = algo.apply(graph, aggregate, np.array([1]))
        expected = np.linalg.solve(
            np.outer(vec, vec) + 0.5 * np.eye(2), vec * weight
        )
        assert np.allclose(out[0], expected)

    def test_no_ratings_gives_zero_vector(self):
        algo = CollaborativeFiltering(num_factors=3, regulariser=1.0)
        graph = CSRGraph.from_edges([], num_vertices=1)
        out = algo.apply(graph, np.zeros((1, 12)), np.array([0]))
        assert np.allclose(out, 0.0)


class TestTraining:
    def test_reduces_rating_reconstruction_error(self):
        graph = bipartite_graph(60, 30, 6, seed=9)
        algo = CollaborativeFiltering(num_factors=4, regulariser=0.3)

        def reconstruction_error(values):
            src, dst, weight = graph.all_edges()
            predicted = np.einsum("ek,ek->e", values[src], values[dst])
            return float(np.mean((predicted - weight) ** 2))

        # Synchronous (Jacobi) ALS updates both sides simultaneously, so
        # convergence is slow and oscillatory -- the BSP formulation the
        # paper benchmarks is a workload, not a tuned recommender.  The
        # error must still improve on the random initialisation.
        initial_error = reconstruction_error(algo.initial_values(graph))
        trained = LigraEngine(algo).run(graph, 20)
        trained_error = reconstruction_error(trained)
        assert trained_error < initial_error

    def test_values_stay_finite(self):
        graph = bipartite_graph(40, 20, 4, seed=10)
        values = LigraEngine(CollaborativeFiltering(num_factors=3)).run(
            graph, 10
        )
        assert np.all(np.isfinite(values))
