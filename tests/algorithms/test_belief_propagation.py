"""Semantic tests for Belief Propagation."""

import numpy as np
import pytest

from repro.algorithms import BeliefPropagation
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat, star_graph
from repro.ligra.engine import LigraEngine


class TestConfiguration:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BeliefPropagation(num_states=1)
        with pytest.raises(ValueError):
            BeliefPropagation(coupling=1.0)

    def test_psi_rows_sum_to_one(self):
        algo = BeliefPropagation(num_states=3, coupling=0.4)
        assert np.allclose(algo.psi.sum(axis=1), 1.0)
        assert np.all(algo.psi > 0)

    def test_priors_near_uniform_and_deterministic(self):
        algo = BeliefPropagation(num_states=2)
        phi = algo.priors(np.arange(100))
        assert np.all((phi >= 0.45) & (phi <= 0.55))
        assert np.array_equal(phi, algo.priors(np.arange(100)))


class TestSemantics:
    def test_values_are_distributions(self):
        graph = rmat(scale=7, edge_factor=5, seed=4, weighted=True)
        values = LigraEngine(BeliefPropagation(num_states=3)).run(graph, 10)
        assert np.allclose(values.sum(axis=1), 1.0)
        assert np.all(values > 0)

    def test_no_in_edges_is_uniform(self):
        graph = star_graph(3, outward=True)
        values = LigraEngine(BeliefPropagation(num_states=2)).run(graph, 5)
        assert np.allclose(values[0], 0.5)

    def test_contributions_unit_geometric_mean(self):
        algo = BeliefPropagation(num_states=3)
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=2)
        logs = algo.message(graph, np.array([0]),
                            np.array([[0.2, 0.3, 0.5]]))
        assert algo.edge_operator is None   # the message is the contribution
        assert np.allclose(logs.mean(axis=1), 0.0)

    def test_hub_products_stay_finite(self):
        # A 3000-leaf hub would underflow a direct product; log space
        # must stay finite and normalised.
        graph = star_graph(3000, outward=False)
        values = LigraEngine(BeliefPropagation(num_states=2)).run(graph, 3)
        assert np.all(np.isfinite(values))
        assert np.allclose(values.sum(axis=1), 1.0)

    def test_beliefs_readout(self):
        graph = rmat(scale=6, edge_factor=4, seed=4, weighted=True)
        algo = BeliefPropagation(num_states=2)
        values = LigraEngine(algo).run(graph, 5)
        # Beliefs are normalise(phi(v) * product(v)): every row is a
        # positive, finite mass, so the readout is well defined.
        raw = algo.priors(np.arange(graph.num_vertices)) * values
        assert np.all(np.isfinite(raw)) and np.all(raw > 0)
        beliefs = raw / raw.sum(axis=1, keepdims=True)
        assert beliefs.shape == values.shape
        assert np.allclose(beliefs.sum(axis=1), 1.0)

    def test_coupling_pulls_neighbors_together(self):
        # With a strongly diagonal psi, a vertex fed by a biased source
        # leans toward the source's state.
        algo = BeliefPropagation(num_states=2, coupling=0.8)
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=2)
        biased = np.array([[0.9, 0.1]])
        logs = algo.message(graph, np.array([0]), biased)
        assert logs[0, 0] > logs[0, 1]
