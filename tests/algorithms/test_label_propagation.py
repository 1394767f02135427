"""Semantic tests for Label Propagation."""

import numpy as np
import pytest

from repro.algorithms import LabelPropagation
from repro.algorithms.label_propagation import row_totals
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.ligra.engine import LigraEngine
from repro.runtime.exec import edge_contributions
from tests.conftest import label_mass


class TestConfiguration:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LabelPropagation(num_labels=1)
        with pytest.raises(ValueError):
            LabelPropagation(seed_every=0)


class TestSeeds:
    def test_seed_selection_deterministic_per_id(self):
        algo = LabelPropagation(num_labels=4, seed_every=5)
        ids = np.arange(1000)
        first = algo.seed_mask(ids)
        assert np.array_equal(first, algo.seed_mask(ids))
        # Roughly 1-in-seed_every of vertices are seeds.
        assert 100 < first.sum() < 320

    def test_seed_labels_stable_under_growth(self):
        algo = LabelPropagation()
        small = algo.seed_labels(np.arange(50))
        large = algo.seed_labels(np.arange(100))
        assert np.array_equal(small, large[:50])

    def test_initial_values(self):
        graph = rmat(scale=6, edge_factor=4, seed=1)
        algo = LabelPropagation(num_labels=4)
        values = algo.initial_values(graph)
        assert values.shape == (graph.num_vertices, 4)
        assert np.allclose(values.sum(axis=1), 1.0)
        ids = np.arange(graph.num_vertices)
        seeds = algo.seed_mask(ids)
        assert np.all(values[seeds].max(axis=1) == 1.0)


class TestSemantics:
    def test_distributions_stay_normalised(self):
        graph = rmat(scale=7, edge_factor=5, seed=2, weighted=True)
        values = LigraEngine(LabelPropagation(num_labels=3)).run(graph, 10)
        totals = values.sum(axis=1)
        assert np.allclose(totals, 1.0)

    def test_seeds_stay_clamped(self):
        graph = rmat(scale=7, edge_factor=5, seed=2, weighted=True)
        algo = LabelPropagation(num_labels=3)
        values = LigraEngine(algo).run(graph, 10)
        ids = np.arange(graph.num_vertices)
        seeds = algo.seed_mask(ids)
        labels = algo.seed_labels(ids[seeds])
        assert np.all(values[seeds][np.arange(seeds.sum()), labels] == 1.0)

    def test_label_flows_along_edges(self):
        algo = LabelPropagation(num_labels=3, seed_every=10**9)
        # No seeds; a two-vertex chain: vertex 1 inherits vertex 0's mix.
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=2)
        aggregate = edge_contributions(
            graph, algo, np.array([[0.2, 0.3, 0.5]]), np.array([0]),
            np.array([0]), np.array([2.0]),
        )
        assert np.allclose(aggregate, [[0.4, 0.6, 1.0]])

    def test_zero_mass_falls_back_to_uniform(self):
        algo = LabelPropagation(num_labels=4, seed_every=10**9)
        graph = CSRGraph.from_edges([], num_vertices=1)
        out = algo.apply(graph, np.zeros((1, 4)), np.array([0]))
        assert np.allclose(out, 0.25)

    def test_tiny_negative_residue_falls_back_to_uniform(self):
        # Float residue from incremental retraction must not be
        # normalised into garbage (regression test).
        algo = LabelPropagation(num_labels=2, seed_every=10**9)
        graph = CSRGraph.from_edges([], num_vertices=1)
        residue = np.array([[-1e-15, 5e-16]])
        out = algo.apply(graph, residue, np.array([0]))
        assert np.allclose(out, 0.5)


@pytest.mark.parametrize("num_labels", range(1, 13))
def test_row_totals_are_the_reduction_bit_for_bit(num_labels):
    mass = label_mass(500, num_labels, seed=num_labels)
    expect = mass.sum(axis=1)
    got = row_totals(mass)
    assert got.tobytes() == expect.tobytes()
    assert not np.signbit(got[:2]).any()       # -0.0 rows total +0.0


@pytest.mark.parametrize("num_labels", [2, 3, 5, 9])
def test_apply_equals_the_where_formula(num_labels):
    algo = LabelPropagation(num_labels=num_labels, seed_every=4)
    mass = label_mass(400, num_labels, seed=17 + num_labels)
    vertices = np.arange(mass.shape[0], dtype=np.int64)
    totals = mass.sum(axis=1, keepdims=True)
    safe = totals > 1e-9
    before = mass.tobytes()
    with np.errstate(invalid="ignore"):         # the inf row
        expect = np.where(safe, mass / np.where(safe, totals, 1.0),
                          1.0 / num_labels)
        got = algo.apply(None, mass, vertices)
    seeds = algo.seed_mask(vertices)
    expect[seeds] = 0.0
    expect[np.flatnonzero(seeds), algo.seed_labels(vertices[seeds])] = 1.0
    assert got.tobytes() == expect.tobytes()
    assert mass.tobytes() == before
