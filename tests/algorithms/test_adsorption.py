"""Semantic + refinement tests for Adsorption."""

import numpy as np
import pytest

from repro.algorithms import Adsorption
from repro.core.engine import GraphBoltEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.ligra.engine import LigraEngine
from tests.conftest import label_mass, make_random_batch


class TestConfiguration:
    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            Adsorption(injection=0.0)
        with pytest.raises(ValueError):
            Adsorption(injection=0.9, abandonment=0.2)
        with pytest.raises(ValueError):
            Adsorption(num_labels=1)


class TestSemantics:
    def test_values_are_distributions(self):
        graph = rmat(scale=7, edge_factor=5, seed=95, weighted=True)
        values = LigraEngine(Adsorption(num_labels=3)).run(graph, 10)
        assert np.allclose(values.sum(axis=1), 1.0)
        assert values.min() >= 0.0

    def test_abandonment_floors_every_label(self):
        graph = rmat(scale=6, edge_factor=4, seed=96, weighted=True)
        algo = Adsorption(num_labels=4, abandonment=0.2)
        values = LigraEngine(algo).run(graph, 10)
        assert values.min() >= 0.2 / 4 - 1e-12

    def test_seeds_lean_toward_injected_label(self):
        graph = rmat(scale=7, edge_factor=5, seed=97, weighted=True)
        algo = Adsorption(num_labels=3, injection=0.7)
        values = LigraEngine(algo).run(graph, 10)
        ids = np.arange(graph.num_vertices)
        seeds = np.flatnonzero(algo.seed_mask(ids))
        injected = algo.injected_labels(seeds).argmax(axis=1)
        assert (values[seeds].argmax(axis=1) == injected).mean() > 0.9

    def test_soft_seeds_differ_from_clamping(self):
        # Unlike LP, a seed's distribution is a mixture, not one-hot.
        graph = rmat(scale=6, edge_factor=4, seed=98, weighted=True)
        algo = Adsorption(num_labels=3, injection=0.6)
        values = LigraEngine(algo).run(graph, 10)
        seeds = np.flatnonzero(algo.seed_mask(np.arange(graph.num_vertices)))
        assert values[seeds].max() < 1.0

    def test_isolated_vertex_mix(self):
        algo = Adsorption(num_labels=2, injection=0.6, abandonment=0.1,
                          seed_every=10**9)
        graph = CSRGraph.from_edges([], num_vertices=1)
        out = algo.apply(graph, np.zeros((1, 2)), np.array([0]))
        # No seeds, no in-mass: continuation + abandonment of uniform.
        assert np.allclose(out, 0.5)


@pytest.mark.parametrize("num_labels", [2, 3, 4])
def test_apply_equals_the_where_formula(num_labels):
    algo = Adsorption(num_labels=num_labels)
    mass = label_mass(400, num_labels, seed=31 + num_labels)
    vertices = np.arange(mass.shape[0], dtype=np.int64)
    totals = mass.sum(axis=1, keepdims=True)
    safe = totals > 1e-9
    before = mass.tobytes()
    with np.errstate(invalid="ignore"):         # the inf row
        propagated = np.where(safe, mass / np.where(safe, totals, 1.0),
                              1.0 / num_labels)
        got = algo.apply(None, mass, vertices)
    p_inj, p_cont, p_abnd = algo._probabilities(vertices)
    expect = (p_inj[:, None] * algo.injected_labels(vertices)
              + p_cont[:, None] * propagated
              + p_abnd[:, None] * (1.0 / num_labels))
    assert got.tobytes() == expect.tobytes()
    assert mass.tobytes() == before


class TestRefinement:
    def test_refinement_equals_scratch(self, rng):
        graph = rmat(scale=8, edge_factor=6, seed=99, weighted=True)
        engine = GraphBoltEngine(Adsorption(num_labels=3),
                                 num_iterations=10)
        engine.run(graph)
        for _ in range(3):
            engine.apply_mutations(
                make_random_batch(engine.graph, rng, 15, 15)
            )
        truth = LigraEngine(Adsorption(num_labels=3)).run(engine.graph, 10)
        assert np.allclose(engine.values, truth, atol=1e-7)
