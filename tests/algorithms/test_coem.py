"""Semantic tests for CoEM."""

import numpy as np

from repro.algorithms import CoEM
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.ligra.engine import LigraEngine
from repro.runtime.exec import edge_contributions


class TestSeeds:
    def test_seed_scores_binary(self):
        algo = CoEM()
        scores = algo.seed_scores(np.arange(100))
        assert set(np.unique(scores).tolist()) <= {0.0, 1.0}

    def test_initial_values(self):
        graph = rmat(scale=6, edge_factor=4, seed=1)
        algo = CoEM(default_score=0.3)
        values = algo.initial_values(graph)
        ids = np.arange(graph.num_vertices)
        seeds = algo.seed_mask(ids)
        assert np.all(
            (values[~seeds] == 0.3)
        )
        assert set(np.unique(values[seeds]).tolist()) <= {0.0, 1.0}


class TestSemantics:
    def test_scores_stay_in_unit_interval(self):
        graph = rmat(scale=7, edge_factor=5, seed=3, weighted=True)
        values = LigraEngine(CoEM()).run(graph, 10)
        assert values.min() >= 0.0
        assert values.max() <= 1.0

    def test_weighted_average_of_neighbors(self):
        # Vertex 2 has in-edges from 0 (score a, weight 2) and 1
        # (score b, weight 1): its value is (2a + b) / 3.
        graph = CSRGraph.from_edges([(0, 2), (1, 2)], num_vertices=3,
                                    weights=[2.0, 1.0])
        algo = CoEM(seed_every=10**9)
        values = np.array([0.9, 0.3, 0.0])
        contribs = edge_contributions(
            graph, algo, values, np.array([0, 1]), np.array([0, 1]),
            np.array([2.0, 1.0]),
        )
        aggregate = np.zeros(3)
        np.add.at(aggregate, [2, 2], contribs)
        out = algo.apply(graph, aggregate[[2]], np.array([2]))
        assert np.isclose(out[0], (2 * 0.9 + 0.3) / 3)

    def test_no_in_edges_keeps_default(self):
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=2)
        algo = CoEM(seed_every=10**9, default_score=0.2)
        out = algo.apply(graph, np.zeros(1), np.array([0]))
        assert out[0] == 0.2

    def test_seeds_clamped_in_apply(self):
        graph = rmat(scale=6, edge_factor=4, seed=3, weighted=True)
        algo = CoEM()
        values = LigraEngine(algo).run(graph, 5)
        ids = np.arange(graph.num_vertices)
        seeds = algo.seed_mask(ids)
        assert np.array_equal(values[seeds], algo.seed_scores(ids[seeds]))

    def test_in_weight_change_is_apply_param(self):
        from repro.graph.mutable import StreamingGraph
        from repro.graph.mutation import MutationBatch

        graph = CSRGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        mutation = StreamingGraph(graph).apply_batch(
            MutationBatch.from_edges(additions=[(0, 2)])
        )
        assert CoEM().apply_params_changed(mutation).tolist() == [2]
