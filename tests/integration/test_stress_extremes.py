"""Stress tests at the extremes of the mutation space.

Failure-injection style coverage: batches that delete every edge, that
rebuild the graph from nothing, that dwarf the graph itself, and value
regimes (tiny/huge weights) that expose numerical fragility in
incremental retraction.
"""

import numpy as np
import pytest

from repro.algorithms import (
    BeliefPropagation,
    LabelPropagation,
    PageRank,
    SSSP,
)
from repro.core.engine import GraphBoltEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.mutation import MutationBatch
from repro.ligra.engine import LigraEngine
from tests.conftest import edge_set


def check_exact(engine, factory, iterations, tolerance=1e-6):
    truth = LigraEngine(factory()).run(engine.graph, iterations)
    actual = engine.values
    filled_a = np.where(np.isinf(actual), -1.0, actual)
    filled_t = np.where(np.isinf(truth), -1.0, truth)
    diff = np.abs(filled_a - filled_t)
    while diff.ndim > 1:
        diff = diff.max(axis=-1)
    assert diff.max() <= tolerance


@pytest.fixture
def graph():
    return rmat(scale=7, edge_factor=5, seed=100, weighted=True)


class TestTotalDestruction:
    def test_delete_every_edge(self, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=8)
        engine.run(graph)
        src, dst, _ = graph.all_edges()
        everything = MutationBatch.from_edges(
            deletions=list(zip(src.tolist(), dst.tolist()))
        )
        values = engine.apply_mutations(everything)
        assert engine.graph.num_edges == 0
        assert np.allclose(values, 0.15)
        check_exact(engine, lambda: PageRank(), 8)

    def test_rebuild_after_destruction(self, graph):
        engine = GraphBoltEngine(LabelPropagation(num_labels=3),
                                 num_iterations=8)
        engine.run(graph)
        src, dst, weight = graph.all_edges()
        engine.apply_mutations(MutationBatch.from_edges(
            deletions=list(zip(src.tolist(), dst.tolist()))
        ))
        engine.apply_mutations(MutationBatch.from_edges(
            additions=list(zip(src.tolist(), dst.tolist())),
            add_weights=weight.tolist(),
        ))
        assert edge_set(engine.graph) == edge_set(graph)
        check_exact(engine, lambda: LabelPropagation(num_labels=3), 8)

    def test_start_from_empty_graph(self):
        empty = CSRGraph.from_edges([], num_vertices=50)
        engine = GraphBoltEngine(PageRank(), num_iterations=6)
        engine.run(empty)
        rng = np.random.default_rng(5)
        additions = [
            (int(rng.integers(0, 50)), int(rng.integers(0, 50)))
            for _ in range(120)
        ]
        additions = [(u, v) for u, v in additions if u != v]
        engine.apply_mutations(MutationBatch.from_edges(additions))
        check_exact(engine, lambda: PageRank(), 6)


class TestBatchDwarfsGraph:
    def test_batch_larger_than_graph(self, graph):
        engine = GraphBoltEngine(LabelPropagation(num_labels=3),
                                 num_iterations=8)
        engine.run(graph)
        rng = np.random.default_rng(6)
        num_vertices = graph.num_vertices
        additions = {
            (int(rng.integers(0, num_vertices)),
             int(rng.integers(0, num_vertices)))
            for _ in range(graph.num_edges * 2)
        }
        additions = [(u, v) for u, v in additions if u != v]
        engine.apply_mutations(MutationBatch.from_edges(additions))
        check_exact(engine, lambda: LabelPropagation(num_labels=3), 8)


class TestWeightExtremes:
    def test_tiny_and_huge_weights(self, graph):
        engine = GraphBoltEngine(LabelPropagation(num_labels=3),
                                 num_iterations=8)
        engine.run(graph)
        src, dst, _ = graph.all_edges()
        replace = [(int(src[i]), int(dst[i])) for i in range(10)]
        weights = [1e-12, 1e12] * 5
        engine.apply_mutations(MutationBatch.from_edges(
            additions=replace, deletions=replace, add_weights=weights,
        ))
        assert np.isfinite(engine.values).all()
        check_exact(engine, lambda: LabelPropagation(num_labels=3), 8,
                    tolerance=1e-5)

    def test_bp_survives_weight_extremes(self, graph):
        # BP's contributions ignore weights, but degree churn from the
        # same batch exercises the log-product retraction path.
        engine = GraphBoltEngine(BeliefPropagation(num_states=2),
                                 num_iterations=8)
        engine.run(graph)
        rng = np.random.default_rng(7)
        src, dst, _ = graph.all_edges()
        idx = rng.choice(src.size, size=40, replace=False)
        engine.apply_mutations(MutationBatch.from_edges(
            additions=[(int(rng.integers(0, 128)),
                        int(rng.integers(0, 128))) for _ in range(40)],
            deletions=[(int(src[i]), int(dst[i])) for i in idx],
        ))
        assert np.isfinite(engine.values).all()
        check_exact(engine, lambda: BeliefPropagation(num_states=2), 8,
                    tolerance=1e-6)


class TestDisconnection:
    def test_source_isolation_makes_everything_unreachable(self):
        graph = CSRGraph.from_edges(
            [(0, 1), (1, 2), (2, 3)], num_vertices=4
        )
        engine = GraphBoltEngine(SSSP(source=0), until_convergence=True)
        engine.run(graph)
        assert engine.values.tolist() == [0.0, 1.0, 2.0, 3.0]
        engine.apply_mutations(MutationBatch.from_edges(
            deletions=[(0, 1)]
        ))
        assert engine.values[0] == 0.0
        assert np.isinf(engine.values[1:]).all()
