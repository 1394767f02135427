"""Tests for the shared-structure analytics suite."""

import numpy as np
import pytest

from repro.algorithms import CoEM, LabelPropagation, PageRank
from repro.algorithms.triangle_counting import triangle_counts
from repro.graph.generators import rmat
from repro.ligra.engine import LigraEngine
from repro.serving import AnalyticsSuite
from tests.conftest import make_random_batch


@pytest.fixture
def graph():
    return rmat(scale=7, edge_factor=6, seed=92, weighted=True)


ANALYSES = {
    "rank": lambda: PageRank(),
    "labels": lambda: LabelPropagation(num_labels=3),
    "entities": lambda: CoEM(),
}


class TestSuite:
    def test_requires_an_analysis(self, graph):
        with pytest.raises(ValueError):
            AnalyticsSuite(graph, {})

    def test_every_analysis_stays_exact(self, graph, rng):
        suite = AnalyticsSuite(graph, ANALYSES, num_iterations=8)
        for _ in range(3):
            batch = make_random_batch(suite.graph, rng, 15, 15)
            results = suite.apply(batch)
            assert set(results) == set(ANALYSES)
        for name, factory in ANALYSES.items():
            truth = LigraEngine(factory()).run(suite.graph, 8)
            assert np.allclose(suite.values(name), truth, atol=1e-7), name

    def test_structure_adjusted_once_per_batch(self, graph, rng):
        suite = AnalyticsSuite(graph, ANALYSES, num_iterations=5)
        before = suite._streaming.batches_applied
        suite.apply(make_random_batch(suite.graph, rng, 10, 10))
        assert suite._streaming.batches_applied == before + 1
        # Every engine sees the same snapshot object.
        snapshots = {id(engine.graph) for engine in suite.engines.values()}
        assert len(snapshots) == 1

    def test_triangle_counts_maintained(self, graph, rng):
        suite = AnalyticsSuite(graph, {"rank": lambda: PageRank()},
                               num_iterations=5, include_triangles=True)
        for _ in range(4):
            suite.apply(make_random_batch(suite.graph, rng, 20, 20,
                                          weighted=False))
        expected = triangle_counts(suite.graph)
        assert suite.triangle_counts.total == expected.total
        assert np.array_equal(suite.triangle_counts.per_vertex,
                              expected.per_vertex)

    def test_triangles_only_suite(self, graph, rng):
        suite = AnalyticsSuite(graph, {}, include_triangles=True)
        suite.apply(make_random_batch(suite.graph, rng, 10, 10,
                                      weighted=False))
        assert suite.triangle_counts.total == (
            triangle_counts(suite.graph).total
        )

    def test_batch_counter(self, graph, rng):
        suite = AnalyticsSuite(graph, {"rank": lambda: PageRank()},
                               num_iterations=4)
        suite.apply(make_random_batch(suite.graph, rng, 5, 5))
        suite.apply(make_random_batch(suite.graph, rng, 5, 5))
        assert suite.batches_applied == 2
        assert "rank" in repr(suite)


def growth_poison_check(values):
    """Suite poison rule: these workloads never grow the graph."""
    if values.shape[0] > 128:
        return f"unexpected growth to {values.shape[0]} vertices"
    return None


class TestSuiteRecovery:
    def test_durable_suite_rejects_triangles(self, graph, tmp_path):
        from repro.serving import SuiteRecovery

        with pytest.raises(ValueError):
            AnalyticsSuite(graph, {"rank": lambda: PageRank()},
                           include_triangles=True,
                           recovery=SuiteRecovery(str(tmp_path)))

    def test_poison_quarantines_the_whole_suite(self, graph, rng,
                                                tmp_path):
        from repro.graph.mutation import MutationBatch
        from repro.serving import SuiteRecovery

        recovery = SuiteRecovery(str(tmp_path), checkpoint_every=100,
                                 poison_check=growth_poison_check)
        suite = AnalyticsSuite(graph, ANALYSES, num_iterations=5,
                               recovery=recovery)
        shadow = AnalyticsSuite(graph, ANALYSES, num_iterations=5)
        good = make_random_batch(graph, rng, 10, 10)
        suite.apply(good)
        shadow.apply(good)

        poison = MutationBatch.from_edges(additions=[(0, 1)],
                                          grow_to=200)
        values = suite.apply(poison)  # must NOT raise
        assert suite.batches_quarantined == 1
        # Every analysis rolled back -- none kept the poison's effects.
        for name in ANALYSES:
            assert np.array_equal(values[name], shadow.values(name)), name
            assert recovery.manager(name).quarantined == frozenset({1})
        # The restored engines share ONE structure again.
        snapshots = {id(engine.graph)
                     for engine in suite.engines.values()}
        assert len(snapshots) == 1
        assert suite.graph.num_vertices == shadow.graph.num_vertices

        # ... and the stream keeps flowing in lockstep.
        after = make_random_batch(shadow.graph, rng, 10, 10)
        suite.apply(after)
        shadow.apply(after)
        for name in ANALYSES:
            assert np.array_equal(suite.values(name),
                                  shadow.values(name)), name
        recovery.close()
