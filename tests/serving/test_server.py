"""Tests for the Tornado-style analytics server."""

import numpy as np
import pytest

from repro.algorithms import LabelPropagation, PageRank, SSSP
from repro.graph.generators import rmat
from repro.graph.mutation import MutationBatch
from repro.ligra.delta import ITERATION_CAP
from repro.ligra.engine import LigraEngine
from repro.obs.registry import scoped_registry
from repro.recovery import RecoveryManager
from repro.serving import StreamingAnalyticsServer
from repro.testing.faults import InjectedFault, scoped_failpoints
from tests.conftest import make_random_batch


@pytest.fixture
def graph():
    return rmat(scale=7, edge_factor=5, seed=91, weighted=True)


class TestConstruction:
    def test_invalid_windows(self, graph):
        with pytest.raises(ValueError):
            StreamingAnalyticsServer(lambda: PageRank(), graph,
                                     approx_iterations=0)
        with pytest.raises(ValueError):
            StreamingAnalyticsServer(lambda: PageRank(), graph,
                                     approx_iterations=5,
                                     exact_iterations=3)

    def test_default_exact_window(self, graph):
        server = StreamingAnalyticsServer(lambda: PageRank(), graph,
                                          approx_iterations=2)
        assert server.exact_iterations == PageRank().default_iterations


class TestMainLoop:
    def test_approximate_values_are_short_window_exact(self, graph, rng):
        server = StreamingAnalyticsServer(lambda: PageRank(), graph,
                                          approx_iterations=3)
        for _ in range(3):
            server.ingest(make_random_batch(server.graph, rng, 10, 10))
        truth = LigraEngine(PageRank()).run(server.graph, 3)
        assert np.allclose(server.approximate_values, truth, atol=1e-8)

    def test_ingest_counts(self, graph, rng):
        server = StreamingAnalyticsServer(lambda: PageRank(), graph)
        server.ingest(make_random_batch(server.graph, rng, 5, 5))
        assert server.batches_ingested == 1


class TestBranchLoop:
    def test_query_is_exact_full_window(self, graph, rng):
        server = StreamingAnalyticsServer(
            lambda: LabelPropagation(num_labels=3), graph,
            approx_iterations=3, exact_iterations=10,
        )
        for _ in range(4):
            server.ingest(make_random_batch(server.graph, rng, 10, 10))
        result = server.query()
        truth = LigraEngine(LabelPropagation(num_labels=3)).run(
            server.graph, 10
        )
        assert np.allclose(result.values, truth, atol=1e-7)
        assert result.iterations == 10
        assert result.batches_ingested == 4

    def test_query_does_not_perturb_main_loop(self, graph, rng):
        server = StreamingAnalyticsServer(lambda: PageRank(), graph,
                                          approx_iterations=2,
                                          exact_iterations=8)
        server.ingest(make_random_batch(server.graph, rng, 5, 5))
        before = server.approximate_values.copy()
        server.query()
        assert np.array_equal(server.approximate_values, before)
        # And the main loop keeps refining correctly after a query.
        server.ingest(make_random_batch(server.graph, rng, 5, 5))
        truth = LigraEngine(PageRank()).run(server.graph, 2)
        assert np.allclose(server.approximate_values, truth, atol=1e-8)

    def test_query_until_convergence(self, graph, rng):
        server = StreamingAnalyticsServer(
            lambda: SSSP(source=0), graph,
            approx_iterations=2, exact_iterations=ITERATION_CAP,
        )
        server.ingest(make_random_batch(server.graph, rng, 10, 10))
        result = server.query()
        truth = LigraEngine(SSSP(source=0)).run(server.graph, ITERATION_CAP)
        both_inf = np.isinf(result.values) & np.isinf(truth)
        assert np.allclose(result.values[~both_inf], truth[~both_inf])

    def test_query_cheaper_than_scratch(self, graph, rng):
        server = StreamingAnalyticsServer(
            lambda: LabelPropagation(num_labels=3, tolerance=1e-3,
                                     seed_every=3),
            graph, approx_iterations=5, exact_iterations=10,
        )
        server.ingest(make_random_batch(server.graph, rng, 5, 5))
        result = server.query()
        # The branch only runs the tail of the window (and selective
        # scheduling skips stabilised vertices), so it must do less edge
        # work than a 10-iteration from-scratch run.
        scratch = LigraEngine(LabelPropagation(num_labels=3))
        scratch.run(server.graph, 10)
        assert result.edge_computations < (
            scratch.metrics.edge_computations
        )
        assert server.queries_served == 1

    def test_query_seconds_matches_recorded_histogram(self, graph, rng):
        # One perf_counter measurement feeds both the QueryResult and
        # the serving.query_seconds histogram; they must agree exactly.
        server = StreamingAnalyticsServer(lambda: PageRank(), graph,
                                          approx_iterations=2,
                                          exact_iterations=6)
        server.ingest(make_random_batch(server.graph, rng, 5, 5))
        with scoped_registry() as registry:
            result = server.query()
            histogram = registry.histogram("serving.query_seconds")
        assert histogram.count == 1
        assert histogram.sum == result.seconds
        assert result.seconds > 0.0


def growth_poison_check(values):
    """Test poison rule: these workloads never grow the graph."""
    if values.shape[0] > 128:
        return f"unexpected growth to {values.shape[0]} vertices"
    return None


class TestDurability:
    def test_durable_ingest_matches_plain_ingest(self, graph, rng,
                                                 tmp_path):
        plain = StreamingAnalyticsServer(lambda: PageRank(), graph,
                                         approx_iterations=3)
        manager = RecoveryManager(str(tmp_path), checkpoint_every=2)
        durable = StreamingAnalyticsServer(lambda: PageRank(), graph,
                                           approx_iterations=3,
                                           recovery=manager)
        for _ in range(5):
            batch = make_random_batch(plain.graph, rng, 8, 8)
            plain.ingest(batch)
            durable.ingest(batch)
        assert np.array_equal(durable.approximate_values,
                              plain.approximate_values)
        assert manager.wal.next_seq == 5
        assert len(manager.checkpoints()) >= 1
        manager.close()

    def test_poison_batch_is_quarantined_and_serving_continues(
            self, graph, rng, tmp_path):
        manager = RecoveryManager(str(tmp_path), checkpoint_every=100,
                                  poison_check=growth_poison_check)
        server = StreamingAnalyticsServer(lambda: PageRank(), graph,
                                          approx_iterations=3,
                                          recovery=manager)
        shadow = StreamingAnalyticsServer(lambda: PageRank(), graph,
                                          approx_iterations=3)
        good = make_random_batch(server.graph, rng, 6, 6)
        server.ingest(good)
        shadow.ingest(good)
        poison = MutationBatch.from_edges(additions=[(0, 1)], grow_to=200)
        with scoped_registry() as registry:
            values = server.ingest(poison)  # must NOT raise
            assert registry.counter(
                "serving.batches_quarantined"
            ).value == 1
        # The engine was rolled back: the poison batch left no trace.
        assert np.array_equal(values, shadow.approximate_values)
        assert manager.quarantined == frozenset({1})
        assert server.batches_ingested == 2  # seqs stay positional
        # ... and the stream keeps flowing.
        after = make_random_batch(shadow.graph, rng, 6, 6)
        server.ingest(after)
        shadow.ingest(after)
        assert np.array_equal(server.approximate_values,
                              shadow.approximate_values)
        # ... and the branch loop still serves exact queries.
        result = server.query()
        assert np.array_equal(result.values, shadow.query().values)
        manager.close()

    def test_without_recovery_failures_propagate(self, graph, rng):
        server = StreamingAnalyticsServer(lambda: PageRank(), graph,
                                          approx_iterations=2)
        with scoped_failpoints() as registry:
            registry.arm("engine.refine", kind="fault", hit=1)
            with pytest.raises(InjectedFault):
                server.ingest(make_random_batch(server.graph, rng, 4, 4))

    def test_recover_resumes_counting_and_state(self, graph, rng,
                                                tmp_path):
        manager = RecoveryManager(str(tmp_path), checkpoint_every=2)
        server = StreamingAnalyticsServer(lambda: PageRank(), graph,
                                          approx_iterations=3,
                                          recovery=manager)
        for _ in range(3):
            server.ingest(make_random_batch(server.graph, rng, 6, 6))
        values = server.approximate_values.copy()
        manager.close()

        recovered = RecoveryManager(str(tmp_path),
                                    checkpoint_every=2).recover(
            lambda: PageRank()
        )
        assert recovered.batches_ingested == 3
        assert np.array_equal(recovered.approximate_values, values)
        assert recovered.approx_iterations == 3
        recovered.recovery.close()


class TestFromEngine:
    def test_wraps_without_rerunning(self, graph, rng):
        from repro.core.engine import GraphBoltEngine

        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 5, 5))
        snapshot = engine.values.copy()
        server = StreamingAnalyticsServer.from_engine(
            engine, lambda: PageRank(), batches_ingested=7,
        )
        assert server.approx_iterations == 4
        assert server.batches_ingested == 7
        assert np.array_equal(server.approximate_values, snapshot)
        # It is a live server: both loops still work.
        server.ingest(make_random_batch(server.graph, rng, 5, 5))
        truth = LigraEngine(PageRank()).run(server.graph, 4)
        assert np.allclose(server.approximate_values, truth, atol=1e-8)

    def test_unrun_engine_rejected(self, graph):
        from repro.core.engine import GraphBoltEngine

        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        with pytest.raises(RuntimeError):
            StreamingAnalyticsServer.from_engine(engine,
                                                 lambda: PageRank())
