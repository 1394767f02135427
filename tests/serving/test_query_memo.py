"""The branch loop's one remembered answer.

A server keeps the last complete branch-loop answer, keyed by the
identity of its engine and the rolling state it branched from plus the
window.  These tests pin the contract: a hit is the uncached answer bit
for bit, anything that changes the state is a miss, a degraded answer is
never kept, and a caller can never reach the kept values.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.graph.generators import rmat
from repro.graph.mutation import MutationBatch
from repro.obs import trace
from repro.obs.registry import scoped_registry
from repro.obs.trace import Tracer
from repro.recovery import RecoveryManager
from repro.runtime.deadline import StepDeadline
from repro.serving import (
    ReplicationCluster,
    ResilientAnalyticsServer,
    StreamingAnalyticsServer,
)
from repro.testing.faults import scoped_failpoints
from tests.conftest import make_random_batch


def factory():
    return PageRank()


@pytest.fixture
def graph():
    return rmat(scale=7, edge_factor=5, seed=29, weighted=True)


@pytest.fixture
def server(graph, rng):
    server = StreamingAnalyticsServer(factory, graph, approx_iterations=3,
                                      exact_iterations=12)
    server.ingest(make_random_batch(server.graph, rng, 6, 6))
    return server


def uncached(server):
    """The same state answered by a server that remembers nothing."""
    return StreamingAnalyticsServer.from_engine(
        server.engine, factory, exact_iterations=server.exact_iterations,
    ).query()


def hits(registry):
    return registry.counter("serving.query_cache_hits").value


class TestHit:
    def test_hit_is_bit_identical_to_an_uncached_branch(self, server):
        with scoped_registry() as registry:
            miss = server.query()
            hit = server.query()
            assert hits(registry) == 1
            assert registry.histogram("serving.query_seconds").count == 2
        fresh = uncached(server)
        for result in (miss, hit):
            assert np.array_equal(result.values, fresh.values)
            assert result.iterations == fresh.iterations
            assert result.iterations_completed == fresh.iterations_completed
            assert result.residual_l1 == fresh.residual_l1
            assert not result.degraded
        assert miss.edge_computations == fresh.edge_computations > 0
        assert hit.edge_computations == 0
        assert hit.seconds > 0.0
        assert server.queries_served == 2

    def test_mutating_returned_values_does_not_reach_the_next_answer(
            self, server):
        first = server.query()
        expected = first.values.copy()
        first.values[:] = -1.0
        second = server.query()
        assert np.array_equal(second.values, expected)
        second.values[:] = -2.0
        assert np.array_equal(server.query().values, expected)

    def test_another_window_is_a_miss(self, server):
        with scoped_registry() as registry:
            server.query()
            server.query(until_convergence=True)
            assert hits(registry) == 0

    def test_query_span_is_tagged(self, server):
        with trace.activated(Tracer()) as tracer:
            server.query()
            server.query()
        tags = [event["tags"] for event in tracer.events()
                if event["name"] == "query"]
        assert [t["cached"] for t in tags] == [False, True]
        assert tags[0]["iterations"] == tags[1]["iterations"] == 12


class TestInvalidation:
    def test_ingest(self, server, rng):
        server.query()
        server.ingest(make_random_batch(server.graph, rng, 6, 6))
        with scoped_registry() as registry:
            after = server.query()
            assert hits(registry) == 0
        assert np.array_equal(after.values, uncached(server).values)

    def test_a_replaced_state_is_not_kept_alive(self, server, rng):
        server.query()
        replaced = weakref.ref(server.engine._state)
        server.ingest(make_random_batch(server.graph, rng, 6, 6))
        gc.collect()
        assert replaced() is None

    def test_quarantine_rollback(self, graph, rng, tmp_path):
        manager = RecoveryManager(
            str(tmp_path), checkpoint_every=100,
            poison_check=lambda values: (
                "grew" if values.shape[0] > 128 else None),
        )
        server = StreamingAnalyticsServer(factory, graph,
                                          approx_iterations=3,
                                          recovery=manager)
        server.ingest(make_random_batch(server.graph, rng, 6, 6))
        before = server.query()
        server.ingest(MutationBatch.from_edges(additions=[(0, 1)],
                                               grow_to=200))
        assert server.batches_quarantined == 1
        with scoped_registry() as registry:
            after = server.query()
            assert hits(registry) == 0
        # The rolled-back state is the pre-poison one, recomputed.
        assert after.edge_computations > 0
        assert np.array_equal(after.values, before.values)
        manager.close()

    def test_from_engine(self, server):
        server.query()
        wrapped = StreamingAnalyticsServer.from_engine(
            server.engine, factory,
            exact_iterations=server.exact_iterations,
        )
        with scoped_registry() as registry:
            wrapped.query()
            assert hits(registry) == 0

    def test_writer_restart_and_promotion(self, rng, tmp_path):
        graph = rmat(scale=6, edge_factor=5, seed=17, weighted=True)
        manager = RecoveryManager(str(tmp_path), checkpoint_every=2,
                                  retain=2, segment_records=2)
        writer = ResilientAnalyticsServer(StreamingAnalyticsServer(
            factory, graph, approx_iterations=3, recovery=manager))
        cluster = ReplicationCluster(writer, factory, str(tmp_path),
                                     replicas=2)
        for _ in range(3):
            cluster.submit(make_random_batch(graph, rng, 6, 6))
            cluster.replicate()
        cluster.sync()
        with scoped_registry() as registry:
            expected = cluster.writer.query().values
            cluster.writer.query()
            cluster.replicas["r0"].query()
            cluster.replicas["r0"].query()
            assert hits(registry) == 2
            cluster.restart_writer()
            restarted = cluster.writer.query()
            assert hits(registry) == 2
            cluster.promote("r0")
            promoted = cluster.writer.query()
            assert hits(registry) == 2
        for result in (restarted, promoted):
            assert result.edge_computations > 0
            assert np.array_equal(result.values, expected)
        cluster.close()

    def test_replica_apply(self, rng, tmp_path):
        graph = rmat(scale=6, edge_factor=5, seed=17, weighted=True)
        manager = RecoveryManager(str(tmp_path), checkpoint_every=2)
        writer = ResilientAnalyticsServer(StreamingAnalyticsServer(
            factory, graph, approx_iterations=3, recovery=manager))
        cluster = ReplicationCluster(writer, factory, str(tmp_path),
                                     replicas=1)
        cluster.submit(make_random_batch(graph, rng, 6, 6))
        cluster.sync()
        replica = cluster.replicas["r0"]
        replica.query()
        cluster.submit(make_random_batch(graph, rng, 6, 6))
        cluster.sync()
        with scoped_registry() as registry:
            after = replica.query()
            assert hits(registry) == 0
        assert np.array_equal(after.values, cluster.writer.query().values)
        cluster.close()


class TestDeadline:
    def test_degraded_answer_is_not_remembered(self, server):
        degraded = server.query(deadline=StepDeadline(2))
        assert degraded.degraded
        with scoped_registry() as registry:
            full = server.query()
            assert hits(registry) == 0
        assert not full.degraded
        assert full.iterations > degraded.iterations

    def test_hit_under_an_expired_deadline_is_not_degraded(self, server):
        full = server.query()
        with scoped_registry() as registry:
            result = server.query(deadline=StepDeadline(0))
            assert hits(registry) == 1
        assert not result.degraded
        assert result.iterations == full.iterations
        assert np.array_equal(result.values, full.values)
        assert server.queries_degraded == 0

    def test_failpoints_still_fire_on_a_hit(self, rng, tmp_path):
        graph = rmat(scale=6, edge_factor=5, seed=17, weighted=True)
        manager = RecoveryManager(str(tmp_path), checkpoint_every=2)
        writer = ResilientAnalyticsServer(StreamingAnalyticsServer(
            factory, graph, approx_iterations=3, recovery=manager))
        cluster = ReplicationCluster(writer, factory, str(tmp_path),
                                     replicas=1)
        cluster.submit(make_random_batch(graph, rng, 6, 6))
        cluster.sync()
        replica = cluster.replicas["r0"]
        replica.query()
        with scoped_failpoints() as failpoints, \
                scoped_registry() as registry:
            replica.query(deadline=StepDeadline(0))
            assert hits(registry) == 1
            assert failpoints.hit_count("query.deadline") == 1
            assert failpoints.hit_count("replica.query") == 1
        cluster.close()
