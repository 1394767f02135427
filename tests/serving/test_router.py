"""Tests for lag-aware query routing with deadline-preserving failover.

The satellite acceptance property lives here: a replica that dies
mid-query is retried on a healthy replica **within the original
deadline budget** -- the router materializes ONE deadline object and
every failover attempt shares it, so the answer is bit-for-bit what the
healthy replica serves under that same budget, never a fresh one.
"""

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.graph.generators import rmat
from repro.recovery import RecoveryManager
from repro.runtime.deadline import StepDeadline
from repro.serving import (
    NoReplicaAvailableError,
    QueryRouter,
    ReplicationCluster,
    ResilientAnalyticsServer,
    StalenessError,
    StreamingAnalyticsServer,
)
from repro.testing.faults import scoped_failpoints
from tests.conftest import make_random_batch


@pytest.fixture
def graph():
    return rmat(scale=6, edge_factor=5, seed=23, weighted=True)


def build_cluster(graph, root, checkpoint_every=2, segment_records=2,
                  **server_kwargs):
    manager = RecoveryManager(str(root),
                              checkpoint_every=checkpoint_every, retain=2,
                              segment_records=segment_records)
    server = StreamingAnalyticsServer(
        lambda: PageRank(), graph, approx_iterations=3,
        exact_iterations=10, recovery=manager, **server_kwargs,
    )
    resilient = ResilientAnalyticsServer(server, queue_capacity=64)
    return ReplicationCluster(
        resilient, lambda: PageRank(), str(root), replicas=2,
        exact_iterations=10,
    )


@pytest.fixture
def cluster(graph, rng, tmp_path):
    cluster = build_cluster(graph, tmp_path)
    for _ in range(3):
        cluster.submit(make_random_batch(graph, rng, 8, 8))
        cluster.replicate()
    cluster.sync()
    yield cluster
    cluster.close()


class TestRouting:
    def test_routes_to_the_freshest_replica_name_tiebreak(self, cluster):
        router = QueryRouter(cluster)
        assert router.candidates() == ["r0", "r1"]
        routed = router.query(deadline=StepDeadline(1000))
        assert routed.served_by == "r0"
        assert routed.attempts == 1 and routed.failovers == 0
        assert routed.staleness_batches == 0
        assert not routed.degraded
        assert router.queries_routed == 1

    def test_failover_stays_within_the_original_deadline(self, cluster):
        """Satellite pin: replica dies mid-query -> the retry on the
        healthy replica answers under the SAME budget object."""
        budget = 4
        deadline = StepDeadline(budget)
        router = QueryRouter(cluster)
        with scoped_failpoints() as registry:
            registry.arm("replica.query", kind="fault", hit=1)
            routed = router.query(deadline=deadline)
        assert routed.served_by == "r1"
        assert routed.attempts == 2
        assert routed.failovers == 1
        assert router.failovers == 1
        # r0 is alive and bootstrapped: only the health mark hides it.
        assert router.candidates() == ["r1"]
        # The original deadline object was consumed by the surviving
        # attempt -- no retry restarted the clock...
        assert deadline.checks > 0
        # ...so the failover answer is bit-for-bit the healthy
        # replica's answer under a fresh deadline of the SAME budget.
        direct = cluster.replicas["r1"].query(
            deadline=StepDeadline(budget))
        assert routed.degraded == direct.degraded
        assert np.array_equal(routed.values, direct.values)

    def test_probe_restores_a_transient_failure(self, cluster):
        router = QueryRouter(cluster)
        with scoped_failpoints() as registry:
            registry.arm("replica.query", kind="fault", hit=1)
            router.query(deadline=StepDeadline(1000))
        assert router.candidates() == ["r1"]
        # The replica is alive and bootstrapped: the health probe
        # re-admits it, and it is the freshest candidate again.
        assert router.probe() == ["r0"]
        assert "r0" in router.candidates()
        assert router.query(deadline=StepDeadline(1000)).served_by == "r0"

    def test_probe_keeps_a_dead_replica_quarantined(self, cluster):
        router = QueryRouter(cluster)
        cluster.kill_replica("r0")
        routed = router.query(deadline=StepDeadline(1000))
        # A dead replica is excluded up front, not discovered the hard
        # way: the query never counts it as an attempt.
        assert routed.served_by == "r1" and routed.attempts == 1
        router.mark_unhealthy("r0", "probe found it dead")
        assert router.probe() == []
        cluster.restart_replica("r0")
        cluster.sync()
        # Still marked until a probe re-admits it.
        assert "r0" not in router.candidates()
        assert router.probe() == ["r0"]

    def test_writer_fallback_when_every_replica_is_down(self, cluster):
        router = QueryRouter(cluster)
        cluster.kill_replica("r0")
        cluster.kill_replica("r1")
        routed = router.query(deadline=StepDeadline(1000))
        assert routed.served_by == "writer"
        assert routed.staleness_batches == 0
        assert router.writer_fallbacks == 1
        direct = cluster.writer.query(deadline=StepDeadline(1000))
        assert np.array_equal(routed.values, direct.values)

    def test_no_replica_available_without_fallback(self, cluster):
        router = QueryRouter(cluster, writer_fallback=False)
        cluster.kill_replica("r0")
        cluster.kill_replica("r1")
        with pytest.raises(NoReplicaAvailableError):
            router.query(deadline=StepDeadline(1000))


class TestConsistencyKnobs:
    def test_bounded_staleness_excludes_laggards(self, graph, rng,
                                                 tmp_path):
        cluster = build_cluster(graph, tmp_path)
        for _ in range(2):
            cluster.submit(make_random_batch(graph, rng, 4, 4))
        # Nothing replicated yet: both replicas trail by 2 records.
        bounded = QueryRouter(cluster, max_staleness_batches=0)
        assert bounded.candidates() == []
        routed = bounded.query(deadline=StepDeadline(1000))
        assert routed.served_by == "writer"
        cluster.sync()
        assert bounded.candidates() == ["r0", "r1"]
        cluster.close()

    def test_read_your_writes_token_nudges_replication(self, graph, rng,
                                                       tmp_path):
        cluster = build_cluster(graph, tmp_path)
        router = QueryRouter(cluster)
        token = 0
        for _ in range(4):
            token = cluster.submit(make_random_batch(graph, rng, 4, 4))
        # No replica has applied the token yet; the router replicates
        # once on its own and then serves from a caught-up replica.
        assert router.candidates(min_applied_batch=token) == []
        routed = router.query(deadline=StepDeadline(1000),
                              min_applied_batch=token)
        assert routed.served_by in ("r0", "r1")
        served = cluster.replicas[routed.served_by]
        assert served.next_seq >= token
        cluster.close()

    def test_read_your_writes_is_served_by_a_replica_every_batch(
            self, graph, rng, tmp_path):
        """Default 256-record segments, checkpoints far apart: nothing
        seals and no checkpoint falls due, yet a read-your-writes query
        issued right after ``submit`` + ``replicate`` never falls back
        to the writer -- the tail ships every round."""
        cluster = build_cluster(graph, tmp_path, checkpoint_every=64,
                                segment_records=256)
        router = QueryRouter(cluster)
        for _ in range(5):
            token = cluster.submit(make_random_batch(graph, rng, 4, 4))
            cluster.replicate()
            routed = router.query(deadline=StepDeadline(1000),
                                  min_applied_batch=token)
            assert routed.served_by in ("r0", "r1")
            assert routed.staleness_batches == 0
        assert router.writer_fallbacks == 0
        assert len(cluster.writer_node.manager.wal.segments()) == 1
        cluster.close()

    def test_staleness_error_when_the_token_is_unreachable(self, graph,
                                                           rng,
                                                           tmp_path):
        cluster = build_cluster(graph, tmp_path)
        router = QueryRouter(cluster, writer_fallback=False)
        cluster.kill_replica("r0")
        cluster.kill_replica("r1")
        token = cluster.submit(make_random_batch(graph, rng, 4, 4))
        with pytest.raises(StalenessError, match="no replica"):
            router.query(deadline=StepDeadline(1000),
                         min_applied_batch=token)
        cluster.close()
