"""Tests for WAL-shipped read replicas with epoch fencing.

The property stack, bottom up:

- the wire format round-trips and both transports deliver in order
  with two-phase (peek/ack) consumption;
- a cluster of replicas replaying shipped segments + checkpoints
  converges **bit-for-bit** with the writer and with a serial
  uninterrupted reference;
- a replica installs the writer's state and never refines on the live
  path: its graph still equals the writer's, a restart replays to the
  installed state, and a lost or corrupt state reloads or NACKs;
- a replica's structure catches up only when read or when a checkpoint
  is adopted in place, as one splice per pair-disjoint run: an unread
  replica writes no generation, and a backlog survives restart and
  promotion;
- a killed replica restarts from its own checkpoint + mirror tail and
  catches up; the delivery-lag signal (:meth:`staleness`) is zero in
  steady state and grows only when a replica stops applying or a
  delivery is deferred;
- promotion fences the deposed writer: its late shipments land on the
  survivors' durable fence ledgers, never in their state;
- the writer's durable skip-marks (shed/coalesce/poison) ship with
  every segment, so replica replay skips exactly what the writer
  skipped;
- the WAL tail ships every round (exactly the records appended since
  the last one), and a caught-up replica of an mmap writer is sent
  checkpoints without the store files it can derive.
"""

import collections
import json
import os
import shutil

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.graph.generators import rmat
from repro.recovery import RecoveryManager
from repro.serving import (
    DirectoryTransport,
    EpochAuthority,
    InProcessTransport,
    ReplicationCluster,
    ReplicationError,
    ResilientAnalyticsServer,
    Shipment,
    StreamingAnalyticsServer,
    replication_status,
)
from tests.conftest import make_random_batch, on_disk_snapshots


@pytest.fixture
def graph():
    return rmat(scale=6, edge_factor=5, seed=17, weighted=True)


def plain_server(graph, **kwargs):
    kwargs.setdefault("approx_iterations", 3)
    return StreamingAnalyticsServer(lambda: PageRank(), graph, **kwargs)


def build_cluster(graph, root, *, transport="inproc", replicas=2,
                  checkpoint_every=2, segment_records=2,
                  admission="block", queue_capacity=64):
    # The writer's state lives at the cluster root, replicas under
    # ``replicas/<name>`` (the layout ``repro serve --replicas`` uses).
    manager = RecoveryManager(str(root),
                              checkpoint_every=checkpoint_every,
                              retain=2, segment_records=segment_records)
    resilient = ResilientAnalyticsServer(
        plain_server(graph, recovery=manager),
        admission=admission, queue_capacity=queue_capacity,
    )
    return ReplicationCluster(resilient, lambda: PageRank(), str(root),
                              replicas=replicas, transport=transport)


def mmap_cluster(tmp_path, transport="directory", **kwargs):
    """A cluster whose writer's graph lives in an :class:`MmapStore`."""
    from repro.graph.storage import MmapStore

    store = MmapStore(str(tmp_path / "writer-store"))
    graph = store.publish(
        rmat(scale=6, edge_factor=5, seed=17, weighted=True))
    cluster = build_cluster(graph, tmp_path / "cluster",
                            transport=transport, **kwargs)
    return graph, cluster


def shadow_values(graph, batches):
    server = plain_server(graph)
    for batch in batches:
        server.ingest(batch)
    return server.approximate_values


# ----------------------------------------------------------------------
# Wire format + transports
# ----------------------------------------------------------------------
class TestShipmentWire:
    def test_json_roundtrip_is_lossless(self):
        shipment = Shipment(
            kind="segment", epoch=3, index=7, first_seq=4, end_seq=6,
            lines=("line-a", "line-b"), blob=b"\x00\x01\xff",
            skip={2: "shed: queue over capacity 1"},
        )
        envelope = shipment.to_json()
        assert "blob_len" in envelope and "b64" not in envelope
        assert Shipment.from_json(envelope, shipment.blob) == shipment
        with pytest.raises(ValueError, match="does not describe the 1 blob"):
            Shipment.from_json(envelope, b"\x00")


class TestTransports:
    def ship(self, index):
        return Shipment(kind="segment", epoch=1, index=index,
                        first_seq=index, end_seq=index + 1)

    def test_inproc_peek_then_ack(self):
        link = InProcessTransport()
        for index in range(3):
            link.send(self.ship(index))
        assert link.pending() == 3
        # peek does not consume: redelivery after a mid-apply death.
        assert link.peek().index == 0
        assert link.peek().index == 0
        link.ack()
        assert link.peek().index == 1
        assert link.pending() == 2

    def test_directory_spool_survives_reopen(self, tmp_path):
        spool = str(tmp_path / "inbox")
        link = DirectoryTransport(spool)
        for index in range(3):
            link.send(self.ship(index))
        assert link.peek().index == 0
        link.ack()
        # A fresh consumer (restarted replica process) resumes at the
        # persisted cursor with unacked shipments intact.
        reopened = DirectoryTransport(spool)
        assert reopened.pending() == 2
        assert reopened.peek().index == 1
        reopened.ack()
        reopened.ack()
        with pytest.raises(ReplicationError, match="no pending"):
            reopened.ack()

    def test_a_reopened_spool_numbers_new_files_past_every_old_one(
            self, tmp_path):
        """Acked files are deleted, so counting the spool numbered new
        files below the cursor (skipped by ``peek``) or onto a pending
        one (overwritten): only the last of 2, 3, 4 was delivered."""
        spool = str(tmp_path / "inbox")
        link = DirectoryTransport(spool)
        for index in range(3):
            link.send(self.ship(index))
        link.ack()
        link.ack()
        reopened = DirectoryTransport(spool)
        for index in (3, 4):
            reopened.send(self.ship(index))
        delivered = []
        while reopened.peek() is not None:
            delivered.append(reopened.peek().index)
            reopened.ack()
        assert delivered == [2, 3, 4]


    def test_a_16mb_blob_crosses_a_directory_link_without_being_copied(
            self, tmp_path):
        """Guard: the spool file is the envelope plus the raw blob, so
        sending allocates nothing and receiving exactly one blob (the
        read), where base64-in-JSON peaked at five."""
        import tracemalloc

        link = DirectoryTransport(str(tmp_path / "spool"))
        blob = bytes(16 << 20)
        shipment = Shipment(kind="store", epoch=1, index=0, first_seq=0,
                            end_seq=0, blob=blob, meta={"file": "x.seg"})
        tracemalloc.start()
        try:
            link.send(shipment)
            received = link.peek()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert received == shipment
        assert peak < 1.5 * len(blob)
        link.ack()


class TestEpochAuthority:
    def test_epoch_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "epoch.json")
        authority = EpochAuthority(path)
        assert authority.epoch == 1
        assert authority.advance() == 2
        assert EpochAuthority(path).epoch == 2


# ----------------------------------------------------------------------
# Convergence
# ----------------------------------------------------------------------
class TestClusterConvergence:
    @pytest.mark.parametrize("transport", ["inproc", "directory"])
    def test_replicas_converge_bit_for_bit(self, graph, rng, tmp_path,
                                           transport):
        cluster = build_cluster(graph, tmp_path, transport=transport)
        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(6)]
        for batch in batches:
            cluster.submit(batch)
            cluster.replicate()
        cluster.sync()
        expected = shadow_values(graph, batches)
        writer_values = cluster.writer.approximate_values
        assert np.array_equal(writer_values, expected)
        for name, replica in cluster.replicas.items():
            assert np.array_equal(replica.approximate_values,
                                  writer_values), name
        assert cluster.max_lag() == 0
        assert cluster.staleness() == 0
        cluster.close()

    def test_submit_returns_read_your_writes_token(self, graph, rng,
                                                   tmp_path):
        cluster = build_cluster(graph, tmp_path)
        token = cluster.submit(make_random_batch(graph, rng, 4, 4))
        assert token == 1  # one durable record logged
        assert cluster.submit(make_random_batch(graph, rng, 4, 4)) == 2
        cluster.close()

    def test_writer_must_be_durable(self, graph):
        with pytest.raises(ReplicationError, match="durable"):
            ReplicationCluster(
                ResilientAnalyticsServer(plain_server(graph)),
                lambda: PageRank(), "unused-root",
            )

    def test_unknown_transport_rejected(self, graph, tmp_path):
        with pytest.raises(ReplicationError, match="transport"):
            build_cluster(graph, tmp_path, transport="carrier-pigeon")


# ----------------------------------------------------------------------
# Kill / restart
# ----------------------------------------------------------------------
class TestKillRestart:
    def test_replica_restarts_from_checkpoint_and_tail(self, graph, rng,
                                                       tmp_path):
        cluster = build_cluster(graph, tmp_path)
        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(6)]
        for batch in batches[:3]:
            cluster.submit(batch)
            cluster.replicate()
        cluster.kill_replica("r0")
        for batch in batches[3:]:
            cluster.submit(batch)
            cluster.replicate()
        # The writer keeps shipping to the dead replica's inbox: the
        # shipped-but-unapplied backlog is exactly the staleness signal.
        assert cluster.staleness() > 0
        assert not cluster.replicas["r0"].alive
        cluster.restart_replica("r0")
        cluster.sync()
        assert cluster.staleness() == 0
        assert cluster.max_lag() == 0
        expected = shadow_values(graph, batches)
        for name, replica in cluster.replicas.items():
            assert np.array_equal(replica.approximate_values,
                                  expected), name
        cluster.close()


# ----------------------------------------------------------------------
# The two lag signals
# ----------------------------------------------------------------------
class TestStalenessSignal:
    def test_pipeline_lag_is_not_staleness(self, graph, rng, tmp_path):
        """max_lag counts records the writer may not ship yet;
        staleness does not -- a healthy replica owes nothing it was
        never shipped."""
        cluster = build_cluster(graph, tmp_path, checkpoint_every=8,
                                segment_records=256)
        for _ in range(3):
            cluster.submit(make_random_batch(graph, rng, 4, 4),
                           pump=False)
            cluster.replicate()
        # Logged but still queued: every record sits at or above the
        # stable boundary, so replicas trail the writer's position but
        # have applied everything delivered.
        assert cluster.max_lag() == 3
        assert cluster.staleness() == 0
        cluster.writer.drain()
        cluster.replicate()
        # Resolved records ship with the next round -- no seal, no
        # checkpoint, no final sync needed.
        assert cluster.max_lag() == 0
        assert cluster.staleness() == 0
        cluster.close()

    def test_a_deferred_delivery_lags_one_round_then_converges(
            self, graph, rng, tmp_path):
        """A fault at ``replication.receive`` defers a delivery: the
        shipment stays queued, the replica lags for that round, and
        the next rounds drain it."""
        from repro.obs.registry import scoped_registry
        from repro.testing.faults import scoped_failpoints

        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(6)]
        with scoped_registry() as registry, \
                scoped_failpoints() as failpoints:
            cluster = build_cluster(graph, tmp_path)
            for batch in batches[:3]:
                cluster.submit(batch)
                cluster.replicate()
            assert cluster.staleness() == 0
            failpoints.arm(
                "replication.receive", kind="fault",
                hit=failpoints.hit_count("replication.receive") + 1)
            cluster.submit(batches[3])
            cluster.replicate()
            deferred = registry.counter("replication.deliveries_deferred")
            assert deferred.value == 1
            assert cluster.staleness() > 0
            for batch in batches[4:]:
                cluster.submit(batch)
                cluster.replicate()
            assert cluster.sync()
            assert deferred.value == 1
        assert cluster.staleness() == 0 and cluster.max_lag() == 0
        writer_values = cluster.writer.approximate_values
        assert np.array_equal(writer_values, shadow_values(graph, batches))
        for name, replica in cluster.replicas.items():
            assert np.array_equal(replica.approximate_values,
                                  writer_values), name
        cluster.close()

    def test_shipped_through_tracks_links(self, graph, rng, tmp_path):
        cluster = build_cluster(graph, tmp_path)
        assert cluster.writer_node.shipped_through("r0") == 0
        assert cluster.writer_node.shipped_through("nope") == 0
        for _ in range(4):
            cluster.submit(make_random_batch(graph, rng, 4, 4))
            cluster.replicate()
        assert cluster.writer_node.shipped_through("r0") > 0
        cluster.close()


# ----------------------------------------------------------------------
# Tail shipping
# ----------------------------------------------------------------------
class TestTailShipping:
    def test_a_round_ships_exactly_the_records_appended_since_the_last(
            self, graph, rng, tmp_path, monkeypatch):
        """Guard: the open segment is neither re-sent nor re-parsed --
        a round's lines are selected by position and cost what they
        ship, however long the segment has grown."""
        cluster = build_cluster(graph, tmp_path, checkpoint_every=64,
                                segment_records=256)
        cluster.replicate()  # bootstrap from checkpoint 0
        shipped = []
        for replica in cluster.replicas.values():
            send = replica.inbox.send
            replica.inbox.send = (
                lambda shipment, send=send:
                (shipped.append(shipment), send(shipment)))
        parsed = []
        real_loads = json.loads
        appended = 0
        for burst in (1, 1, 3, 1):
            for _ in range(burst):
                cluster.submit(make_random_batch(graph, rng, 4, 4))
            del shipped[:]
            monkeypatch.setattr(
                json, "loads",
                lambda *a, **k: (parsed.append(1), real_loads(*a, **k))[1])
            cluster.writer_node.ship()
            monkeypatch.setattr(json, "loads", real_loads)
            assert [(s.kind, s.first_seq, s.end_seq, len(s.lines))
                    for s in shipped] == [
                ("segment", appended, appended + burst, burst)] * 2
            assert [real_loads(line)["seq"] for line in shipped[0].lines
                    ] == list(range(appended, appended + burst))
            appended += burst
            cluster.deliver()
            assert cluster.max_lag() == 0
        assert parsed == []  # the writer never decodes what it ships
        assert len(cluster.writer_node.manager.wal.segments()) == 1
        cluster.close()

    def test_records_below_a_checkpoint_ship_before_it(self, graph, rng,
                                                       tmp_path):
        cluster = build_cluster(graph, tmp_path, checkpoint_every=2,
                                segment_records=256)
        cluster.replicate()
        order = []
        inbox = cluster.replicas["r0"].inbox
        send = inbox.send
        inbox.send = lambda shipment: (
            order.append((shipment.kind, shipment.first_seq,
                          shipment.end_seq)), send(shipment))
        for _ in range(3):   # the writer runs ahead un-replicated
            cluster.submit(make_random_batch(graph, rng, 4, 4))
        cluster.replicate()
        # records < ckpt -> checkpoint -> records >= ckpt: the replica
        # stands exactly at the checkpoint's seq when the blob lands.
        assert order == [("segment", 0, 2), ("checkpoint", 2, 2),
                         ("segment", 2, 3)]
        assert cluster.max_lag() == 0
        cluster.close()


# ----------------------------------------------------------------------
# State install: replicas take the writer's refined state
# ----------------------------------------------------------------------
class TestStateInstall:
    """A replica applies each record's structure and installs the state
    the writer shipped with the last one; it refines only through the
    recovery path (bootstrap, restart, promotion, a lost state)."""

    def drive(self, graph, rng, tmp_path, count=6, **kwargs):
        cluster = build_cluster(graph, tmp_path, **kwargs)
        cluster.replicate()  # bootstrap
        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(count)]
        return cluster, batches

    def test_no_replica_refines_on_the_live_path(self, graph, rng,
                                                 tmp_path):
        from repro.obs.trace import Tracer, activated

        cluster, batches = self.drive(graph, rng, tmp_path)
        with activated(Tracer()) as tracer:
            for batch in batches:
                cluster.submit(batch)
                cluster.replicate()
        spans = {event["id"]: event for event in tracer.events()}

        def under_apply(event):
            """The kind of the ``replication.apply`` above ``event``."""
            while event["parent"] in spans:
                event = spans[event["parent"]]
                if event["name"] == "replication.apply":
                    return event["tags"]["kind"]
            return None

        named = collections.defaultdict(list)
        for event in spans.values():
            named[event["name"], under_apply(event)].append(event)
        assert named["refine", None], "the writer refines every batch"
        assert [kind for name, kind in named
                if name == "refine" and kind is not None] == []
        # Structure is queued on a segment and applied when a checkpoint
        # is adopted in place (every 2 batches here), once per replica.
        assert not named["adopt", "segment"]
        adopted = named["adopt", "checkpoint"]
        assert len(adopted) == 2 * len(batches) // 2
        assert all(span["tags"]["batches"] == 2 for span in adopted)
        cluster.close()

    def test_replica_structure_equals_the_writers(self, graph, rng,
                                                  tmp_path):
        """The independent oracle: values are equal by construction, the
        graph each replica adjusted for itself is not."""
        from repro.graph.storage import ARRAY_NAMES

        cluster, batches = self.drive(graph, rng, tmp_path)
        for batch in batches:
            cluster.submit(batch)
            cluster.replicate()
        assert cluster.sync()
        writer_graph = cluster.writer.server.graph
        for name, replica in cluster.replicas.items():
            for array in ARRAY_NAMES:
                assert np.array_equal(
                    getattr(replica.server.graph, array),
                    getattr(writer_graph, array)), (name, array)
            assert np.array_equal(replica.approximate_values,
                                  shadow_values(graph, batches))
        cluster.close()

    def test_a_restarted_replica_replays_to_the_installed_state(
            self, graph, rng, tmp_path):
        cluster, batches = self.drive(graph, rng, tmp_path,
                                      checkpoint_every=4)
        for batch in batches:
            cluster.submit(batch)
            cluster.replicate()
        installed = cluster.replicas["r0"].server.engine._state
        cluster.kill_replica("r0")
        # Checkpoint 4 plus two refined mirror records.
        replayed = cluster.restart_replica("r0").server.engine._state
        for name in ("values", "prev_values", "aggregate", "frontier"):
            assert np.array_equal(getattr(replayed, name),
                                  getattr(installed, name)), name
        assert replayed.iteration == installed.iteration
        cluster.close()

    def _split_round(self, graph, rng, tmp_path, tamper):
        """Three records over two WAL segments: one round ships them as
        a stateless shipment and the state-bearing one, whose delivery
        to r0 ``tamper`` decides (``None``: dropped)."""
        cluster, batches = self.drive(graph, rng, tmp_path, count=3,
                                      checkpoint_every=64)
        inbox = cluster.replicas["r0"].inbox
        send, tampered = inbox.send, []

        def tampering_send(shipment):
            if shipment.blob and not tampered:
                tampered.append(shipment)
                shipment = tamper(shipment)
            if shipment is not None:
                send(shipment)

        inbox.send = tampering_send
        for batch in batches:
            cluster.submit(batch)
        return cluster, batches, tampered

    def test_a_lost_state_reloads_once_and_converges(self, graph, rng,
                                                     tmp_path):
        from repro.obs.registry import scoped_registry

        with scoped_registry() as registry:
            cluster, batches, dropped = self._split_round(
                graph, rng, tmp_path, tamper=lambda shipment: None)
            cluster.replicate()
            assert [(s.first_seq, s.end_seq) for s in dropped] == [(2, 3)]
            replica = cluster.replicas["r0"]
            # Structure [0, 2) arrived alone: the poll reloaded rather
            # than return ahead of its state.
            assert replica.next_seq == replica.server.state_seq == 2
            assert cluster.sync()
            reloads = registry.counter("replication.state_reloads").value
        assert reloads == 1
        expected = shadow_values(graph, batches)
        for replica in cluster.replicas.values():
            assert np.array_equal(replica.approximate_values, expected)
        cluster.close()

    def test_a_corrupt_state_nacks_the_whole_shipment(self, graph, rng,
                                                      tmp_path):
        from dataclasses import replace

        from repro.obs.registry import scoped_registry
        from repro.testing.faults import flip_byte

        with scoped_registry() as registry:
            cluster, batches, _ = self._split_round(
                graph, rng, tmp_path,
                tamper=lambda s: replace(s, blob=flip_byte(s.blob)))
            cluster.replicate()
            assert cluster.sync()
            rejected = registry.counter(
                "replication.state_rejections").value
            reloads = registry.counter("replication.state_reloads").value
        assert rejected == 1 and cluster.integrity_rejections == 1
        # The resync re-ships the state within the same delivery, so
        # the replica settles without a reload.
        assert reloads == 0
        expected = shadow_values(graph, batches)
        for replica in cluster.replicas.values():
            assert np.array_equal(replica.approximate_values, expected)
        cluster.close()

    def test_an_engine_that_adopted_a_state_refuses_to_refine(
            self, graph, rng, tmp_path):
        cluster, batches = self.drive(graph, rng, tmp_path, count=2)
        cluster.submit(batches[0])
        cluster.replicate()
        engine = cluster.replicas["r0"].server.engine
        snapshot = engine.graph
        with pytest.raises(RuntimeError, match="adopted a state"):
            engine.apply_mutations(batches[1])
        with pytest.raises(RuntimeError, match="adopted a state"):
            engine.history
        assert engine.graph is snapshot  # refused before adjusting
        cluster.close()

    def test_the_writer_ships_no_state_it_does_not_stand_at(
            self, graph, rng, tmp_path):
        cluster, batches = self.drive(graph, rng, tmp_path, count=1)
        cluster.submit(batches[0])
        cluster.writer.server.state_seq = 0  # as if record 0 were lost
        with pytest.raises(ReplicationError, match="stands at seq 0"):
            cluster.writer_node.ship()
        cluster.close()

    def test_a_poison_probe_over_a_backlog_stops_at_the_boundary(
            self, graph, rng, tmp_path):
        """Two poison batches trip the breaker, a backlog queues behind
        a third, and the HALF_OPEN probe quarantines it.  The rollback
        replays only up to the poison record: the queued ones stay for
        the pump, so the writer stands at its stable boundary, ships
        that state, and applies every backlog batch once."""
        from repro.graph.mutation import MutationBatch
        from repro.serving import BreakerConfig

        def grown(values):
            if values.shape[0] > graph.num_vertices:
                return "grew"
            return None

        manager = RecoveryManager(str(tmp_path), checkpoint_every=64,
                                  segment_records=2, poison_check=grown)
        resilient = ResilientAnalyticsServer(
            plain_server(graph, recovery=manager),
            breaker=BreakerConfig(quarantine_threshold=2,
                                  cooldown_submits=2))
        cluster = ReplicationCluster(resilient, lambda: PageRank(),
                                     str(tmp_path), replicas=2)
        cluster.replicate()
        poison = MutationBatch.from_edges(additions=[(0, 1)],
                                          grow_to=2 * graph.num_vertices)
        good = [make_random_batch(graph, rng, 8, 8) for _ in range(2)]
        for batch in (poison, poison, poison, good[0]):
            cluster.submit(batch)
        assert resilient.breaker.probes_sent == 1
        assert resilient.breaker.state == "open"
        assert resilient.server.state_seq == resilient.stable_seq() == 3
        cluster.submit(good[1])
        cluster.replicate()
        for replica in cluster.replicas.values():
            assert replica.server.state_seq == 3
        resilient.drain()
        assert cluster.sync()
        expected = shadow_values(graph, good)
        assert np.array_equal(resilient.approximate_values, expected)
        for replica in cluster.replicas.values():
            assert np.array_equal(replica.approximate_values, expected)
        cluster.close()


def touched_pairs(batch):
    return (set(zip(batch.add_src.tolist(), batch.add_dst.tolist()))
            | set(batch.deletions()))


class TestDeferredStructure:
    """A replica queues the structure of what it adopts; a read or an
    in-place checkpoint applies the queue as one splice per run of
    pair-disjoint batches."""

    def test_an_unread_replica_writes_no_generation(self, rng, tmp_path):
        from repro.ligra.engine import LigraEngine
        from repro.obs.registry import scoped_registry
        from repro.obs.trace import Tracer, activated

        with scoped_registry() as registry:
            graph, cluster = mmap_cluster(tmp_path, checkpoint_every=64)
            cluster.replicate()  # bootstrap from checkpoint 0
            replica = cluster.replicas["r0"]
            store = replica.server.graph.store
            generations = store.snapshot_ids()
            for _ in range(6):  # six state-bearing segments
                cluster.submit(make_random_batch(graph, rng, 8, 8))
                cluster.replicate()
            assert replica.server.state_seq == 6
            assert store.snapshot_ids() == generations
            status = cluster.status()["replicas"]["r0"]
            assert status["structure_pending"] == 6
            assert registry.gauge(
                "replication.r0.structure_pending").value == 6
            with activated(Tracer()) as tracer:
                answer = replica.query()
            events = tracer.events()
        (query,) = [event for event in events if event["name"] == "query"]
        adopted = [event for event in events if event["name"] == "adopt"]
        assert [event["tags"]["batches"] for event in adopted] == [6]
        assert adopted[0]["parent"] == query["id"]
        assert replica.structure_pending == 0
        assert store.snapshot_ids() != generations
        writer = cluster.writer.server
        assert np.array_equal(answer.values, writer.query().values)
        scratch = LigraEngine(PageRank()).run(writer.graph,
                                              writer.exact_iterations)
        assert np.allclose(answer.values, scratch, atol=1e-8)
        cluster.close()

    def test_a_checkpoint_aliases_the_coalesced_generation(self, rng,
                                                           tmp_path):
        from repro.graph.mutation import pair_disjoint_runs
        from repro.obs.registry import scoped_registry
        from repro.obs.trace import Tracer, activated

        with scoped_registry() as registry:
            graph, cluster = mmap_cluster(tmp_path, checkpoint_every=4)
            cluster.replicate()
            batches, touched = [], set()
            while len(batches) < 4:
                batch = make_random_batch(graph, rng, 8, 8)
                if touched.isdisjoint(touched_pairs(batch)):
                    batches.append(batch)
                    touched |= touched_pairs(batch)
            assert len(pair_disjoint_runs(batches)) == 1
            with activated(Tracer()) as tracer:
                for batch in batches:
                    cluster.submit(batch)
                    cluster.replicate()
            aliased = registry.counter(
                "replication.snapshots_aliased").value
            resyncs = registry.counter("replication.resyncs").value
        assert aliased == 2 and resyncs == 0
        assert cluster.gap_resyncs == cluster.integrity_rejections == 0
        adopted = [event for event in tracer.events()
                   if event["name"] == "adopt"]
        assert [event["tags"]["batches"] for event in adopted] == [4, 4]
        for replica in cluster.replicas.values():
            assert replica.checkpoint_seq == 4
            assert replica.structure_pending == 0
        cluster.close()

    def test_a_backlog_survives_restart_and_promotion(self, rng,
                                                      tmp_path):
        from repro.graph.storage import ARRAY_NAMES

        graph, cluster = mmap_cluster(tmp_path, checkpoint_every=64)
        cluster.replicate()
        batches = [make_random_batch(graph, rng, 8, 8) for _ in range(8)]
        for batch in batches[:3]:
            cluster.submit(batch)
            cluster.replicate()
        assert [replica.structure_pending
                for replica in cluster.replicas.values()] == [3, 3]
        cluster.kill_replica("r0")
        cluster.submit(batches[3])
        cluster.replicate()
        assert cluster.replicas["r1"].structure_pending == 4
        cluster.restart_replica("r0")
        assert cluster.sync()
        cluster.promote("r1")  # promoted with its backlog unapplied
        for batch in batches[4:]:
            cluster.submit(batch)
            cluster.replicate()
        assert cluster.sync()
        expected = shadow_values(
            rmat(scale=6, edge_factor=5, seed=17, weighted=True), batches)
        writer = cluster.writer.server
        assert np.array_equal(writer.approximate_values, expected)
        replica = cluster.replicas["r0"]
        assert np.array_equal(replica.approximate_values, expected)
        for name in ARRAY_NAMES:
            assert np.array_equal(getattr(replica.server.graph, name),
                                  getattr(writer.graph, name)), name
        cluster.close()


# ----------------------------------------------------------------------
# Fencing
# ----------------------------------------------------------------------
class TestFencing:
    def drive(self, graph, rng, tmp_path):
        cluster = build_cluster(graph, tmp_path)
        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(4)]
        for batch in batches[:2]:
            cluster.submit(batch)
            cluster.replicate()
        # The writer runs ahead un-replicated, then loses the crown.
        for batch in batches[2:]:
            cluster.submit(batch)
        return cluster, batches

    def test_promote_fences_the_deposed_writer(self, graph, rng,
                                               tmp_path):
        cluster, batches = self.drive(graph, rng, tmp_path)
        promoted = cluster.promote("r0")
        assert cluster.authority.epoch == 2
        assert "r0" not in cluster.replicas
        # The deposed writer's late tail arrives with a stale epoch:
        # rejected onto the survivor's durable ledger, never applied.
        deposed = cluster.deposed[-1]
        deposed.ship()
        cluster.deliver()
        survivor = cluster.replicas["r1"]
        ledger = survivor.fence_ledger()
        assert ledger
        assert all(entry["epoch"] < 2 for entry in ledger)
        assert survivor.fence_rejections == len(ledger)
        # The client re-drives the unacknowledged tail at the new
        # writer; the cluster then converges on the full stream.
        for batch in batches[promoted.server.batches_ingested:]:
            cluster.submit(batch)
            cluster.replicate()
        cluster.sync()
        expected = shadow_values(graph, batches)
        assert np.array_equal(cluster.writer.approximate_values,
                              expected)
        assert np.array_equal(survivor.approximate_values, expected)
        # The epoch survives on disk for the next incarnation.
        authority = EpochAuthority(str(tmp_path / "epoch.json"))
        assert authority.epoch == 2
        cluster.close()

    def test_redelivered_stale_shipment_dedups_on_the_ledger(
            self, graph, rng, tmp_path):
        cluster, _ = self.drive(graph, rng, tmp_path)
        cluster.promote("r0")
        survivor = cluster.replicas["r1"]
        stale = Shipment(kind="segment", epoch=1, index=999,
                         first_seq=50, end_seq=51)
        survivor.inbox.send(stale)
        cluster.deliver()
        once = survivor.fence_rejections
        assert once >= 1
        survivor.inbox.send(stale)  # at-least-once redelivery
        cluster.deliver()
        assert survivor.fence_rejections == once
        cluster.close()

    def test_cannot_promote_a_dead_replica(self, graph, rng, tmp_path):
        cluster, _ = self.drive(graph, rng, tmp_path)
        cluster.kill_replica("r0")
        with pytest.raises(ReplicationError, match="dead"):
            cluster.promote("r0")
        assert "r0" in cluster.replicas  # put back, not lost
        cluster.close()


# ----------------------------------------------------------------------
# Skip-mark propagation
# ----------------------------------------------------------------------
class TestSkipMarks:
    def test_shed_records_replicate_as_skips_not_batches(self, graph,
                                                         rng, tmp_path):
        cluster = build_cluster(graph, tmp_path,
                                admission="shed-oldest",
                                queue_capacity=2)
        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(5)]
        for batch in batches:
            cluster.writer.submit(batch, pump=False)
        cluster.writer.drain()
        cluster.sync()
        writer_marks = cluster.writer_node.manager.quarantine_reasons()
        shed = {seq for seq, reason in writer_marks.items()
                if reason.startswith("shed:")}
        assert shed == {0, 1, 2}
        expected = shadow_values(graph, batches[3:])
        for name, replica in cluster.replicas.items():
            assert np.array_equal(replica.approximate_values,
                                  expected), name
            # The writer's ledger was adopted, so a replica restart
            # replays the same survivor stream.
            assert shed <= set(replica.manager.quarantined), name
        cluster.close()


# ----------------------------------------------------------------------
# Status surfaces
# ----------------------------------------------------------------------
class TestStatus:
    def test_live_status_shape(self, graph, rng, tmp_path):
        cluster = build_cluster(graph, tmp_path)
        for _ in range(3):
            cluster.submit(make_random_batch(graph, rng, 4, 4))
            cluster.replicate()
        cluster.sync()
        summary = cluster.status()
        assert summary["epoch"] == 1
        assert summary["writer"]["next_seq"] == 3
        assert summary["writer"]["links"] == ["r0", "r1"]
        for name in ("r0", "r1"):
            info = summary["replicas"][name]
            assert info["alive"] is True
            assert info["next_seq"] == 3
            assert info["lag_batches"] == 0
            assert info["fence_rejections"] == 0
        cluster.close()

    def test_offline_status_reads_the_directory_tree(self, graph, rng,
                                                     tmp_path):
        cluster = build_cluster(graph, tmp_path)
        for _ in range(4):
            cluster.submit(make_random_batch(graph, rng, 4, 4))
            cluster.replicate()
        cluster.sync()
        cluster.close()
        report = replication_status(str(tmp_path))
        assert report["epoch"] == 1
        assert report["writer"]["next_seq"] == 4
        assert set(report["replicas"]) == {"r0", "r1"}
        for info in report["replicas"].values():
            assert info["next_seq"] == 4
        # The report is JSON-serialisable as-is (the CLI prints it).
        json.dumps(report)

    def test_offline_status_requires_a_directory(self, tmp_path):
        with pytest.raises(ReplicationError, match="not a directory"):
            replication_status(str(tmp_path / "absent"))


# ----------------------------------------------------------------------
# Snapshot-store segment shipping (mmap writer graphs)
# ----------------------------------------------------------------------
class TestStoreSegmentShipping:
    """When the writer's graph lives in an :class:`MmapStore`, its
    manifest-mode checkpoints reference store segment files; those
    files must ship through the transport ahead of the checkpoint, and
    a replica bootstrap must open them from its *own* store spool as
    memmaps -- a file copy, not a full-WAL replay."""

    def _mmap_cluster(self, tmp_path, transport="directory"):
        return mmap_cluster(tmp_path, transport=transport)

    def test_segments_ship_through_directory_transport(
            self, rng, tmp_path):
        from repro.obs.registry import scoped_registry

        with scoped_registry() as registry:
            graph, cluster = self._mmap_cluster(tmp_path)
            batches = [make_random_batch(graph, rng, 8, 8)
                       for _ in range(6)]
            for batch in batches:
                cluster.submit(batch)
                cluster.replicate()
            cluster.sync()
            shipped = registry.counter(
                "replication.store_segments_shipped").value
            assert shipped >= 6, (
                "manifest-mode checkpoints must ship their snapshot "
                "segment files (six arrays per snapshot)"
            )
            expected = shadow_values(graph, batches)
            for name, replica in cluster.replicas.items():
                assert np.array_equal(replica.approximate_values,
                                      expected), name
                spooled = [f for f in os.listdir(replica.store_root)
                           if f.endswith(".seg")]
                assert spooled, (
                    f"replica {name} has no shipped store segments"
                )
            cluster.close()

    def _store_shipped(self, registry):
        return registry.counter(
            "replication.store_segments_shipped").value

    def test_caught_up_links_are_shipped_no_store_files(self, rng,
                                                        tmp_path):
        """Across three checkpoints the store-file count stays at its
        bootstrap value; a link made to lag past a checkpoint gets the
        files again (the post-gap path is the bootstrap path)."""
        from repro.obs.registry import scoped_registry
        from repro.testing.faults import scoped_failpoints

        with scoped_registry() as registry:
            graph, cluster = self._mmap_cluster(tmp_path)
            cluster.replicate()
            bootstrap = self._store_shipped(registry)
            assert bootstrap == 2 * 6  # two links, six arrays each
            batches = [make_random_batch(graph, rng, 8, 8)
                       for _ in range(9)]
            for batch in batches[:6]:
                cluster.submit(batch)
                cluster.replicate()
            checkpoints = registry.counter(
                "replication.checkpoints_shipped").value
            assert checkpoints >= 2 * (1 + 3)
            assert self._store_shipped(registry) == bootstrap
            assert registry.counter(
                "replication.snapshots_aliased").value == 2 * 3
            assert cluster.gap_resyncs == 0
            for replica in cluster.replicas.values():
                assert replica.checkpoint_seq == 6
            # r0's tail shipment is lost: it is not standing at seq 8
            # when that checkpoint's blob arrives, reports a gap, and
            # the resync ships the files a lagging link needs.
            with scoped_failpoints() as failpoints:
                failpoints.arm("replication.ship", kind="fault", hit=1)
                cluster.submit(batches[6])
                cluster.replicate()
            cluster.submit(batches[7])
            cluster.replicate()
            # (once per out-of-order shipment that was already queued)
            assert cluster.gap_resyncs >= 1
            assert (self._store_shipped(registry)
                    == bootstrap + 6 * cluster.gap_resyncs)
            cluster.submit(batches[8])
            assert cluster.sync()
            expected = shadow_values(graph, batches)
            for name, replica in cluster.replicas.items():
                assert np.array_equal(replica.approximate_values,
                                      expected), name
            assert all(report.ok for report in cluster.scrub().values())
            cluster.close()

    def test_a_disagreeing_alias_nacks_and_heals_by_resync(self, rng,
                                                            tmp_path):
        from repro.obs.registry import scoped_registry

        with scoped_registry() as registry:
            graph, cluster = self._mmap_cluster(tmp_path)
            batches = [make_random_batch(graph, rng, 8, 8)
                       for _ in range(4)]
            cluster.submit(batches[0])
            cluster.replicate()
            cluster.submit(batches[1])   # checkpoint 2 falls due
            cluster.writer_node.ship()
            # r0 will apply record 1, then meet the checkpoint.  At that
            # moment -- its generation derived and still unsealed, the
            # alias about to seal and compare it -- one byte of its
            # out_targets rots in memory.
            replica = cluster.replicas["r0"]
            store = replica.server.graph.store
            alias = store.alias_snapshot

            def rot_then_alias(reference, held, owner):
                assert held not in on_disk_snapshots(store.root)
                assert store.segment_files(held) == []
                held_graph = replica.server.graph
                assert held_graph.snapshot_id == held
                held_graph.out_targets.view(np.uint8)[-8] ^= 0x01
                return alias(reference, held, owner)

            store.alias_snapshot = rot_then_alias
            before = self._store_shipped(registry)
            try:
                cluster.deliver()
            finally:
                store.alias_snapshot = alias
            assert cluster.integrity_rejections == 1
            assert registry.counter(
                "replication.shipments_rejected").value == 1
            # The NACK's resync shipped the files; the checkpoint is
            # adopted over them, not over the disagreeing generation.
            assert self._store_shipped(registry) == before + 6
            assert replica.checkpoint_seq == 2
            spooled = os.listdir(replica.store_root)
            assert any(name.startswith("snap-") for name in spooled)
            assert cluster.replicas["r1"].checkpoint_seq == 2
            for batch in batches[2:]:
                cluster.submit(batch)
                cluster.replicate()
            assert cluster.sync()
            assert np.array_equal(replica.approximate_values,
                                  shadow_values(graph, batches))
            cluster.close()

    @pytest.mark.parametrize("transport", ["inproc", "directory"])
    def test_a_promoted_writer_ships_store_files_from_its_own_spool(
            self, rng, tmp_path, transport):
        """The checkpoints a promoted replica retains still record the
        dead writer's store root (and the dead writer's file names,
        where the replica bound the snapshot to its own generation):
        bootstrapping a fresh link must read neither."""
        graph, cluster = self._mmap_cluster(tmp_path, transport=transport)
        batches = [make_random_batch(graph, rng, 8, 8) for _ in range(7)]
        # Checkpoints 2 and 4 are adopted blob-only; retain=2 rotates
        # the bootstrap checkpoint out of every node.
        for batch in batches[:5]:
            cluster.submit(batch)
            cluster.replicate()
        cluster.promote("r0")
        assert [seq for seq, _ in
                cluster.writer_node.manager.checkpoints()] == [2, 4]
        shutil.rmtree(tmp_path / "writer-store")  # the old writer's tree
        # r1 is wiped and re-bootstrapped by the promoted writer.
        rebuilt = cluster._rebuild_replica("r1")
        assert rebuilt.checkpoint_seq == 4
        for batch in batches[5:]:
            cluster.submit(batch)
            cluster.replicate()
        assert cluster.sync()
        # (the shadow runs over a heap build: the published one is gone)
        expected = shadow_values(
            rmat(scale=6, edge_factor=5, seed=17, weighted=True), batches)
        assert np.array_equal(cluster.writer.approximate_values, expected)
        assert np.array_equal(rebuilt.approximate_values, expected)
        cluster.close()

    @pytest.mark.parametrize("transport", ["inproc", "directory"])
    def test_nothing_on_the_serving_path_deflates_or_base64s(
            self, rng, tmp_path, transport, monkeypatch):
        """Guard: checkpoint, ship, adopt, kill and recover with every
        compressor and base64 encoder rigged to raise."""
        import base64
        import zlib

        def forbidden(*args, **kwargs):
            raise AssertionError("compression / base64 on the serving path")

        monkeypatch.setattr(zlib, "compressobj", forbidden)
        monkeypatch.setattr(zlib, "compress", forbidden)
        monkeypatch.setattr(np, "savez_compressed", forbidden)
        monkeypatch.setattr(base64, "b64encode", forbidden)
        graph, cluster = self._mmap_cluster(tmp_path, transport=transport)
        batches = [make_random_batch(graph, rng, 8, 8) for _ in range(5)]
        for batch in batches[:3]:  # checkpoints 0 and 2
            cluster.submit(batch)
            cluster.replicate()
        cluster.restart_writer()  # a kill: recovered from checkpoint 2
        for batch in batches[3:]:
            cluster.submit(batch)
            cluster.replicate()
        assert cluster.sync()
        expected = shadow_values(graph, batches)
        assert np.array_equal(cluster.writer.approximate_values, expected)
        for name, replica in cluster.replicas.items():
            assert np.array_equal(replica.approximate_values,
                                  expected), name
        cluster.close()

    def test_a_writer_killed_between_checkpoints_recovers_from_the_seal(
            self, rng, tmp_path):
        """A batch writes no store file, so a writer killed one batch
        past its newest checkpoint recovers bit for bit from the sealed
        generation plus the WAL tail, and the next compaction leaves no
        segment of its own label unnamed."""
        from repro.graph.csr import CSRGraph
        from repro.graph.mutable import StreamingGraph
        from repro.graph.storage import ARRAY_NAMES

        graph, cluster = self._mmap_cluster(tmp_path)
        heap = StreamingGraph(CSRGraph(graph.num_vertices,
                                       *graph.all_edges()))
        batches = [make_random_batch(graph, rng, 8, 8) for _ in range(5)]
        root = tmp_path / "writer-store"
        for batch in batches[:2]:  # checkpoints 0 and 2
            cluster.submit(batch)
            cluster.replicate()
        sealed = sorted(os.listdir(root))
        cluster.submit(batches[2])
        cluster.replicate()
        killed = cluster.writer.server.graph
        assert killed.store.segment_files(killed.snapshot_id) == []
        assert sorted(os.listdir(root)) == sealed
        cluster.restart_writer()  # a kill: checkpoint 2 + one record
        for batch in batches[:3]:
            heap.apply_batch(batch)
        recovered = cluster.writer.server.graph
        for name in ARRAY_NAMES:
            assert (np.asarray(getattr(recovered, name)).tobytes()
                    == getattr(heap.graph, name).tobytes()), name
        assert np.array_equal(cluster.writer.approximate_values,
                              shadow_values(graph, batches[:3]))
        store = recovered.store
        store.compact()
        named = {name for sid in store.snapshot_ids()
                 for name in store.segment_files(sid)}
        own = [name for name in os.listdir(root)
               if name.startswith(f"{store.label}-g")]
        assert own and set(own) <= named
        assert not [name for name in os.listdir(root)
                    if name.endswith(".tmp")]
        for batch in batches[3:]:
            cluster.submit(batch)
            cluster.replicate()
        assert cluster.sync()
        expected = shadow_values(graph, batches)
        assert np.array_equal(cluster.writer.approximate_values, expected)
        for name, replica in cluster.replicas.items():
            assert np.array_equal(replica.approximate_values,
                                  expected), name
        cluster.close()

    def test_a_replica_pins_the_snapshot_it_adopted_from_shipped_files(
            self, rng, tmp_path):
        """The bootstrap checkpoint's snapshot arrived as files, not by
        replay; while that checkpoint is retained its files must be too,
        or a promoted node cannot bootstrap a fresh link from it."""
        graph, cluster = self._mmap_cluster(tmp_path)
        batches = [make_random_batch(graph, rng, 8, 8) for _ in range(5)]
        cluster.replicate()  # bootstrap: checkpoint 0 + its six files
        replica = cluster.replicas["r0"]
        shipped = replica.server.graph.snapshot_id
        for batch in batches[:3]:  # checkpoint 2 adopted blob-only
            cluster.submit(batch)
            cluster.replicate()
        assert [seq for seq, _ in replica.manager.checkpoints()] == [0, 2]
        store = replica.server.graph.store
        assert replica.server.graph.snapshot_id != shipped
        assert shipped in store.snapshot_ids()  # replayed past, yet kept
        cluster.promote("r0")
        shutil.rmtree(tmp_path / "writer-store")
        # A resync from seq 0 picks checkpoint 0 -- the one whose files
        # only the pin kept.
        rebuilt = cluster._rebuild_replica("r1")
        assert rebuilt.checkpoint_seq == 2
        for batch in batches[3:]:
            cluster.submit(batch)
            cluster.replicate()
        assert cluster.sync()
        expected = shadow_values(
            rmat(scale=6, edge_factor=5, seed=17, weighted=True), batches)
        assert np.array_equal(cluster.writer.approximate_values, expected)
        assert np.array_equal(rebuilt.approximate_values, expected)
        cluster.close()

    def test_compaction_honours_what_an_alias_pins(self, rng, tmp_path):
        graph, cluster = self._mmap_cluster(tmp_path)
        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(8)]
        for batch in batches[:2]:
            cluster.submit(batch)
            cluster.replicate()
        replica = cluster.replicas["r0"]
        store = replica.server.graph.store
        (alias,) = [sid for sid in store.snapshot_ids()
                    if not sid.startswith("r0-")
                    and store.segment_files(sid)[0].startswith("r0-")]
        pinned = [os.path.join(replica.store_root, name)
                  for name in store.segment_files(alias)]
        cluster.submit(batches[2])
        cluster.replicate()
        cluster.submit(batches[3])
        cluster.replicate()
        # Two generations on, the aliased generation's own entry is
        # gone; its files are not -- checkpoint 2 still pins the alias.
        assert alias in store.snapshot_ids()
        assert all(os.path.exists(path) for path in pinned)
        store.verify(alias)
        for batch in batches[4:]:
            cluster.submit(batch)
            cluster.replicate()
        # retain=2: checkpoint 2 has rotated out (6 and 8 remain), the
        # pin expired with it, and compaction reclaimed the files.
        assert [seq for seq, _ in replica.manager.checkpoints()] == [6, 8]
        assert alias not in store.snapshot_ids()
        assert not any(os.path.exists(path) for path in pinned)
        cluster.close()

    def test_replica_restart_bootstraps_from_local_spool(
            self, rng, tmp_path):
        """A restarted replica restores the checkpointed graph from
        segment files in its own spool -- memmap views under the
        replica's store root, and strictly fewer WAL records replayed
        than the writer ingested."""
        graph, cluster = self._mmap_cluster(tmp_path)
        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(6)]
        for batch in batches:
            cluster.submit(batch)
            cluster.replicate()
        cluster.sync()
        cluster.kill_replica("r0")
        replica = cluster.restart_replica("r0")
        cluster.sync()
        assert np.array_equal(replica.approximate_values,
                              shadow_values(graph, batches))
        # The restored snapshot must be served from the replica's own
        # spool, not the writer's store directory.
        restored = replica.server.engine.graph
        targets = restored.out_targets
        assert isinstance(targets, np.memmap)
        assert os.path.abspath(targets.filename).startswith(
            os.path.abspath(replica.store_root))
        # Bootstrap position: the replica resumed from a checkpoint,
        # not from seq 0 (full-WAL replay).
        generations = replica.manager.checkpoints()
        assert generations and generations[-1][0] > 0
        cluster.close()
