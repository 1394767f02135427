"""Tests for chaos-hardened replication: the seeded lossy transport,
the bounded retry/dead-letter shipping path, and the seq-consistency
pins that make at-least-once delivery exactly-once in effect.

The acceptance property stack:

- :class:`ChaosTransport` is deterministic -- same seed, same link
  name, same send sequence => bit-identical fault schedule;
- each fault kind does what it says on the wire (drop swallows,
  duplicate double-enqueues, corrupt flips a byte the CRC catches,
  reorder swaps adjacent shipments, delay hides a shipment for N
  polls);
- (the two acceptance gates -- five seeds of all five faults at 10%
  converging bit-for-bit with every kind fired, and a black-hole link
  dead-lettering instead of hanging -- are the ``chaos`` rows of the
  crash scenario table, tests/recovery/test_crash_equivalence.py);
- duplicated and reordered shipments are never double-applied (the
  exactly-once pin);
- a torn spool file is skipped, retried, and finally sidelined as
  ``*.torn`` so later shipments can flow.
"""

import os

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.graph.generators import rmat
from repro.obs.registry import scoped_registry
from repro.serving import (
    ChaosConfig,
    ChaosTransport,
    DirectoryTransport,
    InProcessTransport,
    QueryRouter,
    RetryPolicy,
    Shipment,
    corrupt_shipment,
    wrap_cluster,
)
from tests.conftest import make_random_batch
from tests.serving.test_replication import build_cluster, shadow_values


@pytest.fixture
def graph():
    return rmat(scale=6, edge_factor=5, seed=29, weighted=True)


def ship(index, lines=("payload",)):
    return Shipment(kind="segment", epoch=1, index=index,
                    first_seq=index, end_seq=index + 1, lines=lines)


# ----------------------------------------------------------------------
# ChaosTransport unit behavior
# ----------------------------------------------------------------------
class TestChaosConfig:
    def test_all_faults_enables_every_kind(self):
        config = ChaosConfig.all_faults(seed=7, rate=0.25)
        assert (config.drop, config.duplicate, config.corrupt,
                config.reorder, config.delay) == (0.25,) * 5

    def test_defaults_are_quiet(self):
        config = ChaosConfig(seed=7)
        assert (config.drop, config.duplicate, config.corrupt,
                config.reorder, config.delay) == (0.0,) * 5


class TestChaosTransport:
    def run_plan(self, config, count=20):
        link = ChaosTransport(InProcessTransport(), config, name="r0")
        for index in range(count):
            link.send(ship(index))
        link.flush()
        return link

    def test_same_seed_same_schedule(self):
        config = ChaosConfig.all_faults(seed=3, rate=0.3)
        first = self.run_plan(config)
        second = self.run_plan(config)
        assert first.schedule == second.schedule
        assert first.counts == second.counts
        assert any(first.counts[kind] for kind in
                   ("drop", "duplicate", "corrupt", "reorder", "delay"))

    def test_different_link_names_draw_independently(self):
        config = ChaosConfig.all_faults(seed=3, rate=0.3)
        mine = self.run_plan(config)
        link = ChaosTransport(InProcessTransport(), config, name="r1")
        for index in range(20):
            link.send(ship(index))
        link.flush()
        assert [entry["fault"] for entry in mine.schedule] != \
            [entry["fault"] for entry in link.schedule]

    def test_drop_swallows_the_shipment(self):
        link = ChaosTransport(InProcessTransport(),
                              ChaosConfig(seed=0, drop=1.0))
        link.send(ship(0))
        assert link.pending() == 0
        assert link.counts["drop"] == 1

    def test_duplicate_enqueues_twice(self):
        link = ChaosTransport(InProcessTransport(),
                              ChaosConfig(seed=0, duplicate=1.0))
        link.send(ship(0))
        assert link.pending() == 2
        assert link.peek() == ship(0)
        link.ack()
        assert link.peek() == ship(0)

    def test_corrupt_mutates_the_payload(self):
        link = ChaosTransport(InProcessTransport(),
                              ChaosConfig(seed=0, corrupt=1.0))
        original = ship(0, lines=("abcdefgh",))
        link.send(original)
        delivered = link.peek()
        assert delivered is not None
        assert delivered != original
        assert link.counts["corrupt"] == 1

    def test_corrupt_reaches_both_gates_of_a_segment(self):
        """A segment carrying the writer's state is hit in its lines or
        its blob by send index, so both CRC gates can NACK."""
        for index, hit in ((0, "lines"), (1, "blob")):
            shipment = Shipment(kind="segment", epoch=1, index=index,
                                first_seq=0, end_seq=1, lines=("abcd",),
                                blob=b"state")
            corrupted = corrupt_shipment(shipment)
            changed = [name for name in ("lines", "blob")
                       if getattr(corrupted, name)
                       != getattr(shipment, name)]
            assert changed == [hit]

    def test_reorder_swaps_adjacent_shipments(self):
        link = ChaosTransport(InProcessTransport(),
                              ChaosConfig(seed=0, reorder=1.0))
        link.send(ship(0))
        # Held back: not visible downstream, but still "pending" from
        # the writer's accounting (it was sent, not dropped).
        assert link.inner.pending() == 0
        assert link.pending() == 1
        link.send(ship(1))
        assert link.peek() == ship(1)
        link.ack()
        assert link.peek() == ship(0)

    def test_flush_delivers_a_held_reorder(self):
        link = ChaosTransport(InProcessTransport(),
                              ChaosConfig(seed=0, reorder=1.0))
        link.send(ship(0))
        assert link.inner.pending() == 0
        link.flush()
        assert link.peek() == ship(0)

    def test_delay_hides_for_exactly_delay_polls(self):
        link = ChaosTransport(
            InProcessTransport(),
            ChaosConfig(seed=0, delay=1.0, delay_polls=2),
        )
        link.send(ship(0))
        assert link.peek() is None
        assert link.peek() is None
        assert link.peek() == ship(0)
        # Once surfaced it stays surfaced (the plan entry is spent).
        assert link.peek() == ship(0)


class TestRetryPolicy:
    def test_first_attempt_has_no_backoff(self):
        assert RetryPolicy().backoff(1) == 0.0

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(max_attempts=8, backoff_base=0.001,
                             backoff_factor=2.0, backoff_cap=0.05)
        twin = RetryPolicy(max_attempts=8, backoff_base=0.001,
                           backoff_factor=2.0, backoff_cap=0.05)
        for attempt in range(1, 16):
            delay = policy.backoff(attempt)
            assert delay == twin.backoff(attempt)
            assert 0.0 <= delay <= 0.05


# ----------------------------------------------------------------------
# Torn spool files (DirectoryTransport regression)
# ----------------------------------------------------------------------
class TestTornSpool:
    def test_torn_file_is_skipped_then_sidelined(self, tmp_path):
        spool = str(tmp_path / "inbox")
        os.makedirs(spool)
        # A producer without our atomic write discipline tore this
        # write mid-flight; it sorts before the healthy shipment.
        torn = os.path.join(spool, "ship-000000000000.json")
        with open(torn, "w", encoding="utf-8") as stream:
            stream.write('{"kind": "segme')
        link = DirectoryTransport(spool)
        link.send(ship(7))
        with scoped_registry() as registry:
            # Skip-and-retry: the first TORN_RETRIES - 1 polls report
            # an empty inbox rather than crashing the poll loop.
            assert link.peek() is None
            assert link.peek() is None
            # Third strike: sidelined as *.torn, later traffic flows.
            assert link.peek() == ship(7)
            assert registry.counter(
                "replication.torn_spool_skips").value == 3
            assert registry.counter(
                "replication.torn_spool_dropped").value == 1
        assert not os.path.exists(torn)
        assert os.path.exists(torn + ".torn")
        link.ack()
        assert link.pending() == 0

    @pytest.mark.parametrize("blob_len", [5, 1 << 60])
    def test_a_blob_shorter_than_its_envelope_promises_is_torn(
            self, tmp_path, blob_len):
        """The blob travels raw after the envelope; a file cut inside
        it -- or whose length field points an exabyte past its end --
        is a torn file like any other, never an allocation."""
        spool = str(tmp_path / "inbox")
        link = DirectoryTransport(spool)
        whole = Shipment(kind="checkpoint", epoch=1, index=0, first_seq=0,
                         end_seq=0, blob=b"0123456789")
        link.send(whole)
        assert link.peek() == whole
        (name,) = [n for n in os.listdir(spool) if n.startswith("ship-")]
        path = os.path.join(spool, name)
        with open(path, "rb") as stream:
            envelope, blob = stream.read().split(b"\n", 1)
        assert blob == whole.blob  # raw: no base64, no JSON escaping
        with open(path, "wb") as stream:
            stream.write(envelope.replace(b'"blob_len": 10',
                                          b'"blob_len": %d' % blob_len)
                         + b"\n" + blob[:5])
        if blob_len == 5:  # consistent again: a different, whole file
            assert link.peek().blob == b"01234"
            return
        for _ in range(DirectoryTransport.TORN_RETRIES):
            assert link.peek() is None
        assert os.path.exists(path + ".torn")

    def test_intact_spool_resets_the_streak(self, tmp_path):
        spool = str(tmp_path / "inbox")
        link = DirectoryTransport(spool)
        link.send(ship(0))
        # One transient bad read must not accumulate toward sidelining
        # across unrelated files.
        assert link.peek() == ship(0)
        assert link._torn_streak == 0


# ----------------------------------------------------------------------
# Exactly-once pins: duplicates and reorders never double-apply
# ----------------------------------------------------------------------
class TestExactlyOnce:
    @pytest.mark.parametrize("config_kwargs", [
        {"duplicate": 1.0},
        {"reorder": 1.0},
        {"duplicate": 1.0, "reorder": 0.5},
    ])
    def test_no_double_apply(self, graph, rng, tmp_path, config_kwargs):
        cluster = build_cluster(graph, tmp_path, replicas=2)
        wrappers = wrap_cluster(
            cluster, ChaosConfig(seed=5, **config_kwargs)
        )
        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(6)]
        for batch in batches:
            cluster.submit(batch)
            cluster.replicate()
        for wrapper in wrappers:
            wrapper.flush()
        assert cluster.sync()
        if "duplicate" in config_kwargs:
            assert sum(w.counts["duplicate"] for w in wrappers) > 0
        if config_kwargs.get("reorder") == 1.0:
            assert sum(w.counts["reorder"] for w in wrappers) > 0
        expected = shadow_values(graph, batches)
        assert np.array_equal(cluster.writer.approximate_values,
                              expected)
        for name, replica in cluster.replicas.items():
            assert np.array_equal(replica.approximate_values,
                                  expected), name
        assert cluster.max_lag() == 0
        cluster.close()


# ----------------------------------------------------------------------
# Routing composes with integrity quarantine
# ----------------------------------------------------------------------
class TestRouterQuarantine:
    def test_quarantined_replica_serves_no_reads(self, graph, rng,
                                                 tmp_path):
        cluster = build_cluster(graph, tmp_path, replicas=2)
        for _ in range(3):
            cluster.submit(make_random_batch(graph, rng, 6, 6))
            cluster.replicate()
        cluster.sync()
        router = QueryRouter(cluster)
        assert set(router.candidates()) == {"r0", "r1"}
        with scoped_registry() as registry:
            cluster.integrity_quarantine["r0"] = "scrub found damage"
            assert router.candidates() == ["r1"]
            assert registry.counter(
                "router.quarantine_skips").value == 1
        cluster.integrity_quarantine.clear()
        assert set(router.candidates()) == {"r0", "r1"}
        cluster.close()
