"""Tests for the overload-resilience layer.

Three surfaces, per ``docs/operations.md``:

- admission control (block / shed-oldest / coalesce, with durable
  skip-marks so crash replay agrees with the live loop);
- deadline-budgeted queries (degraded iff the window is incomplete,
  values identical to a truncated run);
- the degradation circuit breaker (count-based, so every test here is
  a deterministic property of its event sequence -- no sleeps).
"""

import json

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.graph.generators import rmat
from repro.graph.mutation import MutationBatch
from repro.obs.journal import JsonlJournal
from repro.recovery import RecoveryManager
from repro.runtime.deadline import StepDeadline, WallClockDeadline
from repro.serving import (
    ADMISSION_POLICIES,
    BreakerConfig,
    CircuitBreaker,
    ResilientAnalyticsServer,
    StreamingAnalyticsServer,
)
from repro.testing.faults import InjectedFault, scoped_failpoints
from repro.testing.oracle import compare_snapshots
from repro.testing.workloads import generate_workload
from tests.conftest import make_random_batch


@pytest.fixture
def graph():
    return rmat(scale=7, edge_factor=5, seed=91, weighted=True)


def plain_server(graph, **kwargs):
    kwargs.setdefault("approx_iterations", 3)
    return StreamingAnalyticsServer(lambda: PageRank(), graph, **kwargs)


def growth_poison_check(values):
    """Test poison rule: these workloads never grow past 128 vertices."""
    if values.shape[0] > 128:
        return f"unexpected growth to {values.shape[0]} vertices"
    return None


#: A batch the growth poison check always quarantines.
def poison_batch():
    return MutationBatch.from_edges(additions=[(0, 1)], grow_to=200)


# ----------------------------------------------------------------------
# Circuit breaker: property-style state-machine tests
# ----------------------------------------------------------------------
class TestBreakerConfig:
    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            BreakerConfig(quarantine_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown_submits=0)
        with pytest.raises(ValueError):
            BreakerConfig(degraded_approx_iterations=0)

    def test_block_cannot_be_the_degraded_policy(self, graph):
        # Applies are suspended while the breaker is open, so block
        # cannot backpressure: admission coalesces instead.
        resilient = ResilientAnalyticsServer(plain_server(graph),
                                             admission="block")
        assert resilient.health().admission_policy == "block"
        resilient.breaker.trip()
        assert resilient.health().admission_policy == "coalesce"


class TestBreakerStateMachine:
    def test_trips_after_consecutive_quarantines(self):
        breaker = CircuitBreaker(BreakerConfig(quarantine_threshold=3))
        breaker.record_quarantine()
        breaker.record_quarantine()
        assert breaker.state == "closed"
        breaker.record_quarantine()
        assert breaker.state == "open"
        assert not breaker.allows_apply()

    def test_success_resets_the_quarantine_streak(self):
        breaker = CircuitBreaker(BreakerConfig(quarantine_threshold=2))
        for _ in range(5):  # never two in a row
            breaker.record_quarantine()
            breaker.record_success()
        assert breaker.state == "closed"

    def test_cooldown_probe_success_restores(self):
        breaker = CircuitBreaker(
            BreakerConfig(quarantine_threshold=1, cooldown_submits=2)
        )
        breaker.record_quarantine()
        assert breaker.state == "open"
        breaker.note_deferred()
        assert breaker.state == "open"
        breaker.note_deferred()
        assert breaker.state == "half_open"
        assert breaker.wants_probe()
        breaker.record_probe(ok=True)
        assert breaker.state == "closed"
        assert breaker.allows_apply()

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker = CircuitBreaker(
            BreakerConfig(quarantine_threshold=1, cooldown_submits=2)
        )
        breaker.record_quarantine()
        breaker.note_deferred()
        breaker.note_deferred()
        breaker.record_probe(ok=False)
        assert breaker.state == "open"
        # The cooldown restarts from zero after a failed probe.
        breaker.note_deferred()
        assert breaker.state == "open"
        breaker.note_deferred()
        assert breaker.state == "half_open"

    def test_transition_sequence_is_a_pure_function_of_events(self):
        def drive(breaker):
            breaker.record_quarantine()
            breaker.record_quarantine()
            breaker.note_deferred()
            breaker.note_deferred()
            breaker.record_probe(ok=False)
            breaker.note_deferred()
            breaker.note_deferred()
            breaker.record_probe(ok=True)
            return [(t.from_state, t.to_state) for t in breaker.transitions]

        config = BreakerConfig(quarantine_threshold=2, cooldown_submits=2)
        first = drive(CircuitBreaker(config))
        second = drive(CircuitBreaker(config))
        assert first == second == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_restore_budget_formula(self):
        breaker = CircuitBreaker(
            BreakerConfig(quarantine_threshold=2, cooldown_submits=2)
        )
        # threshold trips + one probe per cooldown period afterwards.
        assert breaker.restore_budget(2) == 3
        assert breaker.restore_budget(12) == 2 + 5 + 1


# ----------------------------------------------------------------------
# Admission policies
# ----------------------------------------------------------------------
class TestAdmission:
    def test_policy_and_capacity_validated(self, graph):
        with pytest.raises(ValueError):
            ResilientAnalyticsServer(plain_server(graph),
                                     admission="drop-newest")
        with pytest.raises(ValueError):
            ResilientAnalyticsServer(plain_server(graph),
                                     queue_capacity=0)
        assert set(ADMISSION_POLICIES) == {
            "block", "shed-oldest", "coalesce"
        }

    def test_rejected_batch_leaves_no_trace(self, graph, tmp_path):
        manager = RecoveryManager(str(tmp_path))
        resilient = ResilientAnalyticsServer(
            plain_server(graph, recovery=manager), max_growth=0,
        )
        bogus_delete = MutationBatch.from_edges(deletions=[(0, 9999)])
        with pytest.raises(ValueError):
            resilient.submit(bogus_delete)
        with pytest.raises(ValueError):  # growth beyond the budget
            resilient.submit(MutationBatch.from_edges(grow_to=500))
        assert resilient.rejected == 2
        assert resilient.submitted == 0
        assert manager.wal.next_seq == 0  # nothing ever logged
        manager.close()

    def test_block_backpressure_is_equivalent_and_bounded(self, graph,
                                                          rng):
        sequential = plain_server(graph)
        resilient = ResilientAnalyticsServer(
            plain_server(graph), queue_capacity=2, admission="block",
        )
        for _ in range(6):
            batch = make_random_batch(sequential.graph, rng, 8, 8)
            sequential.ingest(batch)
            resilient.submit(batch, pump=False)
            # The submitter paid for the overflow synchronously.
            assert resilient.queue_depth <= 2
        resilient.drain()
        assert resilient.queue_depth == 0
        assert resilient.applied == 6 and resilient.shed == 0
        assert np.array_equal(resilient.approximate_values,
                              sequential.approximate_values)

    def test_shed_oldest_drops_head_and_serves_survivors(self, graph,
                                                         rng):
        batches = [make_random_batch(graph, rng, 8, 8) for _ in range(5)]
        resilient = ResilientAnalyticsServer(
            plain_server(graph), queue_capacity=2,
            admission="shed-oldest",
        )
        for batch in batches:
            resilient.submit(batch, pump=False)
        resilient.drain()
        assert resilient.shed == 3 and resilient.applied == 2
        survivors = plain_server(graph)
        for batch in batches[3:]:
            survivors.ingest(batch)
        assert np.array_equal(resilient.approximate_values,
                              survivors.approximate_values)

    def test_durable_shed_is_skip_marked_and_replayable(self, graph,
                                                        rng, tmp_path):
        batches = [make_random_batch(graph, rng, 8, 8) for _ in range(5)]
        manager = RecoveryManager(str(tmp_path), checkpoint_every=100)
        resilient = ResilientAnalyticsServer(
            plain_server(graph, recovery=manager), queue_capacity=2,
            admission="shed-oldest",
        )
        for batch in batches:
            resilient.submit(batch, pump=False)
        resilient.drain()
        # Oldest three shed with a durable mark; none of them is poison.
        assert manager.quarantined == frozenset({0, 1, 2})
        assert all(reason.startswith("shed:")
                   for reason in manager.quarantine_reasons().values())
        assert manager.poison_quarantined() == frozenset()
        live = resilient.approximate_values.copy()
        manager.close()
        # A cold replay of the ledger agrees with the live loop.
        recovered = RecoveryManager(str(tmp_path)).recover(
            lambda: PageRank()
        )
        assert np.array_equal(recovered.approximate_values, live)
        recovered.recovery.close()

    def test_durable_coalesce_supersedes_constituents(self, graph, rng,
                                                      tmp_path):
        manager = RecoveryManager(str(tmp_path), checkpoint_every=100)
        sequential = plain_server(graph)
        resilient = ResilientAnalyticsServer(
            plain_server(graph, recovery=manager), queue_capacity=2,
            admission="coalesce",
        )
        for _ in range(5):
            batch = make_random_batch(sequential.graph, rng, 8, 8)
            sequential.ingest(batch)
            resilient.submit(batch, pump=False)
        resilient.drain()
        # Every original record is durably superseded by a merged one.
        assert frozenset(range(5)) <= manager.quarantined
        assert all(
            manager.quarantine_reasons()[seq].startswith("superseded:")
            for seq in range(5)
        )
        assert manager.poison_quarantined() == frozenset()
        assert resilient.coalesced == 4
        # Lossless: the merged stream serves the sequential answer.
        verdict = compare_snapshots(resilient.approximate_values,
                                    sequential.approximate_values,
                                    tolerance=1e-9)
        assert verdict is None, verdict
        live = resilient.approximate_values.copy()
        manager.close()
        recovered = RecoveryManager(str(tmp_path)).recover(
            lambda: PageRank()
        )
        assert np.array_equal(recovered.approximate_values, live)
        recovered.recovery.close()

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_coalesce_lossless_on_fuzzed_workloads(self, seed):
        """The PR-1 oracle pins coalescing across fuzzed schedules."""
        workload = generate_workload(seed, max_vertices=48,
                                     max_batches=6)
        profile = workload.profile

        def build():
            return StreamingAnalyticsServer(
                profile.factory, workload.build_graph(),
                approx_iterations=3,
                exact_iterations=profile.num_iterations,
            )

        sequential = build()
        resilient = ResilientAnalyticsServer(build(), queue_capacity=1,
                                             admission="coalesce")
        for batch in workload.schedule:
            sequential.ingest(batch)
            try:
                resilient.submit(batch, pump=False)
            except ValueError:
                # The batch deletes at a vertex that exists only once
                # earlier queued growth applies: apply the queue, then
                # resubmit against the grown snapshot.
                resilient.drain()
                resilient.submit(batch, pump=False)
        resilient.drain()
        verdict = compare_snapshots(resilient.approximate_values,
                                    sequential.approximate_values,
                                    tolerance=profile.tolerance)
        assert verdict is None, (workload.describe(), verdict)

    def test_enqueue_failpoint_fires(self, graph, rng):
        resilient = ResilientAnalyticsServer(plain_server(graph))
        batch = make_random_batch(graph, rng, 4, 4)
        with scoped_failpoints() as registry:
            registry.arm("admission.enqueue", kind="fault", hit=1)
            with pytest.raises(InjectedFault):
                resilient.submit(batch)


# ----------------------------------------------------------------------
# Deadline-budgeted queries
# ----------------------------------------------------------------------
class TestDeadlineQueries:
    def ingested(self, graph, rng, exact_iterations=10):
        server = plain_server(graph, exact_iterations=exact_iterations)
        batches = [make_random_batch(server.graph, rng, 8, 8)
                   for _ in range(3)]
        for batch in batches:
            server.ingest(batch)
        return server, batches

    def test_expired_deadline_degrades_instead_of_raising(self, graph,
                                                          rng):
        server, _ = self.ingested(graph, rng)
        result = server.query(deadline=StepDeadline(2))
        assert result.degraded
        assert result.iterations_completed == result.iterations == 5
        assert result.iterations_completed < server.exact_iterations
        assert np.isfinite(result.residual_l1)
        assert server.queries_degraded == 1

    def test_degraded_values_equal_truncated_window(self, graph, rng):
        """Bit-for-bit: the best-so-far state IS the shallower answer."""
        server, batches = self.ingested(graph, rng)
        result = server.query(deadline=StepDeadline(2))
        truncated = plain_server(
            graph, exact_iterations=result.iterations_completed
        )
        for batch in batches:
            truncated.ingest(batch)
        full_window = truncated.query()
        assert not full_window.degraded
        assert np.array_equal(result.values, full_window.values)

    def test_degraded_values_match_from_scratch_truncation(self, graph,
                                                           rng):
        from repro.ligra.engine import LigraEngine

        server, _ = self.ingested(graph, rng)
        result = server.query(deadline=StepDeadline(2))
        scratch = LigraEngine(PageRank()).run(
            server.graph, result.iterations_completed
        )
        verdict = compare_snapshots(result.values, scratch,
                                    tolerance=1e-9)
        assert verdict is None, verdict

    def test_generous_deadline_is_not_degraded(self, graph, rng):
        server, _ = self.ingested(graph, rng)
        result = server.query(deadline=StepDeadline(1000))
        assert not result.degraded
        assert result.iterations == server.exact_iterations
        assert server.queries_degraded == 0

    def test_zero_wall_clock_budget_still_answers(self, graph, rng):
        server, _ = self.ingested(graph, rng)
        result = server.query(deadline=WallClockDeadline(0.0))
        assert result.degraded
        assert result.values.shape == (server.graph.num_vertices,)
        # The branch never ran past the copied main-loop state.
        assert result.iterations_completed >= server.approx_iterations

    def test_early_fixpoint_is_not_degraded(self, rng):
        # A graph whose PageRank stabilises quickly: the frontier
        # empties before the window does, and the remaining iterations
        # are identity -- that is completion, not degradation.
        graph = rmat(scale=5, edge_factor=2, seed=4, weighted=True)
        server = StreamingAnalyticsServer(
            lambda: PageRank(tolerance=1e-2), graph,
            approx_iterations=2, exact_iterations=200,
        )
        server.ingest(make_random_batch(server.graph, rng, 4, 4))
        result = server.query(deadline=StepDeadline(1000))
        assert result.iterations_completed < 200
        assert not result.degraded

    def test_deadline_failpoint_fires_only_with_a_budget(self, graph,
                                                         rng):
        server, _ = self.ingested(graph, rng)
        with scoped_failpoints() as registry:
            registry.arm("query.deadline", kind="fault", hit=1)
            server.query()  # no budget: the site is not on this path
            with pytest.raises(InjectedFault):
                server.query(deadline=StepDeadline(3))


# ----------------------------------------------------------------------
# Flapping poison: the breaker bounds restores
# ----------------------------------------------------------------------
class TestFlappingPoison:
    N = 12

    def flap(self, graph, state_dir, breaker_config):
        manager = RecoveryManager(str(state_dir), checkpoint_every=100,
                                  poison_check=growth_poison_check)
        resilient = ResilientAnalyticsServer(
            plain_server(graph, recovery=manager),
            queue_capacity=8, breaker=breaker_config,
        )
        for _ in range(self.N):
            resilient.submit(poison_batch())
            # Queries keep answering throughout the storm, serving the
            # last good state.
            result = resilient.query(deadline=StepDeadline(1))
            assert result.values.shape[0] == graph.num_vertices
        restores = resilient.server.restores
        manager.close()
        return resilient, restores

    def test_breaker_bounds_restores_under_flapping_poison(
            self, graph, tmp_path):
        config = BreakerConfig(quarantine_threshold=2,
                               cooldown_submits=2)
        resilient, restores = self.flap(graph, tmp_path / "protected",
                                        config)
        budget = resilient.breaker.restore_budget(self.N)
        assert restores <= budget, (restores, budget)
        # The breaker actually engaged (this is not a vacuous bound).
        assert resilient.breaker.transitions
        assert resilient.deferred > 0

    def test_without_breaker_restores_are_unbounded(self, graph,
                                                    tmp_path):
        """Regression pin: the unprotected loop -- a bare durable
        server on the same poison schedule -- restores once per poison
        batch, strictly above the protected budget."""
        manager = RecoveryManager(str(tmp_path), checkpoint_every=100,
                                  poison_check=growth_poison_check)
        server = plain_server(graph, recovery=manager)
        for _ in range(self.N):
            server.ingest(poison_batch())
        restores = server.restores
        manager.close()
        assert restores == self.N
        protected_budget = CircuitBreaker(
            BreakerConfig(quarantine_threshold=2, cooldown_submits=2)
        ).restore_budget(self.N)
        assert restores > protected_budget

    def test_recovery_after_the_storm(self, graph, rng, tmp_path):
        """A probe that finds a healthy batch restores full service."""
        manager = RecoveryManager(str(tmp_path), checkpoint_every=100,
                                  poison_check=growth_poison_check)
        resilient = ResilientAnalyticsServer(
            plain_server(graph, recovery=manager),
            breaker=BreakerConfig(quarantine_threshold=2,
                                  cooldown_submits=2),
        )
        resilient.submit(poison_batch())
        resilient.submit(poison_batch())
        assert resilient.breaker.state == "open"
        good = [make_random_batch(graph, rng, 6, 6) for _ in range(3)]
        for batch in good:
            resilient.submit(batch)
        # Cooldown elapsed, the probe succeeded, the queue drained.
        assert resilient.breaker.state == "closed"
        assert resilient.queue_depth == 0
        shadow = plain_server(graph)
        for batch in good:
            shadow.ingest(batch)
        assert np.array_equal(resilient.approximate_values,
                              shadow.approximate_values)
        manager.close()


# ----------------------------------------------------------------------
# Health surface
# ----------------------------------------------------------------------
class TestHealth:
    def test_snapshot_tracks_queue_and_staleness(self, graph, rng):
        resilient = ResilientAnalyticsServer(plain_server(graph),
                                             queue_capacity=8)
        for _ in range(3):
            resilient.submit(make_random_batch(graph, rng, 4, 4),
                             pump=False)
        health = resilient.health()
        assert health.queue_depth == 3
        assert health.staleness_batches == 3
        assert health.applied == 0 and health.submitted == 3
        assert health.breaker_state == "closed"
        assert health.admission_policy == "block"
        resilient.drain()
        health = resilient.health()
        assert health.queue_depth == 0
        assert health.staleness_batches == 0
        assert health.applied == 3

    def test_staleness_counts_constituents_not_entries(self, graph,
                                                       rng):
        resilient = ResilientAnalyticsServer(
            plain_server(graph), queue_capacity=1, admission="coalesce",
        )
        for _ in range(4):
            resilient.submit(make_random_batch(graph, rng, 4, 4),
                             pump=False)
        health = resilient.health()
        assert health.queue_depth == 1  # folded into one entry
        assert health.staleness_batches == 4  # but four batches stale
        assert health.coalesced == 3

    def test_quarantine_count_reads_poison_only(self, graph, rng,
                                                tmp_path):
        manager = RecoveryManager(str(tmp_path), checkpoint_every=100,
                                  poison_check=growth_poison_check)
        resilient = ResilientAnalyticsServer(
            plain_server(graph, recovery=manager), queue_capacity=2,
            admission="shed-oldest",
        )
        resilient.submit(make_random_batch(graph, rng, 4, 4),
                         pump=False)
        resilient.submit(make_random_batch(graph, rng, 4, 4),
                         pump=False)
        resilient.submit(poison_batch())  # overflow sheds the oldest
        health = resilient.health()
        # Shed skip-marks are bookkeeping, not poison.
        assert health.quarantine_count == 1
        assert health.shed == 1
        assert health.restores == 1
        manager.close()

    def test_record_health_appends_jsonl(self, graph, rng, tmp_path):
        resilient = ResilientAnalyticsServer(plain_server(graph))
        path = str(tmp_path / "health.jsonl")
        with JsonlJournal.open(path) as journal:
            resilient.record_health(journal)
            resilient.submit(make_random_batch(graph, rng, 4, 4))
            resilient.record_health(journal)
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == 2
        assert all(r["event"] == "health" for r in records)
        assert records[-1]["applied"] == 1
        assert records[-1]["breaker_state"] == "closed"

    def test_snapshot_serialises(self, graph):
        health = ResilientAnalyticsServer(plain_server(graph)).health()
        decoded = json.loads(health.to_json())
        assert decoded["queue_depth"] == 0
        assert decoded["admission_policy"] == "block"


# ----------------------------------------------------------------------
# Restarting the resilient server
# ----------------------------------------------------------------------
class TestRecoverClassmethod:
    def test_recover_resumes_the_admitted_stream(self, graph, rng,
                                                 tmp_path):
        manager = RecoveryManager(str(tmp_path), checkpoint_every=2)
        resilient = ResilientAnalyticsServer(
            plain_server(graph, recovery=manager), queue_capacity=8,
        )
        batches = [make_random_batch(graph, rng, 6, 6)
                   for _ in range(4)]
        for batch in batches[:3]:
            resilient.submit(batch)
        # The fourth is admitted (WAL-logged) but never applied -- the
        # "crash with a non-empty queue" shape.
        resilient.submit(batches[3], pump=False)
        assert resilient.queue_depth == 1
        manager.close()

        revived = ResilientAnalyticsServer.recover(
            RecoveryManager(str(tmp_path), checkpoint_every=2),
            lambda: PageRank(),
        )
        # Submit-time logging means the queued batch was replayed.
        shadow = plain_server(graph)
        for batch in batches:
            shadow.ingest(batch)
        assert np.array_equal(revived.approximate_values,
                              shadow.approximate_values)
        assert revived.queue_depth == 0
        revived.server.recovery.close()
