"""Tests for the serving/observability glue (``ServingObserver``).

Covers the PlantedLatency fault, wide events flowing out of the real
serving loop (with valid trace exemplars when tracing is on), SLO
ticks riding the applied-batch index, and the breaker-timeline pin:
a scripted poison/restore run's journaled health records reconstruct
**exactly** the breaker's own ``BreakerTransition`` history.
"""

import pytest

from repro.algorithms import PageRank
from repro.graph.generators import rmat
from repro.graph.mutation import MutationBatch
from repro.obs import trace
from repro.obs.journal import JsonlJournal
from repro.obs.registry import scoped_registry
from repro.obs.slo import SLO, SLOEvaluator
from repro.obs.trace import Tracer
from repro.recovery import RecoveryManager
from repro.serving import (
    BreakerConfig,
    PlantedLatency,
    ResilientAnalyticsServer,
    ServingObserver,
    StreamingAnalyticsServer,
)
from tests.conftest import journal_records, make_random_batch, wide_events


@pytest.fixture
def graph():
    return rmat(scale=7, edge_factor=5, seed=91, weighted=True)


def plain_server(graph, **kwargs):
    kwargs.setdefault("approx_iterations", 3)
    return StreamingAnalyticsServer(lambda: PageRank(), graph, **kwargs)


def growth_poison_check(values):
    if values.shape[0] > 128:
        return f"unexpected growth to {values.shape[0]} vertices"
    return None


def poison_batch():
    return MutationBatch.from_edges(additions=[(0, 1)], grow_to=200)


def fast_slo():
    """Fires on the first violating tick (fast=1/2/0.1=5.0x,
    slow=1/3/0.1~=3.3x over the 3-sample partial window)."""
    return SLO(name="plant-latency", signal="ingest_latency", op="<",
               threshold=1.0, budget=0.1, fast_window=2, slow_window=4,
               fast_burn=5.0, slow_burn=2.5)


class TestPlantedLatency:
    def test_parse_cli_form(self):
        plant = PlantedLatency.parse("10:9.9")
        assert plant == PlantedLatency(from_index=10, seconds=9.9)

    @pytest.mark.parametrize("spec", ["10", "ten:1.0", "3:fast"])
    def test_parse_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            PlantedLatency.parse(spec)


class TestObserverOnServingLoop:
    def observed(self, graph, rng, batches=4, **observer_kwargs):
        observer = ServingObserver(**observer_kwargs)
        resilient = ResilientAnalyticsServer(plain_server(graph),
                                             observer=observer)
        for _ in range(batches):
            resilient.submit(make_random_batch(graph, rng, 4, 4))
        return resilient, observer

    def test_planted_fault_fires_through_the_real_loop(self, graph,
                                                       rng):
        with scoped_registry():
            evaluator = SLOEvaluator([fast_slo()])
            self.observed(
                graph, rng, batches=4,
                evaluator=evaluator,
                planted_latency=PlantedLatency(from_index=2,
                                               seconds=9.9),
            )
            firing = [a for a in evaluator.alerts
                      if a.state == "firing"]
            assert [(a.slo, a.index) for a in firing] == [
                ("plant-latency", 2)]
            assert firing[0].value == pytest.approx(9.9)

    def test_batch_wide_events_carry_the_dimensions(self, graph, rng):
        with scoped_registry():
            emitter, events = wide_events("batch")
            self.observed(graph, rng, batches=3, emitter=emitter)
            assert [e["index"] for e in events] == [0, 1, 2]
            for event in events:
                assert event["engine"] == "graphbolt"
                assert event["ok"] is True
                assert event["breaker_state"] == "closed"
                assert event["mutations"] == 8
                assert event["samples"]["ingest_latency"] >= 0.0
                assert event["trace_on"] is False
                assert event["exemplar_span"] is None

    def test_query_wide_events_and_latency_folding(self, graph, rng):
        with scoped_registry():
            emitter, queries = wide_events("query")
            evaluator = SLOEvaluator([
                SLO(name="query-bound", signal="query_latency", op="<",
                    threshold=10.0)])
            resilient, observer = self.observed(
                graph, rng, batches=1, emitter=emitter,
                evaluator=evaluator)
            resilient.query()
            (query,) = queries
            assert query["degraded"] is False
            assert query["seconds"] >= 0.0
            assert query["deadline_budget"] is None
            # Queries never tick the evaluator; the latency folds into
            # the next batch tick.
            assert evaluator.ticks == 1
            resilient.submit(make_random_batch(graph, rng, 4, 4))
            assert evaluator.ticks == 2
            (row,) = evaluator.status()
            assert row["ticks"] == 1  # the post-query tick had the signal
            assert observer.queries_observed == 1

    def test_exemplar_resolves_in_the_trace_buffer(self, graph, rng):
        """Acceptance pin: with tracing on, every batch wide event's
        exemplar is a real span id recorded while the batch applied."""
        with scoped_registry():
            emitter, events = wide_events("batch")
            tracer = Tracer(capacity=4096)
            with trace.activated(tracer):
                self.observed(graph, rng, batches=3, emitter=emitter)
            span_ids = {event["id"] for event in tracer.events()}
            assert len(events) == 3
            previous_mark = -1
            for event in events:
                assert event["trace_on"] is True
                exemplar = event["exemplar_span"]
                assert exemplar in span_ids
                assert exemplar > previous_mark  # this batch's spans
                previous_mark = exemplar

    def test_no_observer_means_no_registry_traffic(self, graph, rng):
        with scoped_registry() as registry:
            resilient = ResilientAnalyticsServer(plain_server(graph))
            resilient.submit(make_random_batch(graph, rng, 4, 4))
            assert resilient.observer is None
            assert "obs.wide_events" not in registry.names()


class TestHealthSeq:
    def test_seq_is_monotonic_from_zero(self, graph, rng):
        resilient = ResilientAnalyticsServer(plain_server(graph))
        snapshots = []
        for _ in range(3):
            resilient.submit(make_random_batch(graph, rng, 4, 4))
            snapshots.append(resilient.health())
        assert [s.seq for s in snapshots] == [0, 1, 2]

    def test_journaled_seq_survives_roundtrip(self, graph, rng,
                                              tmp_path):
        path = str(tmp_path / "health.jsonl")
        resilient = ResilientAnalyticsServer(plain_server(graph))
        with JsonlJournal.open(path) as journal:
            for _ in range(3):
                resilient.submit(make_random_batch(graph, rng, 4, 4))
                resilient.record_health(journal)
        records = journal_records(path, "health")
        assert [r["seq"] for r in records] == [0, 1, 2]


class TestBreakerTimelinePin:
    def test_journal_timeline_matches_transition_history(
            self, graph, rng, tmp_path):
        """Replay the breaker states a poison/restore run journals the
        way ``repro serve --health-journal`` does (one snapshot per
        submit): they trace the breaker's own transition history in
        order, and the history chains."""
        manager = RecoveryManager(str(tmp_path), checkpoint_every=100,
                                  poison_check=growth_poison_check)
        resilient = ResilientAnalyticsServer(
            plain_server(graph, recovery=manager),
            breaker=BreakerConfig(quarantine_threshold=2,
                                  cooldown_submits=2),
        )
        path = str(tmp_path / "health.jsonl")
        # The storm: two poison batches trip the breaker OPEN; cooldown
        # elapses over deferred good batches, a probe succeeds, and the
        # breaker CLOSES again.
        storm = [poison_batch() for _ in range(2)] + [
            make_random_batch(graph, rng, 4, 4) for _ in range(4)]
        with JsonlJournal.open(path) as journal:
            for batch in storm:
                resilient.submit(batch)
                resilient.record_health(journal)
        assert resilient.breaker.state == "closed"
        transitions = resilient.breaker.transitions
        assert transitions, "the storm must actually engage the breaker"

        records = journal_records(path, "health")
        journaled = []
        for record in records:
            state = record["breaker_state"]
            if not journaled or journaled[-1] != state:
                journaled.append(state)
        # A state that comes and goes within one submit (half_open on a
        # probe pump) is not journaled: the deduplicated timeline is a
        # subsequence of the transition history, ending where it ends.
        history = iter(["closed"] + [t.to_state for t in transitions])
        assert all(state in history for state in journaled), journaled
        assert "open" in journaled
        assert journaled[-1] == "closed"
        # And the history itself chains: each hop leaves from where
        # the previous one landed.
        previous = "closed"
        for transition in transitions:
            assert transition.from_state == previous
            previous = transition.to_state
        manager.close()
