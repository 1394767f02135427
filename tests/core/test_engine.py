"""Unit tests for GraphBoltEngine lifecycle, strategies and accounting."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import LabelPropagation, PageRank
from repro.bench.harness import NaiveRunner
from repro.core.engine import GraphBoltEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.graph.storage import ARRAY_NAMES, MmapStore
from repro.ligra.delta import ITERATION_CAP
from repro.ligra.engine import LigraEngine
from repro.obs import trace
from repro.obs.trace import Tracer
from repro.runtime.validation import count_exceeding
from tests.conftest import make_random_batch


@pytest.fixture
def graph():
    return rmat(scale=8, edge_factor=6, seed=4, weighted=True)


class TestLifecycle:
    def test_requires_run_before_use(self, graph):
        engine = GraphBoltEngine(PageRank())
        with pytest.raises(RuntimeError, match="run"):
            _ = engine.values
        with pytest.raises(RuntimeError):
            engine.apply_mutations(MutationBatch.empty())
        with pytest.raises(RuntimeError):
            engine.memory_report()

    def test_run_returns_values(self, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=5)
        values = engine.run(graph)
        assert values.shape == (graph.num_vertices,)
        assert values is engine.values

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            GraphBoltEngine(PageRank(), horizon=-1)

    def test_graph_property_tracks_mutations(self, graph, rng):
        engine = GraphBoltEngine(PageRank(), num_iterations=5)
        engine.run(graph)
        assert engine.graph is graph
        engine.apply_mutations(make_random_batch(graph, rng, 5, 0))
        assert engine.graph is not graph

    def test_repr(self, graph):
        engine = GraphBoltEngine(PageRank())
        assert "ran=False" in repr(engine)
        engine.run(graph)
        assert "ran=True" in repr(engine)


class FailingPageRank(PageRank):
    """PageRank whose ``apply`` raises on its ``fail_at``-th call."""

    fail_at = None
    calls = 0

    def apply(self, graph, aggregate_values, vertices, previous_values=None):
        self.calls += 1
        if self.calls == self.fail_at:
            raise FloatingPointError("planted apply failure")
        return super().apply(graph, aggregate_values, vertices,
                             previous_values)


class TestFailedRefine:
    """A batch whose refine raises after the graph advanced leaves the
    engine with no history: the next batch raises instead of refining
    against the snapshot the history no longer describes."""

    def test_next_batch_raises_until_restored(self, graph, rng, tmp_path):
        from repro.runtime.checkpoint import load_engine, save_engine

        algorithm = FailingPageRank()
        engine = GraphBoltEngine(algorithm, num_iterations=5)
        engine.run(graph)
        checkpoint = save_engine(engine, str(tmp_path / "engine.ckpt"))
        dry_run = StreamingGraph(graph)
        batches = []
        for _ in range(2):
            batches.append(make_random_batch(dry_run.graph, rng, 10, 10))
            dry_run.apply_batch(batches[-1])
        algorithm.fail_at = algorithm.calls + 3   # refine iteration 3

        with pytest.raises(FloatingPointError, match="planted"):
            engine.apply_mutations(batches[0])
        assert engine.graph is not graph              # it advanced
        with pytest.raises(RuntimeError, match="restore it from a checkpoint"):
            engine.apply_mutations(batches[1])
        with pytest.raises(RuntimeError, match="refine failed"):
            engine.history

        restored = load_engine(checkpoint, FailingPageRank())
        clean = GraphBoltEngine(FailingPageRank(), num_iterations=5)
        clean.run(graph)
        for batch in batches:
            assert (restored.apply_mutations(batch).tobytes()
                    == clean.apply_mutations(batch).tobytes())


@st.composite
def adoption_streams(draw):
    """A small base graph -- repeated pairs make it a multigraph -- and
    batches over a vertex range past it: pairs overlap across batches,
    re-adds and deletions of absent edges are common, and endpoints or
    ``grow_to`` grow the graph."""
    num_vertices = draw(st.integers(2, 6))
    vertex = st.integers(0, num_vertices - 1)
    base = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    reach = st.tuples(st.integers(0, num_vertices + 2),
                      st.integers(0, num_vertices + 2))
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        adds = draw(st.lists(reach, max_size=5))
        weights = draw(st.lists(st.sampled_from([0.5, 2.0, 3.0]),
                                min_size=len(adds), max_size=len(adds)))
        batches.append(MutationBatch.from_edges(
            additions=adds, add_weights=weights,
            deletions=draw(st.lists(reach, max_size=5)),
            grow_to=draw(st.none() | st.integers(0, num_vertices + 4))))
    src, dst = (np.array([edge[side] for edge in base], dtype=np.int64)
                for side in (0, 1))
    weight = np.arange(1, len(base) + 1, dtype=np.float64)
    return (lambda: CSRGraph(num_vertices, src, dst, weight)), batches


class TestDeferredAdoption:
    """``adopt`` queues structure; reading :attr:`graph` applies the
    queue as one splice per pair-disjoint run."""

    @pytest.mark.parametrize("store", ["heap", "mmap"])
    @settings(max_examples=60, deadline=None)
    @given(stream=adoption_streams())
    def test_coalesced_backlog_equals_sequential_apply(self, store,
                                                       stream):
        build, batches = stream
        with tempfile.TemporaryDirectory() as root:
            def base(name):
                graph = build()
                return (graph if store == "heap" else
                        MmapStore(os.path.join(root, name)).publish(graph))

            sequential = StreamingGraph(base("sequential"))
            for batch in batches:
                sequential.apply_batch(batch)
            expected = sequential.graph
            # The state a writer refined over the same stream.
            reference = GraphBoltEngine(PageRank(), num_iterations=1)
            reference.run(expected)

            engine = GraphBoltEngine(PageRank(), num_iterations=1)
            engine.run(base("deferred"))
            def generations(store=engine.graph.store):
                return [] if store is None else store.snapshot_ids()

            before = generations()
            engine.adopt(batches, reference._state)
            assert engine.structure_pending == len(batches)
            assert generations() == before  # nothing written yet
            graph = engine.graph
            assert engine.structure_pending == 0
            assert graph.num_vertices == expected.num_vertices
            for name in ARRAY_NAMES:
                assert np.array_equal(getattr(graph, name),
                                      getattr(expected, name)), name
                assert (getattr(graph, name).dtype
                        == getattr(expected, name).dtype), name

    def test_a_state_the_queue_does_not_imply_is_refused(self, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=2)
        engine.run(graph)
        grown = graph.num_vertices + 3
        batch = MutationBatch.from_edges(additions=[(0, grown - 1)])
        state = engine._state
        with pytest.raises(ValueError, match="cannot stand for a graph"):
            engine.adopt([batch], state)
        assert engine.structure_pending == 1  # structure ahead of state
        assert engine.graph.num_vertices == grown


class TestTracking:
    def test_history_horizon_matches_iterations(self, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=6)
        engine.run(graph)
        assert engine.history.horizon == 6

    @pytest.mark.parametrize("algorithm", [PageRank, LabelPropagation])
    def test_history_bases_are_only_read(self, graph, rng, algorithm):
        """A refined history holds its predecessor's bases while the
        vertex count holds: made read-only, nothing writes them over a
        stream that also grows the graph."""
        frozen, plain = (GraphBoltEngine(algorithm(), num_iterations=6)
                         for _ in range(2))
        frozen.run(graph)
        plain.run(graph)
        top = graph.num_vertices
        batches = [
            make_random_batch(graph, rng, 8, 4),
            make_random_batch(graph, rng, 8, 4),
            MutationBatch.from_edges(additions=[(0, top + 2), (top, 1)],
                                     grow_to=top + 4),
            make_random_batch(graph, rng, 8, 4),
        ]
        for batch in batches:
            before = frozen.history
            before.initial_values.flags.writeable = False
            before.identity_aggregate.flags.writeable = False
            values = frozen.apply_mutations(batch)
            assert np.array_equal(values, plain.apply_mutations(batch))
            shared = frozen.history.initial_values is before.initial_values
            assert shared == (frozen.history.num_vertices
                              == before.num_vertices)

    def test_fixed_horizon_caps_tracking(self, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=8, horizon=3)
        engine.run(graph)
        assert engine.history.horizon == 3


class TestHorizon:
    """Horizontal pruning: the initial run tracks iterations
    ``1..horizon`` and none after (paper section 3.2)."""

    @staticmethod
    def tracked_flags(engine, graph):
        tracer = Tracer()
        with trace.activated(tracer):
            engine.run(graph)
        return [event["tags"]["tracked"] for event in tracer.events()
                if event["name"] == "iteration"]

    def test_fixed_horizon(self, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=6, horizon=3)
        assert self.tracked_flags(engine, graph) == [True] * 3 + [False] * 3

    def test_horizon_zero_tracks_nothing(self, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=4, horizon=0)
        assert self.tracked_flags(engine, graph) == [False] * 4
        assert engine.history.horizon == 0

    def test_tracking_never_resumes(self, graph, rng):
        # Refinement covers exactly the tracked prefix; hybrid forward
        # execution runs the rest.
        engine = GraphBoltEngine(PageRank(), num_iterations=8, horizon=3)
        engine.run(graph)
        engine.apply_mutations(make_random_batch(graph, rng, 10, 5))
        assert engine.history.horizon == 3
        assert engine.metrics.refinement_iterations == 3
        assert engine.metrics.hybrid_iterations == 5


class TestNaiveStrategy:
    """The naive-reuse baseline (``NaiveRunner``) the paper's Figure 2 /
    Table 1 measure GraphBolt against."""

    def test_naive_reuse_produces_incorrect_results(self, graph, rng):
        runner = NaiveRunner(
            lambda: LabelPropagation(num_labels=5, seed_every=10), 10)
        runner.setup(graph)
        for _ in range(3):
            values = runner.apply(
                make_random_batch(runner.graph, rng, 30, 30)
            )
        truth = LigraEngine(
            LabelPropagation(num_labels=5, seed_every=10)
        ).run(runner.graph, 10)
        assert count_exceeding(values, truth, 0.01) > 0

    def test_naive_handles_growth(self, graph, rng):
        runner = NaiveRunner(PageRank, 5)
        runner.setup(graph)
        grown = graph.num_vertices + 3
        values = runner.apply(
            MutationBatch.from_edges(additions=[(0, grown - 1)],
                                     grow_to=grown)
        )
        assert values.shape == (grown,)


class TestMemoryReport:
    def test_dependency_bytes_positive(self, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=5)
        engine.run(graph)
        report = engine.memory_report()
        assert report.dependency_bytes > 0
        assert report.baseline_bytes > graph.nbytes

    def test_baseline_counts_the_graph(self, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=5)
        engine.run(graph)
        state = engine._state
        assert engine.memory_report().baseline_bytes == (
            state.values.nbytes + state.prev_values.nbytes
            + state.aggregate.nbytes + graph.nbytes
        )

    def test_first_iteration_only(self, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=5)
        engine.run(graph)
        worst_case = engine.memory_report(first_iteration_only=True)
        full = engine.memory_report(first_iteration_only=False)
        assert worst_case.dependency_bytes == engine.history.records[0].nbytes
        assert worst_case.dependency_bytes <= full.dependency_bytes

    def test_zero_baseline_edge_cases(self):
        from repro.runtime.metrics import MemoryReport

        assert MemoryReport(0, 0).overhead_fraction == 0.0
        assert MemoryReport(0, 10).overhead_fraction == float("inf")


class TestMetricsPhases:
    def test_phase_timers_populated(self, graph, rng):
        engine = GraphBoltEngine(PageRank(), num_iterations=5)
        engine.run(graph)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 5, 5))
        phases = engine.metrics.phase_seconds
        for phase in ("initial_run", "adjust_structure", "refine", "hybrid"):
            assert phase in phases

    def test_refinement_iterations_counted(self, graph, rng):
        engine = GraphBoltEngine(PageRank(), num_iterations=5)
        engine.run(graph)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 5, 5))
        assert engine.metrics.refinement_iterations == 5


class TestConvergenceNaiveCombo:
    def test_naive_strategy_with_convergence_mode(self, graph, rng):
        runner = NaiveRunner(
            lambda: LabelPropagation(num_labels=3, seed_every=3,
                                     tolerance=1e-4),
            ITERATION_CAP,
        )
        runner.setup(graph)
        values = runner.apply(
            make_random_batch(runner.graph, rng, 10, 10)
        )
        assert values.shape[0] == runner.graph.num_vertices
        assert np.isfinite(values).all()

    def test_refine_strategy_with_convergence_reaches_fixpoint(self, graph,
                                                               rng):
        engine = GraphBoltEngine(
            LabelPropagation(num_labels=3, seed_every=3, tolerance=1e-4),
            ITERATION_CAP,
        )
        engine.run(graph)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 10, 10))
        assert engine._state.frontier.size == 0
