"""Unit tests for the one delta loop (``DeltaEngine.advance``) and the
hybrid forward execution built on it (``DeltaEngine.forward``)."""

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP, PageRank
from repro.bench.harness import ENGINES
from repro.core.engine import GraphBoltEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.ligra.delta import DeltaEngine, ITERATION_CAP
from repro.ligra.engine import LigraEngine
from repro.runtime.deadline import StepDeadline
from repro.runtime.validation import assert_same_results
from repro.serving import StreamingAnalyticsServer


def make_state_at(graph, algorithm, iterations):
    engine = DeltaEngine(algorithm)
    state = engine.initial_state(graph)
    for _ in range(iterations):
        engine.step(graph, state)
    return engine, state


class TestHybridForward:
    def test_completes_the_window(self):
        graph = rmat(scale=7, edge_factor=5, seed=6, weighted=True)
        engine, state = make_state_at(graph, PageRank(), 3)
        engine.forward(graph, state, 10)
        assert state.iteration == 10
        truth = LigraEngine(PageRank()).run(graph, 10)
        assert_same_results(state.values, truth, tolerance=1e-8)

    def test_no_budget_is_noop(self):
        graph = rmat(scale=6, edge_factor=4, seed=6)
        engine, state = make_state_at(graph, PageRank(), 5)
        before = state.values.copy()
        engine.forward(graph, state, 5)
        assert state.iteration == 5
        assert np.array_equal(state.values, before)

    def test_negative_budget_is_noop(self):
        graph = rmat(scale=6, edge_factor=4, seed=6)
        engine, state = make_state_at(graph, PageRank(), 5)
        engine.forward(graph, state, 3)
        assert state.iteration == 5

    def test_convergence_mode_stops_at_empty_frontier(self):
        graph = rmat(scale=7, edge_factor=5, seed=6, weighted=True)
        engine, state = make_state_at(graph, SSSP(source=0), 2)
        engine.forward(graph, state, ITERATION_CAP)
        assert state.frontier.size == 0
        assert state.iteration < 100
        truth = LigraEngine(SSSP(source=0)).run(graph, ITERATION_CAP)
        filled = np.where(np.isinf(state.values), -1, state.values)
        filled_truth = np.where(np.isinf(truth), -1, truth)
        assert_same_results(filled, filled_truth, tolerance=1e-8)

    def test_default_total_iterations_from_algorithm(self):
        graph = rmat(scale=6, edge_factor=4, seed=6)
        engine, state = make_state_at(graph, PageRank(), 0)
        engine.forward(graph, state, None)
        assert state.iteration == PageRank().default_iterations

    def test_counts_hybrid_iterations(self):
        graph = rmat(scale=6, edge_factor=4, seed=6)
        engine, state = make_state_at(graph, PageRank(), 4)
        engine.forward(graph, state, 9)
        assert engine.metrics.hybrid_iterations == 5


class TestAdvance:
    """The loop every delta run takes: restart, tracked run, forward,
    branch query and the naive baseline."""

    @pytest.fixture
    def graph(self):
        return rmat(scale=6, edge_factor=4, seed=6)

    def test_deadline_is_checked_before_a_step(self, graph):
        engine, state = make_state_at(graph, PageRank(), 2)
        deadline = StepDeadline(3)
        assert engine.advance(graph, state, 10, deadline)
        # Three steps ran to completion; the fourth check stopped the
        # loop before a step began.
        assert state.iteration == 5
        assert deadline.checks == 4
        _, truth = make_state_at(graph, PageRank(), 5)
        assert np.array_equal(state.values, truth.values)

    def test_an_expired_deadline_runs_nothing(self, graph):
        engine, state = make_state_at(graph, PageRank(), 0)
        assert engine.advance(graph, state, 10, StepDeadline(0))
        assert state.iteration == 0

    def test_a_deadline_past_the_budget_is_not_reported(self, graph):
        engine, state = make_state_at(graph, PageRank(), 0)
        deadline = StepDeadline(4)
        assert not engine.advance(graph, state, 4, deadline)
        assert state.iteration == 4
        assert deadline.checks == 4

    def test_a_fixpoint_stops_before_the_deadline_is_asked(self):
        graph = rmat(scale=7, edge_factor=5, seed=6, weighted=True)
        engine, state = make_state_at(graph, SSSP(source=0), 0)
        engine.advance(graph, state, ITERATION_CAP)
        assert state.iteration > 0 and state.frontier.size == 0
        deadline = StepDeadline(0)
        assert not engine.advance(graph, state, ITERATION_CAP, deadline)
        assert deadline.checks == 0

    def test_convergence_runs_to_the_cap(self, graph):
        """A run to convergence is a run to the cap, and a run stops at
        its iteration count short of its fixpoint: PageRank at its
        registered tolerance does not converge in 3."""
        engine, state = make_state_at(graph, PageRank(), 0)
        engine.advance(graph, state, 3)
        assert state.iteration == 3 and state.frontier.size


def _source_without_out_edges():
    # 0 is the source; its only edges come in, so iteration 1 reaches
    # nothing and is already the fixpoint.
    return CSRGraph.from_edges([(1, 0), (2, 0), (3, 1)], 4,
                               [1.0, 2.0, 3.0])


def _path():
    # 0 -> 1 -> 2 -> 3: one more vertex settles per iteration.
    return CSRGraph.from_edges([(0, 1), (1, 2), (2, 3)], 4,
                               [1.0, 2.0, 3.0])


class TestOneStopRule:
    """Every delta run stops before a step once its frontier is empty at
    iteration 1 or later: no run takes an empty extra iteration."""

    @pytest.mark.parametrize("window", [10, ITERATION_CAP],
                             ids=["window", "converge"])
    @pytest.mark.parametrize("factory", [SSSP, BFS], ids=["sssp", "bfs"])
    @pytest.mark.parametrize("make_graph,fixpoint", [
        (_source_without_out_edges, 1), (_path, 4),
    ], ids=["source-without-out-edges", "path"])
    def test_every_run_stops_at_the_same_iteration(
            self, make_graph, fixpoint, factory, window):
        graph = make_graph()
        stops, results = {}, {}

        restart = DeltaEngine(factory())
        results["restart"] = restart.run(graph, window)
        stops["restart"] = restart.metrics.iterations

        tracked = GraphBoltEngine(factory(), num_iterations=window)
        results["tracked"] = tracked.run(graph)
        stops["tracked"] = tracked.metrics.iterations
        assert tracked.history.horizon == stops["tracked"]

        forward = DeltaEngine(factory())
        state = forward.initial_state(graph)
        forward.forward(graph, state, window)
        results["forward"], stops["forward"] = state.values, state.iteration

        server = StreamingAnalyticsServer(factory, graph,
                                          approx_iterations=1,
                                          exact_iterations=window)
        answer = server.query()
        results["branch"], stops["branch"] = answer.values, answer.iterations

        naive = ENGINES["naive"](factory, window)
        results["naive"] = naive.setup(graph)
        stops["naive"] = naive.metrics.iterations

        assert stops == dict.fromkeys(stops, fixpoint)
        for name, values in results.items():
            assert np.array_equal(values, results["restart"]), name
