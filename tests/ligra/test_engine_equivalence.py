"""The BSP-equivalence contract between the two baseline engines.

The delta engine (GB-Reset) must produce the same per-iteration values
as full synchronous recomputation (Ligra) for every algorithm class:
simple sums, vector sums, products, apply parameters, pair aggregations
and the non-decomposable min with self-dependent apply.
"""

import zlib

import numpy as np
import pytest

from repro.algorithms import (
    BFS,
    BeliefPropagation,
    CoEM,
    CollaborativeFiltering,
    ConnectedComponents,
    LabelPropagation,
    PageRank,
    SSSP,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import bipartite_graph, rmat
from repro.ligra.delta import DeltaEngine, ITERATION_CAP
from repro.ligra.engine import LigraEngine
from repro.runtime.validation import assert_same_results

ALGORITHM_CASES = [
    pytest.param(lambda: PageRank(), "rmat", 10, id="pagerank"),
    pytest.param(lambda: LabelPropagation(num_labels=4), "rmat", 10,
                 id="label_propagation"),
    pytest.param(lambda: CoEM(), "rmat", 10, id="coem"),
    pytest.param(lambda: BeliefPropagation(num_states=3), "rmat", 10,
                 id="belief_propagation"),
    pytest.param(lambda: CollaborativeFiltering(num_factors=3), "bipartite",
                 10, id="collaborative_filtering"),
    pytest.param(lambda: SSSP(source=0), "rmat", 40, id="sssp"),
    pytest.param(lambda: BFS(source=0), "rmat", 40, id="bfs"),
    pytest.param(lambda: ConnectedComponents(), "rmat", 40, id="cc"),
]


def build_graph(kind):
    if kind == "bipartite":
        return bipartite_graph(80, 40, 5, seed=7)
    return rmat(scale=8, edge_factor=6, seed=3, weighted=True)


def finite_filled(values):
    return np.where(np.isinf(values), -1.0, values)


@pytest.mark.parametrize("factory,kind,iterations", ALGORITHM_CASES)
class TestDeltaEqualsFull:
    def test_fixed_iterations(self, factory, kind, iterations):
        graph = build_graph(kind)
        full = LigraEngine(factory()).run(graph, iterations)
        delta = DeltaEngine(factory()).run(graph, iterations)
        assert_same_results(
            finite_filled(delta), finite_filled(full), tolerance=1e-7
        )

    def test_until_convergence(self, factory, kind, iterations):
        graph = build_graph(kind)
        full = LigraEngine(factory()).run(graph, ITERATION_CAP)
        delta = DeltaEngine(factory()).run(graph, ITERATION_CAP)
        assert_same_results(
            finite_filled(delta), finite_filled(full), tolerance=1e-6
        )

    def test_retract_propagate_mode(self, factory, kind, iterations):
        graph = build_graph(kind)
        full = LigraEngine(factory()).run(graph, iterations)
        algorithm = factory()
        if not algorithm.aggregation.decomposable:
            pytest.skip("RP mode applies to decomposable aggregations")
        delta = DeltaEngine(algorithm, retract=True).run(graph, iterations)
        assert_same_results(
            finite_filled(delta), finite_filled(full), tolerance=1e-7
        )


class TestEngineBehaviours:
    def test_delta_counts_fewer_edges_when_stabilised(self):
        # SSSP stabilises fast: the frontier collapses once distances
        # settle, so selective scheduling must beat full recomputation.
        graph = rmat(scale=8, edge_factor=6, seed=3, weighted=True)
        full_engine = LigraEngine(SSSP(source=0))
        full_engine.run(graph, 40)
        delta_engine = DeltaEngine(SSSP(source=0))
        delta_engine.run(graph, 40)
        assert (
            delta_engine.metrics.edge_computations
            < full_engine.metrics.edge_computations / 2
        )

    def test_delta_stops_at_fixpoint(self):
        graph = rmat(scale=7, edge_factor=4, seed=5, weighted=True)
        engine = DeltaEngine(SSSP(source=0))
        engine.run(graph, num_iterations=500)
        # Far fewer iterations than the cap: the frontier emptied.
        assert engine.metrics.iterations < 100

    def test_ligra_runs_exactly_requested_iterations(self):
        graph = rmat(scale=6, edge_factor=4, seed=1)
        engine = LigraEngine(PageRank())
        engine.run(graph, num_iterations=7)
        assert engine.metrics.iterations == 7

    @pytest.mark.parametrize("factory,graph,stop,crc,edges", [
        pytest.param(lambda: SSSP(source=0), lambda: CSRGraph(
            40, np.array(list(range(23)) + [0, 5]),
            np.array(list(range(1, 24)) + [12, 20]),
            np.array([1.0 + (i % 3) * 0.5 for i in range(23)]
                     + [30.0, 40.0])), 24, 0xA6D54709, 600, id="sssp"),
        pytest.param(PageRank, lambda: rmat(scale=8, edge_factor=8, seed=7,
                                            weighted=True),
                     145, 0xFF5A3010, 217790, id="pagerank"),
    ])
    def test_a_run_to_the_cap_stops_after_a_still_iteration(
            self, factory, graph, stop, crc, edges):
        """A run to ``ITERATION_CAP`` stops after the first iteration
        that moves no value past the tolerance, at the iteration, values
        and edge work pinned from a run of the former convergence
        flag."""
        engine = LigraEngine(factory())
        values = engine.run(graph(), ITERATION_CAP)
        assert engine.metrics.iterations == stop
        assert zlib.crc32(values.tobytes()) == crc
        assert engine.metrics.edge_computations == edges

    def test_empty_graph(self):
        from repro.graph.csr import CSRGraph

        graph = CSRGraph.from_edges([], num_vertices=4)
        values = DeltaEngine(PageRank()).run(graph, 3)
        assert np.allclose(values, 0.15)

    def test_step_records_exact_changes(self):
        graph = rmat(scale=6, edge_factor=4, seed=2, weighted=True)
        engine = DeltaEngine(PageRank())
        state = engine.initial_state(graph)
        record = engine.step(graph, state, record_changes=True)
        assert record is not None
        # Each half matches the state at the recorded indices, or is the
        # state's own array (dense), frozen.
        for idx, values, live in ((record.c_idx, record.c_values,
                                   state.values),
                                  (record.g_idx, record.g_values,
                                   state.aggregate)):
            if idx is None:
                assert values is live and not values.flags.writeable
            else:
                assert np.array_equal(live[idx], values)


class TestDeltaStateMechanics:
    def test_copy_is_independent(self):
        graph = rmat(scale=6, edge_factor=4, seed=7)
        engine = DeltaEngine(PageRank())
        state = engine.initial_state(graph)
        engine.step(graph, state)
        clone = state.copy()
        engine.step(graph, state)
        assert clone.iteration == state.iteration - 1
        assert not np.array_equal(clone.values, state.values)

    def test_empty_frontier_step_is_stable(self):
        graph = rmat(scale=6, edge_factor=4, seed=8, weighted=True)
        engine = DeltaEngine(SSSP(source=0))
        state = engine.initial_state(graph)
        for _ in range(200):
            engine.step(graph, state)
            if state.iteration > 1 and state.frontier.size == 0:
                break
        settled = state.values.copy()
        engine.step(graph, state)
        assert np.array_equal(
            np.where(np.isinf(state.values), -1, state.values),
            np.where(np.isinf(settled), -1, settled),
        )
