"""Correctness of the KickStarter trim-and-propagate engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import SSSP
from repro.graph.csr import CSRGraph
from repro.graph.generators import cycle_graph, rmat
from repro.graph.mutation import MutationBatch
from repro.kickstarter.engine import KickStarterEngine
from repro.kickstarter.trees import NO_PARENT
from repro.ligra.engine import LigraEngine
from tests.conftest import edge_weights, make_random_batch, tree_depths


def ground_truth(graph, source, unit_weights=False):
    algo = SSSP(source=source)
    if unit_weights:
        from repro.algorithms import BFS

        algo = BFS(source=source)
    return LigraEngine(algo).run(graph, until_convergence=True,
                                 max_iterations=2000)


def assert_distances_equal(actual, expected):
    both_inf = np.isinf(actual) & np.isinf(expected)
    mask = ~both_inf
    assert np.allclose(actual[mask], expected[mask]), (
        actual[mask], expected[mask]
    )
    assert np.array_equal(np.isinf(actual), np.isinf(expected))


class TestInitialRun:
    def test_matches_bellman_ford(self):
        graph = rmat(scale=8, edge_factor=5, seed=20, weighted=True)
        engine = KickStarterEngine(graph, source=0)
        assert_distances_equal(engine.values, ground_truth(graph, 0))

    def test_invalid_source(self):
        graph = cycle_graph(3)
        with pytest.raises(ValueError):
            KickStarterEngine(graph, source=9)

    def test_dependency_tree_is_consistent(self):
        graph = rmat(scale=7, edge_factor=5, seed=21, weighted=True)
        engine = KickStarterEngine(graph, source=0)
        values, parents = engine.tree.values, engine.tree.parents
        weights = edge_weights(graph)
        for vertex in range(graph.num_vertices):
            parent = parents[vertex]
            if parent == NO_PARENT:
                assert vertex == 0 or np.isinf(values[vertex])
            else:
                weight = weights[(int(parent), vertex)]
                assert np.isclose(values[vertex], values[parent] + weight)
        # No cycles in the parent forest.
        tree_depths(engine.tree)

    def test_unit_weights_mode(self):
        graph = rmat(scale=7, edge_factor=5, seed=22, weighted=True)
        engine = KickStarterEngine(graph, source=0, unit_weights=True)
        assert_distances_equal(
            engine.values, ground_truth(graph, 0, unit_weights=True)
        )


class TestMutations:
    def test_addition_shortens_path(self):
        graph = cycle_graph(6)
        engine = KickStarterEngine(graph, source=0)
        assert engine.values[5] == 5.0
        engine.apply_mutations(
            MutationBatch.from_edges(additions=[(0, 5)])
        )
        assert engine.values[5] == 1.0

    def test_deletion_of_tree_edge_recovers(self):
        graph = CSRGraph.from_edges(
            [(0, 1), (1, 2), (0, 3), (3, 2)], num_vertices=4,
            weights=[1.0, 1.0, 5.0, 5.0],
        )
        engine = KickStarterEngine(graph, source=0)
        assert engine.values[2] == 2.0
        engine.apply_mutations(MutationBatch.from_edges(deletions=[(1, 2)]))
        assert engine.values[2] == 10.0  # detour via vertex 3

    def test_deletion_of_non_tree_edge_is_cheap(self):
        graph = CSRGraph.from_edges(
            [(0, 1), (1, 2), (0, 2)], num_vertices=3,
            weights=[1.0, 1.0, 5.0],
        )
        engine = KickStarterEngine(graph, source=0)
        before = engine.metrics.snapshot()
        engine.apply_mutations(MutationBatch.from_edges(deletions=[(0, 2)]))
        delta = engine.metrics.delta_since(before)
        assert engine.values[2] == 2.0
        # No dependency edge deleted -> no trimming work.
        assert delta.phase_seconds.get("trim", 0) >= 0
        assert engine.values.tolist() == [0.0, 1.0, 2.0]

    def test_disconnection_becomes_inf(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        engine = KickStarterEngine(graph, source=0)
        engine.apply_mutations(MutationBatch.from_edges(deletions=[(0, 1)]))
        assert np.isinf(engine.values[1])
        assert np.isinf(engine.values[2])
        assert engine.values[0] == 0.0

    def test_vertex_growth(self):
        graph = cycle_graph(4)
        engine = KickStarterEngine(graph, source=0)
        engine.apply_mutations(
            MutationBatch.from_edges(additions=[(3, 4), (4, 5)], grow_to=6)
        )
        assert engine.values[4] == 4.0
        assert engine.values[5] == 5.0

    def test_stream_matches_bellman_ford(self, rng):
        graph = rmat(scale=8, edge_factor=5, seed=23, weighted=True)
        engine = KickStarterEngine(graph, source=0)
        for _ in range(8):
            engine.apply_mutations(
                make_random_batch(engine.graph, rng, 20, 20)
            )
            assert_distances_equal(
                engine.values, ground_truth(engine.graph, 0)
            )

    def test_tree_stays_consistent_across_stream(self, rng):
        graph = rmat(scale=7, edge_factor=5, seed=24, weighted=True)
        engine = KickStarterEngine(graph, source=0)
        for _ in range(5):
            engine.apply_mutations(
                make_random_batch(engine.graph, rng, 15, 15)
            )
        tree_depths(engine.tree)  # raises on parent cycles


@st.composite
def sssp_scenario(draw):
    num_vertices = draw(st.integers(3, 12))
    def edge():
        return st.tuples(
            st.integers(0, num_vertices - 1),
            st.integers(0, num_vertices - 1),
        ).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(edge(), min_size=1, max_size=25))
    batches = draw(
        st.lists(
            st.tuples(st.lists(edge(), max_size=5),
                      st.lists(edge(), max_size=5)),
            max_size=3,
        )
    )
    return num_vertices, edges, batches


class TestProperty:
    @given(sssp_scenario())
    @settings(max_examples=60, deadline=None)
    def test_always_exact(self, data):
        num_vertices, edges, batches = data
        graph = CSRGraph.from_edges(set(edges), num_vertices=num_vertices)
        engine = KickStarterEngine(graph, source=0)
        assert_distances_equal(engine.values, ground_truth(graph, 0))
        for additions, deletions in batches:
            engine.apply_mutations(
                MutationBatch.from_edges(additions=additions,
                                         deletions=deletions)
            )
            assert_distances_equal(
                engine.values, ground_truth(engine.graph, 0)
            )
