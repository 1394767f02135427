"""Tests for single-source widest paths (the MaxAggregation exerciser)."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import SSWP
from repro.core.engine import GraphBoltEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.mutation import MutationBatch
from repro.ligra.delta import DeltaEngine
from repro.ligra.engine import LigraEngine
from tests.conftest import make_random_batch


def widest_paths_reference(graph, source):
    """Reference widest paths via networkx's maximum spanning logic:
    run a modified Dijkstra maximising the bottleneck."""
    import heapq

    width = np.full(graph.num_vertices, -np.inf)
    width[source] = np.inf
    heap = [(-np.inf, source)]  # max-heap on width via negation
    visited = set()
    while heap:
        neg_w, u = heapq.heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        _, targets, weights = graph.out_edges_of(np.array([u]))
        for v, w in zip(targets.tolist(), weights.tolist()):
            candidate = min(width[u], w)
            if candidate > width[v]:
                width[v] = candidate
                heapq.heappush(heap, (-candidate, v))
    return width


class TestSemantics:
    def test_invalid_source(self):
        with pytest.raises(ValueError):
            SSWP(source=-2)

    def test_simple_bottleneck(self):
        graph = CSRGraph.from_edges(
            [(0, 1), (1, 2), (0, 2)], num_vertices=3,
            weights=[5.0, 2.0, 1.0],
        )
        widths = LigraEngine(SSWP(source=0)).run(graph,
                                                 until_convergence=True)
        assert widths[0] == np.inf
        assert widths[1] == 5.0
        assert widths[2] == 2.0  # via 0->1->2 beats direct 0->2

    def test_unreachable_is_minus_inf(self):
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=3)
        widths = LigraEngine(SSWP(source=0)).run(graph, 10)
        assert widths[2] == -np.inf

    def test_matches_dijkstra_reference(self):
        graph = rmat(scale=7, edge_factor=5, seed=80, weighted=True)
        ours = LigraEngine(SSWP(source=0)).run(graph,
                                               until_convergence=True)
        reference = widest_paths_reference(graph, 0)
        both_inf = np.isinf(ours) & np.isinf(reference)
        assert np.allclose(ours[~both_inf], reference[~both_inf])
        assert np.array_equal(ours == -np.inf, reference == -np.inf)

    def test_delta_engine_agrees(self):
        graph = rmat(scale=7, edge_factor=5, seed=81, weighted=True)
        full = LigraEngine(SSWP(source=0)).run(graph,
                                               until_convergence=True)
        delta = DeltaEngine(SSWP(source=0)).run(graph,
                                                until_convergence=True)
        both_inf = np.isinf(full) & np.isinf(delta)
        assert np.allclose(full[~both_inf], delta[~both_inf])


class TestRefinement:
    def test_mixed_stream_stays_exact(self, rng):
        graph = rmat(scale=7, edge_factor=5, seed=82, weighted=True)
        engine = GraphBoltEngine(SSWP(source=0), until_convergence=True)
        engine.run(graph)
        for _ in range(5):
            engine.apply_mutations(
                make_random_batch(engine.graph, rng, 12, 12)
            )
            truth = LigraEngine(SSWP(source=0)).run(
                engine.graph, until_convergence=True
            )
            both_inf = np.isinf(engine.values) & np.isinf(truth)
            assert np.allclose(engine.values[~both_inf], truth[~both_inf])

    def test_bottleneck_deletion_forces_reevaluation(self):
        graph = CSRGraph.from_edges(
            [(0, 1), (1, 2), (0, 2)], num_vertices=3,
            weights=[5.0, 2.0, 1.0],
        )
        engine = GraphBoltEngine(SSWP(source=0), until_convergence=True)
        engine.run(graph)
        assert engine.values[2] == 2.0
        engine.apply_mutations(MutationBatch.from_edges(deletions=[(1, 2)]))
        # The best path's bottleneck edge is gone; the direct edge wins.
        assert engine.values[2] == 1.0
