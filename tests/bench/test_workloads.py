"""Unit tests for mutation workload generators."""

import numpy as np
import pytest

from repro.bench.workloads import (
    mixed_stream,
    split_initial_graph,
    targeted_batch,
    uniform_batch,
)
from repro.graph.generators import rmat
from repro.graph.mutable import StreamingGraph
from tests.conftest import edge_set


@pytest.fixture(scope="module")
def graph():
    return rmat(scale=8, edge_factor=6, seed=40, weighted=True)


class TestSplit:
    def test_fraction(self, graph):
        initial, src, dst, weight = split_initial_graph(graph, seed=1)
        assert initial.num_edges == graph.num_edges // 2
        assert src.size == graph.num_edges - initial.num_edges
        assert initial.num_vertices == graph.num_vertices

    def test_partition_is_exact(self, graph):
        initial, src, dst, _ = split_initial_graph(graph, seed=2)
        pending = set(zip(src.tolist(), dst.tolist()))
        assert edge_set(initial) | pending == edge_set(graph)
        assert not (edge_set(initial) & pending)


class TestMixedStream:
    def test_paper_methodology(self, graph):
        initial, batches = mixed_stream(graph, num_batches=5,
                                        batch_size=40, seed=3)
        assert len(batches) == 5
        stream = StreamingGraph(initial)
        for batch in batches:
            assert batch.num_additions > 0
            assert batch.num_deletions > 0
            result = stream.apply_batch(batch)
            # Every mutation in the stream is applicable: additions are
            # novel, deletions target live edges.
            assert result.skipped_additions == 0
            assert result.skipped_deletions == 0

    def test_delete_fraction(self, graph):
        _, batches = mixed_stream(graph, num_batches=2, batch_size=100,
                                  seed=4)
        for batch in batches:
            assert batch.num_deletions == 30


class TestUniformBatch:
    def test_sizes(self, graph):
        batch = uniform_batch(graph, 100, delete_fraction=0.3, seed=5)
        assert batch.num_deletions <= 30
        assert batch.num_additions <= 70
        assert len(batch) > 0

    def test_deterministic(self, graph):
        a = uniform_batch(graph, 50, seed=6)
        b = uniform_batch(graph, 50, seed=6)
        assert list(a.additions()) == list(b.additions())
        assert list(a.deletions()) == list(b.deletions())

    def test_deletions_target_live_edges(self, graph):
        batch = uniform_batch(graph, 60, seed=7)
        edges = edge_set(graph)
        assert all(edge in edges for edge in batch.deletions())


class TestTargetedBatch:
    def test_hi_targets_have_higher_degree_than_lo(self, graph):
        degrees = graph.out_degrees()
        hi = targeted_batch(graph, 100, "hi", seed=8)
        lo = targeted_batch(graph, 100, "lo", seed=8)
        hi_mean = degrees[hi.add_dst].mean()
        lo_mean = degrees[lo.add_dst].mean()
        assert hi_mean > 3 * max(lo_mean, 0.01)

    def test_invalid_workload(self, graph):
        with pytest.raises(ValueError):
            targeted_batch(graph, 10, "mid")

    def test_hi_deletions_point_at_hubs(self, graph):
        degrees = graph.out_degrees()
        batch = targeted_batch(graph, 100, "hi", seed=9)
        if batch.num_deletions:
            threshold = np.quantile(degrees[degrees > 0], 0.95)
            assert degrees[batch.del_dst].min() >= threshold * 0.5
