"""Tests for sliding-window streams."""

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.core.engine import GraphBoltEngine
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.window import SlidingWindowStream
from repro.ligra.engine import LigraEngine
from tests.conftest import edge_set


class TestWindowSemantics:
    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SlidingWindowStream(0)

    def test_new_edges_are_additions(self):
        stream = SlidingWindowStream(window=2)
        batch = stream.advance([(0, 1), (1, 2)])
        assert batch.num_additions == 2
        assert batch.num_deletions == 0
        assert stream.live_edges == 2

    def test_expiry_after_window(self):
        stream = SlidingWindowStream(window=2)
        stream.advance([(0, 1)])
        stream.advance([])
        batch = stream.advance([])
        assert list(batch.deletions()) == [(0, 1)]
        assert stream.live_edges == 0

    def test_reobservation_refreshes_lifetime(self):
        stream = SlidingWindowStream(window=2)
        stream.advance([(0, 1)])
        stream.advance([(0, 1)])  # refresh, no mutation
        batch = stream.advance([])
        assert len(batch) == 0  # original observation expired but edge
        assert (0, 1) in stream  # is still live via the refresh
        batch = stream.advance([])
        assert list(batch.deletions()) == [(0, 1)]

    def test_reobservation_same_weight_is_silent(self):
        stream = SlidingWindowStream(window=3)
        stream.advance([(0, 1)], weights=[2.0])
        batch = stream.advance([(0, 1)], weights=[2.0])
        assert len(batch) == 0

    def test_weight_change_is_replacement(self):
        stream = SlidingWindowStream(window=3)
        stream.advance([(0, 1)], weights=[2.0])
        batch = stream.advance([(0, 1)], weights=[5.0])
        assert list(batch.deletions()) == [(0, 1)]
        assert list(batch.additions()) == [(0, 1, 5.0)]

    def test_weights_length_mismatch(self):
        stream = SlidingWindowStream(window=2)
        with pytest.raises(ValueError):
            stream.advance([(0, 1)], weights=[1.0, 2.0])


class TestAgainstSetModel:
    def test_matches_window_recomputation(self):
        rng = np.random.default_rng(77)
        window = 3
        stream = SlidingWindowStream(window=window)
        graph = StreamingGraph(CSRGraph.from_edges([], num_vertices=20))
        history = []
        for step in range(12):
            observed = [
                (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
                for _ in range(6)
            ]
            observed = [(u, v) for u, v in observed if u != v]
            history.append(observed)
            batch = stream.advance(observed)
            graph.apply_batch(batch)
            expected = set()
            for past in history[-window:]:
                expected.update(past)
            # Drop edges re-observed later... the window keeps an edge
            # iff its LAST observation is within the window.
            last_seen = {}
            for when, past in enumerate(history):
                for edge in past:
                    last_seen[edge] = when
            expected = {
                edge for edge, when in last_seen.items()
                if when > step - window
            }
            assert edge_set(graph.graph) == expected
            assert stream.live_edges == len(expected)


class TestEngineIntegration:
    def test_windowed_pagerank_stays_exact(self):
        rng = np.random.default_rng(78)
        stream = SlidingWindowStream(window=4)
        initial = CSRGraph.from_edges([(0, 1), (1, 0)], num_vertices=64)
        engine = GraphBoltEngine(PageRank(), num_iterations=8)
        engine.run(initial)
        for _ in range(10):
            observed = [
                (int(rng.integers(0, 64)), int(rng.integers(0, 64)))
                for _ in range(15)
            ]
            observed = [(u, v) for u, v in observed if u != v]
            batch = stream.advance(observed)
            values = engine.apply_mutations(batch)
            truth = LigraEngine(PageRank()).run(engine.graph, 8)
            assert np.allclose(values, truth, atol=1e-9)
        # Steady state: deletions flow every step.
        assert stream.live_edges < 15 * 4 + 2
