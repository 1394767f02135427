"""The tutorial's Exposure walkthrough, executed.

docs/tutorial.md builds a custom algorithm step by step; this test runs
the same code so the documentation cannot rot.
"""

import numpy as np

from repro import (
    DeltaEngine,
    GraphBoltEngine,
    IncrementalAlgorithm,
    LigraEngine,
    MutationBatch,
    SlidingWindowStream,
    SumAggregation,
    rmat,
)
from repro.runtime.checkpoint import load_engine, save_engine
from repro.serving import StreamingAnalyticsServer


class Exposure(IncrementalAlgorithm):
    """The tutorial's exposure score (docs/tutorial.md step 2)."""

    name = "exposure"
    value_shape = ()
    edge_operator = "*w"

    def __init__(self, reviewed, tolerance=1e-9):
        super().__init__(SumAggregation(), tolerance)
        self.reviewed = dict(reviewed)

    def _clamp(self, vertices, scores):
        out = scores.copy()
        for i, v in enumerate(vertices.tolist()):
            if v in self.reviewed:
                out[i] = self.reviewed[v]
        return out

    def initial_values(self, graph):
        ids = np.arange(graph.num_vertices)
        return self._clamp(ids, np.full(graph.num_vertices, 0.5))

    def apply(self, graph, aggregate_values, vertices,
              previous_values=None):
        denom = graph.in_weight_sums()[vertices]
        safe = denom > 1e-9
        scores = np.where(
            safe, aggregate_values / np.where(safe, denom, 1.0), 0.5
        )
        return self._clamp(vertices, scores)

    def apply_params_changed(self, mutation):
        return mutation.in_changed_vertices()


REVIEWED = {3: 1.0, 17: 0.0}


def factory():
    return Exposure(REVIEWED)


class TestTutorialSteps:
    def setup_method(self):
        self.graph = rmat(scale=9, edge_factor=6, seed=7, weighted=True)

    def test_step3_decomposition_checks(self):
        full = LigraEngine(factory()).run(self.graph, 10)
        delta = DeltaEngine(factory()).run(self.graph, 10)
        assert np.allclose(full, delta, atol=1e-8)

        engine = GraphBoltEngine(factory(), num_iterations=10)
        engine.run(self.graph)
        batch = MutationBatch.from_edges(additions=[(5, 3)],
                                         deletions=[(0, 1)])
        refined = engine.apply_mutations(batch)
        truth = LigraEngine(factory()).run(engine.graph, 10)
        assert np.allclose(refined, truth, atol=1e-7)

    def test_step4_windowed_stream(self):
        engine = GraphBoltEngine(factory(), num_iterations=8)
        engine.run(self.graph)
        window = SlidingWindowStream(window=3)
        rng = np.random.default_rng(1)
        for _ in range(5):
            events = [
                (int(rng.integers(0, 512)), int(rng.integers(0, 512)))
                for _ in range(10)
            ]
            amounts = (rng.random(len(events)) + 0.5).tolist()
            batch = window.advance(
                [e for e in events if e[0] != e[1]],
                weights=amounts[: len([e for e in events
                                       if e[0] != e[1]])],
            )
            scores = engine.apply_mutations(batch)
        truth = LigraEngine(factory()).run(engine.graph, 8)
        assert np.allclose(scores, truth, atol=1e-8)

    def test_step5_pruned_engine_still_exact(self):
        engine = GraphBoltEngine(factory(), num_iterations=10, horizon=5)
        engine.run(self.graph)
        engine.apply_mutations(
            MutationBatch.from_edges(additions=[(9, 3), (2, 17)])
        )
        truth = LigraEngine(factory()).run(engine.graph, 10)
        assert np.allclose(engine.values, truth, atol=1e-7)
        assert engine.memory_report().dependency_bytes > 0

    def test_step6_serving(self):
        server = StreamingAnalyticsServer(factory, self.graph,
                                          approx_iterations=3,
                                          exact_iterations=10)
        server.ingest(MutationBatch.from_edges(additions=[(4, 3)]))
        exact = server.query()
        truth = LigraEngine(factory()).run(server.graph, 10)
        assert np.allclose(exact.values, truth, atol=1e-7)

    def test_step7_checkpoint(self, tmp_path):
        engine = GraphBoltEngine(factory(), num_iterations=8)
        engine.run(self.graph)
        path = str(tmp_path / "exposure.ckpt")
        save_engine(engine, path)
        restored = load_engine(path, factory())
        assert np.array_equal(restored.values, engine.values)
