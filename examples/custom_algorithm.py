#!/usr/bin/env python
"""Custom algorithm walkthrough: live exposure scoring.

The runnable companion to docs/tutorial.md: define a brand-new analysis
in ~30 lines (weighted-average "exposure" anchored at reviewed
accounts), verify its decomposition against exact execution, then run
it over a windowed transaction stream with incremental refinement.

Run:  python examples/custom_algorithm.py
"""

import numpy as np

from repro import (
    GraphBoltEngine,
    IncrementalAlgorithm,
    LigraEngine,
    SlidingWindowStream,
    SumAggregation,
    rmat,
)


class Exposure(IncrementalAlgorithm):
    """score(v) = sum_in score(u) * w / sum_in w, reviewed clamped."""

    name = "exposure"
    value_shape = ()
    edge_operator = "*w"    # contribution = score(u) * w(u, v)

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
        # The normaliser reads v's in-weights: any in-edge change must
        # re-apply v even when the aggregated sum is untouched.
        return mutation.in_changed_vertices()


def main():
    print("=== Custom algorithm: live exposure scoring ===\n")
    network = rmat(scale=11, edge_factor=8, seed=7, weighted=True)
    reviewed = {3: 1.0, 17: 0.0, 101: 1.0}
    factory = lambda: Exposure(reviewed)

    engine = GraphBoltEngine(factory(), num_iterations=10)
    scores = engine.run(network)
    print(f"network: {network.num_vertices} accounts, "
          f"{network.num_edges} payment edges, "
          f"{len(reviewed)} reviewed anchors")
    print(f"initial mean exposure: {scores.mean():.4f}\n")

    window = SlidingWindowStream(window=5)
    rng = np.random.default_rng(3)
    print(f"{'tick':>5} {'events':>7} {'expired':>8} "
          f"{'mean exposure':>14} {'exact?':>7}")
    for tick in range(1, 7):
        events = [
            (int(rng.integers(0, 2048)), int(rng.integers(0, 2048)))
            for _ in range(150)
        ]
        events = [(u, v) for u, v in events if u != v]
        amounts = (rng.random(len(events)) * 4 + 1).tolist()
        batch = window.advance(events, weights=amounts)
        scores = engine.apply_mutations(batch)
        truth = LigraEngine(factory()).run(engine.graph, 10)
        exact = bool(np.allclose(scores, truth, atol=1e-8))
        print(f"{tick:>5} {batch.num_additions:>7} "
              f"{batch.num_deletions:>8} {scores.mean():>14.4f} "
              f"{str(exact):>7}")
        if not exact:
            raise SystemExit("decomposition bug!")

    anchored = sorted(reviewed)
    print(f"\nreviewed anchors held: "
          f"{[round(float(scores[v]), 2) for v in anchored]}")
    print("every windowed tick matched a from-scratch rerun exactly")


if __name__ == "__main__":
    main()
