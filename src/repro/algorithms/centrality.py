"""Additional centrality algorithms (extensions beyond the paper's six).

These exercise corners of the incremental programming model the paper's
benchmarks do not:

- :class:`KatzCentrality` -- an unnormalised sum recurrence (no apply
  normalisation at all), the simplest possible decomposable algorithm;
- :class:`WeightedPageRank` -- contributions normalised by the source's
  *out-weight sum* rather than its out-degree, so weight replacement on
  any out-edge (not just degree change) is a contribution-parameter
  change;
- :class:`PersonalizedPageRank` -- teleportation mass concentrated on a
  hash-selected seed set, the random-walk-with-restart variant used for
  recommendation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms._hashing import hash_ids
from repro.core.aggregation import SumAggregation
from repro.core.model import IncrementalAlgorithm
from repro.graph.csr import CSRGraph
from repro.graph.mutable import MutationResult

__all__ = ["KatzCentrality", "WeightedPageRank", "PersonalizedPageRank"]


class KatzCentrality(IncrementalAlgorithm):
    """Katz centrality: ``c_i(v) = beta + alpha * sum c_{i-1}(u)``.

    ``alpha`` must stay below the reciprocal spectral radius for the
    recurrence to converge; the fixed-iteration BSP window is
    well-defined regardless.
    """

    name = "katz"
    value_shape = ()
    tolerance = 1e-12

    def __init__(self, alpha: float = 0.05, beta: float = 1.0,
                 tolerance: Optional[float] = None) -> None:
        super().__init__(SumAggregation(), tolerance)
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self.beta = beta

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        return np.full(graph.num_vertices, self.beta, dtype=np.float64)

    def contributions(self, graph, src_values, src, dst, weight) -> np.ndarray:
        return src_values.copy()

    def apply(self, graph, aggregate_values, vertices,
              previous_values: Optional[np.ndarray] = None) -> np.ndarray:
        return self.beta + self.alpha * aggregate_values


class WeightedPageRank(IncrementalAlgorithm):
    """PageRank whose contributions split rank by *edge weight share*.

    ``contribution(u -> v) = c(u) * w(u, v) / out_weight_sum(u)``.
    The normaliser depends on the weights of all of u's out-edges, so
    any out-edge addition, deletion *or weight replacement* changes u's
    contribution function -- a strictly larger contribution-parameter
    set than plain PageRank's out-degree.
    """

    name = "weighted_pagerank"
    value_shape = ()
    tolerance = 1e-12

    def __init__(self, damping: float = 0.85,
                 tolerance: Optional[float] = None) -> None:
        super().__init__(SumAggregation(), tolerance)
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        self.damping = damping

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        return np.ones(graph.num_vertices, dtype=np.float64)

    def contributions(self, graph, src_values, src, dst, weight) -> np.ndarray:
        # Sources of real edges always have a positive out-weight sum;
        # the immutable snapshot memoises the per-vertex sums.
        return src_values * weight / graph.out_weight_sums()[src]

    def apply(self, graph, aggregate_values, vertices,
              previous_values: Optional[np.ndarray] = None) -> np.ndarray:
        return (1.0 - self.damping) + self.damping * aggregate_values

    def contribution_params_changed(self, mutation: MutationResult) -> np.ndarray:
        return mutation.out_changed_vertices()


class PersonalizedPageRank(IncrementalAlgorithm):
    """Random walk with restart toward a hash-selected seed set."""

    name = "personalized_pagerank"
    value_shape = ()
    tolerance = 1e-12

    def __init__(self, damping: float = 0.85, seed_every: int = 20,
                 salt: int = 41, tolerance: Optional[float] = None) -> None:
        super().__init__(SumAggregation(), tolerance)
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        self.damping = damping
        self.seed_every = seed_every
        self.salt = salt

    def seed_mask(self, ids: np.ndarray) -> np.ndarray:
        return hash_ids(ids, self.salt) % np.uint64(self.seed_every) == 0

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        ids = np.arange(graph.num_vertices, dtype=np.int64)
        return self.seed_mask(ids).astype(np.float64)

    def contributions(self, graph, src_values, src, dst, weight) -> np.ndarray:
        return src_values / graph.out_degrees()[src]

    def apply(self, graph, aggregate_values, vertices,
              previous_values: Optional[np.ndarray] = None) -> np.ndarray:
        restart = self.seed_mask(vertices).astype(np.float64)
        return (1.0 - self.damping) * restart + (
            self.damping * aggregate_values
        )

    def contribution_params_changed(self, mutation: MutationResult) -> np.ndarray:
        return mutation.out_changed_vertices()
