"""Co-Training Expectation Maximization (CoEM).

A semi-supervised learning algorithm for named-entity recognition (Nigam
& Ghani); the paper's CoEM row in Table 4::

    c_i(v) = ( sum_{(u,v) in E} c_{i-1}(u) * weight(u,v) )
             / ( sum_{(w,v) in E} weight(w,v) )

The numerator is a plain weighted-sum aggregation; the denominator is the
vertex's *in-weight sum*, which lives in the apply step.  That makes the
normaliser an **apply parameter**: a mutation touching v's in-edges
changes c_i(v) even when the aggregate is untouched, which is why
:meth:`apply_params_changed` reports the mutation's in-changed vertices
-- the engine then re-applies them in every refined iteration.

Seed vertices (hash-selected) are clamped to scores 1.0 (positive
entities) or 0.0 (negative), mirroring CoEM's labelled seeds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms._hashing import SeedTable, hash_ids
from repro.core.aggregation import SumAggregation
from repro.core.model import IncrementalAlgorithm
from repro.graph.csr import CSRGraph
from repro.graph.mutable import MutationResult

__all__ = ["CoEM"]


class CoEM(IncrementalAlgorithm):
    """CoEM label scores with in-weight normalisation; τ is absolute
    (scores in [0, 1], summed linearly)."""

    name = "coem"
    value_shape = ()
    tolerance = 1e-12
    edge_weighted = True

    def __init__(self, seed_every: int = 10, salt: int = 11,
                 default_score: float = 0.2,
                 tolerance: Optional[float] = None) -> None:
        super().__init__(SumAggregation(), tolerance)
        self.seed_every = seed_every
        self.salt = salt
        self.default_score = default_score
        self._seeds = SeedTable(self._derive_seeds)

    # ------------------------------------------------------------------
    def seed_mask(self, ids: np.ndarray) -> np.ndarray:
        return hash_ids(ids, self.salt) % np.uint64(self.seed_every) == 0

    def seed_scores(self, ids: np.ndarray) -> np.ndarray:
        """1.0 for positive seeds, 0.0 for negative seeds."""
        return (hash_ids(ids, self.salt + 1) % np.uint64(2)).astype(np.float64)

    def _derive_seeds(self, ids: np.ndarray):
        return self.seed_mask(ids), self.seed_scores(ids)

    # ------------------------------------------------------------------
    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        values = np.full(graph.num_vertices, self.default_score,
                         dtype=np.float64)
        mask, scores = self._seeds.covering(graph)
        seeds = np.flatnonzero(mask[:graph.num_vertices])
        values[seeds] = scores[seeds]
        return values

    def apply(self, graph, aggregate_values, vertices,
              previous_values: Optional[np.ndarray] = None) -> np.ndarray:
        normalisers = graph.in_weight_sums()[vertices]
        safe = normalisers > 0
        scores = np.where(
            safe,
            aggregate_values / np.where(safe, normalisers, 1.0),
            self.default_score,
        )
        mask, seed_scores = self._seeds.covering(graph, vertices)
        rows = np.flatnonzero(mask[vertices])
        scores[rows] = seed_scores[vertices[rows]]
        return scores

    def apply_params_changed(self, mutation: MutationResult) -> np.ndarray:
        return mutation.in_changed_vertices()
