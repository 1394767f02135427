"""Adsorption label propagation (Baluja et al., WWW'08).

The general form of graph-based semi-supervised learning that the
paper's LP benchmark is a special case of: each vertex mixes three
sources of label mass per iteration --

    c_i(v) = p_inj(v)  * injected(v)
           + p_cont(v) * normalise( sum_u c_{i-1}(u) * w(u, v) )
           + p_abnd(v) * uniform

with per-vertex probabilities (injection for labelled vertices,
continuation for propagating, abandonment as regularisation) summing
to one.  A genuinely different *apply* step over the same weighted-sum
aggregation, so it slots straight into the incremental model; seeds
here are soft (injected each iteration) rather than clamped.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms._hashing import hash_ids
from repro.algorithms.label_propagation import normalised_rows
from repro.core.aggregation import SumAggregation
from repro.core.model import IncrementalAlgorithm
from repro.graph.csr import CSRGraph

__all__ = ["Adsorption"]


class Adsorption(IncrementalAlgorithm):
    """Adsorption with hash-selected injected labels; τ is absolute (a
    linear sum, and every label keeps its share of abandonment)."""

    name = "adsorption"
    tolerance = 1e-12
    edge_weighted = True

    def __init__(self, num_labels: int = 4, seed_every: int = 8,
                 injection: float = 0.6, abandonment: float = 0.1,
                 salt: int = 53, tolerance: Optional[float] = None) -> None:
        super().__init__(SumAggregation(), tolerance)
        if num_labels < 2:
            raise ValueError("need at least two labels")
        if not 0.0 < injection < 1.0 or not 0.0 <= abandonment < 1.0:
            raise ValueError("probabilities must lie in (0, 1)")
        if injection + abandonment >= 1.0:
            raise ValueError(
                "injection + abandonment must leave continuation mass"
            )
        self.num_labels = num_labels
        self.seed_every = seed_every
        self.injection = injection
        self.abandonment = abandonment
        self.salt = salt
        self.value_shape = (num_labels,)

    # ------------------------------------------------------------------
    def seed_mask(self, ids: np.ndarray) -> np.ndarray:
        return hash_ids(ids, self.salt) % np.uint64(self.seed_every) == 0

    def injected_labels(self, ids: np.ndarray) -> np.ndarray:
        one_hot = np.zeros((ids.size, self.num_labels))
        labels = (hash_ids(ids, self.salt + 1)
                  % np.uint64(self.num_labels)).astype(np.int64)
        one_hot[np.arange(ids.size), labels] = 1.0
        return one_hot

    def _probabilities(self, ids: np.ndarray):
        """(p_inj, p_cont, p_abnd) per vertex; only seeds inject."""
        seeds = self.seed_mask(ids)
        p_inj = np.where(seeds, self.injection, 0.0)
        p_abnd = np.full(ids.size, self.abandonment)
        p_cont = 1.0 - p_inj - p_abnd
        return p_inj, p_cont, p_abnd

    # ------------------------------------------------------------------
    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        return np.full(
            (graph.num_vertices, self.num_labels), 1.0 / self.num_labels
        )

    def apply(self, graph, aggregate_values, vertices,
              previous_values: Optional[np.ndarray] = None) -> np.ndarray:
        propagated = normalised_rows(aggregate_values)
        p_inj, p_cont, p_abnd = self._probabilities(vertices)
        uniform = 1.0 / self.num_labels
        return (
            p_inj[:, None] * self.injected_labels(vertices)
            + p_cont[:, None] * propagated
            + p_abnd[:, None] * uniform
        )
