"""Collaborative Filtering by Alternating Least Squares.

The paper's canonical *complex aggregation* (section 3.3)::

    c_i(v) = ( sum_{(u,v)} c(u) c(u)^T + lambda I )^{-1}
             *  sum_{(u,v)} c(u) * weight(u, v)

Step 1 of the paper's decomposition workflow splits this into the pair of
sub-aggregations  < sum c c^T , sum c w > , both plain sums; step 2
reproduces old contributions on the fly (c(u) c(u)^T from the old value)
so that differences can be aggregated.  We realise the pair as one
flattened sum-aggregated vector of length ``K*K + K`` per vertex -- the
static decomposition is literally a choice of value layout, whose message
``[c cᵀ | c]`` the edge weight multiplies from column K*K on -- and the
matrix inverse plus the lambda*I shift live in the apply step, exactly as
the paper leaves them outside the decomposition.

The graph is expected bipartite user<->item with symmetric rating edges
(see :func:`repro.graph.generators.bipartite_graph`), but the algorithm
is well-defined on any weighted digraph.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.algorithms._hashing import uniform_from_ids
from repro.core.aggregation import SumAggregation
from repro.core.model import IncrementalAlgorithm
from repro.graph.csr import CSRGraph

__all__ = ["CollaborativeFiltering"]


class CollaborativeFiltering(IncrementalAlgorithm):
    """ALS with K latent factors and ridge regularisation; τ is absolute
    (factors cross zero, where a relative τ has no scale)."""

    name = "collaborative_filtering"
    tolerance = 1e-12
    edge_operator = "*w"

    def __init__(self, num_factors: int = 4, regulariser: float = 0.5,
                 salt: int = 31, tolerance: Optional[float] = None) -> None:
        super().__init__(SumAggregation(), tolerance)
        if num_factors < 1:
            raise ValueError("need at least one latent factor")
        if regulariser <= 0:
            raise ValueError(
                "regulariser must be positive (it keeps the normal matrix "
                "invertible for vertices with few ratings)"
            )
        self.num_factors = num_factors
        self.regulariser = regulariser
        self.salt = salt
        self.value_shape = (num_factors,)
        # The edge weight multiplies the right-hand side only.
        self.operated_from = num_factors ** 2

    @property
    def aggregation_shape(self) -> Tuple[int, ...]:
        # < flattened K x K normal matrix | K-vector right-hand side >
        return (self.num_factors * (self.num_factors + 1),)

    # ------------------------------------------------------------------
    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        ids = np.arange(graph.num_vertices, dtype=np.int64)
        columns = [
            0.1 + 0.8 * uniform_from_ids(ids, self.salt + k)
            for k in range(self.num_factors)
        ]
        return np.stack(columns, axis=1)

    def message(self, graph, ids, values) -> np.ndarray:
        outer = values[:, :, None] * values[:, None, :]
        return np.concatenate([outer.reshape(ids.size, -1), values], axis=1)

    def apply(self, graph, aggregate_values, vertices,
              previous_values: Optional[np.ndarray] = None) -> np.ndarray:
        k = self.num_factors
        n = aggregate_values.shape[0]
        normal = aggregate_values[:, : k * k].reshape(n, k, k).copy()
        rhs = aggregate_values[:, k * k :]
        normal += self.regulariser * np.eye(k)
        # Sum of outer products is PSD; + lambda*I makes it PD, so the
        # batched solve cannot be singular.  The trailing singleton axis
        # forces NumPy's batched-matrix (not single-matrix) semantics.
        return np.linalg.solve(normal, rhs[:, :, None])[:, :, 0]
