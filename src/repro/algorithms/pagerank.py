"""PageRank in GraphBolt's decomposed form.

Matches Algorithm 1 of the paper::

    g_i(v) = sum_{(u,v) in E} c_{i-1}(u) / out_degree(u)
    c_i(v) = 0.15 + 0.85 * g_i(v)

The message ``c(u) / out_degree(u)`` depends on the source's
out-degree, a *contribution parameter*: a mutation that changes u's
out-degree changes u's message along every retained out-edge even when
u's rank is unchanged -- exactly why the paper's ``propagateDelta``
(Algorithm 3) distinguishes ``oldpr/old_degree`` from ``newpr/new_degree``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.aggregation import SumAggregation
from repro.core.model import IncrementalAlgorithm
from repro.graph.csr import CSRGraph
from repro.graph.mutable import MutationResult

__all__ = ["PageRank"]


class PageRank(IncrementalAlgorithm):
    """Damped PageRank with out-degree-normalised contributions; τ is
    absolute (no rank falls below ``1 - damping``)."""

    name = "pagerank"
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

    def message(self, graph, ids, values) -> np.ndarray:
        # A vertex with no out-edge sends nothing: 0, not a 0 / 0.
        degrees = graph.out_degrees()[ids]
        return np.divide(values, degrees, out=np.zeros(values.shape),
                         where=degrees > 0)

    def apply(self, graph, aggregate_values, vertices,
              previous_values: Optional[np.ndarray] = None) -> np.ndarray:
        return (1.0 - self.damping) + self.damping * aggregate_values

    def contribution_params_changed(self, mutation: MutationResult) -> np.ndarray:
        return mutation.out_changed_vertices()
