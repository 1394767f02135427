"""Path algorithms over a selection aggregation: SSSP, BFS and
components.

These use the **non-decomposable** :class:`MinAggregation` (paper
section 3.3): a selection operator cannot incrementally forget a
retracted contribution, so the engines fall back to the pull-based
re-evaluation strategy for them.  SSSP is the algorithm of the paper's
KickStarter comparison (Figure 9).

All are *self-refining*: the apply step takes the vertex's own previous
value (``min`` with it), the synchronous Bellman-Ford formulation.  ``uses_previous_value`` tells the engines to re-apply a
vertex whenever its own value moved in the previous iteration.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.aggregation import MinAggregation
from repro.core.model import IncrementalAlgorithm
from repro.graph.csr import CSRGraph

__all__ = ["SSSP", "BFS", "ConnectedComponents"]


class _MinimisingAlgorithm(IncrementalAlgorithm):
    """Shared base: min aggregation, self-min apply, inf-aware change."""

    value_shape = ()
    uses_previous_value = True
    tolerance = 1e-12
    # Path algorithms converge rather than run a fixed window.
    default_iterations = 100

    def __init__(self, tolerance: Optional[float] = None) -> None:
        super().__init__(MinAggregation(), tolerance)

    def apply(self, graph, aggregate_values, vertices,
              previous_values: Optional[np.ndarray] = None) -> np.ndarray:
        if previous_values is None:
            raise ValueError(f"{self.name} requires previous values")
        return np.minimum(previous_values, aggregate_values)

    def values_changed(self, old_values, new_values) -> np.ndarray:
        # inf - inf is nan; treat two infinities as unchanged explicitly.
        both_inf = np.isinf(old_values) & np.isinf(new_values)
        with np.errstate(invalid="ignore"):
            moved = np.abs(new_values - old_values) > self.tolerance
        return np.where(both_inf, False, moved | (np.isinf(old_values)
                                                  != np.isinf(new_values)))


class SSSP(_MinimisingAlgorithm):
    """Single-source shortest paths (synchronous Bellman-Ford)."""

    name = "sssp"
    edge_operator = "+w"

    def __init__(self, source: int = 0,
                 tolerance: Optional[float] = None) -> None:
        super().__init__(tolerance)
        if source < 0:
            raise ValueError("source must be a valid vertex id")
        self.source = source

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        values = np.full(graph.num_vertices, np.inf, dtype=np.float64)
        if self.source < graph.num_vertices:
            values[self.source] = 0.0
        return values

    def apply(self, graph, aggregate_values, vertices,
              previous_values: Optional[np.ndarray] = None) -> np.ndarray:
        result = super().apply(graph, aggregate_values, vertices,
                               previous_values)
        # The source is an anchored seed: its distance is 0 by definition.
        result = result.copy()
        result[vertices == self.source] = 0.0
        return result


class BFS(_MinimisingAlgorithm):
    """Breadth-first hop distance: SSSP with unit edge lengths."""

    name = "bfs"
    edge_operator = "+1"

    def __init__(self, source: int = 0,
                 tolerance: Optional[float] = None) -> None:
        super().__init__(tolerance)
        self.source = source

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        values = np.full(graph.num_vertices, np.inf, dtype=np.float64)
        if self.source < graph.num_vertices:
            values[self.source] = 0.0
        return values

    def apply(self, graph, aggregate_values, vertices,
              previous_values: Optional[np.ndarray] = None) -> np.ndarray:
        result = super().apply(graph, aggregate_values, vertices,
                               previous_values)
        result = result.copy()
        result[vertices == self.source] = 0.0
        return result


class ConnectedComponents(_MinimisingAlgorithm):
    """Min-label propagation: components get their smallest member id.

    On a digraph this computes the standard label-propagation
    approximation of weakly connected components (exact when edges are
    symmetric).
    """

    name = "connected_components"

    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        return np.arange(graph.num_vertices, dtype=np.float64)
