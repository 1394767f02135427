"""Loopy Belief Propagation (simplified, per the paper's Algorithm 2).

Each vertex holds a normalised product-of-messages vector over ``S``
states.  Per edge (u, v) the contribution is (paper Table 4)::

    contribution[s] = sum_{s'} phi(u, s') * psi(s', s) * c(u)[s']

and the aggregation multiplies contributions over incoming edges.  The
contribution is the source's message alone (no edge operator): it is
computed once per source, not once per edge.  Like
the paper's simplified Algorithm 2 we omit the exclusion of inbound
contributions.

The product is a *complex aggregation*: undoing a contribution requires
reproducing the old contribution from the old vertex value and dividing
it out (the paper's ``retract`` with ``atomicDivide``).  We run the
product in log space (:class:`LogProductAggregation`) so that deep
products over high-degree vertices neither under- nor overflow; the
incremental operator structure is identical (multiply ≡ add-log,
divide ≡ subtract-log).  Each message is normalised to unit
geometric mean, a deterministic function of the source value, keeping
log magnitudes bounded.

``phi`` (vertex priors) are deterministic per-vertex-id values near
uniform, derived once per id into a :class:`SeedTable` that every
message gathers from by source id; ``psi`` is a symmetric mixing matrix
with mild diagonal preference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms._hashing import SeedTable, uniform_from_ids
from repro.core.aggregation import LogProductAggregation
from repro.core.model import IncrementalAlgorithm, any_per_row
from repro.graph.csr import CSRGraph

__all__ = ["BeliefPropagation"]


class BeliefPropagation(IncrementalAlgorithm):
    """Simplified loopy BP with log-space product aggregation; τ is
    relative (log space, where it sums): beliefs reach 1e-30 and below."""

    name = "belief_propagation"
    tolerance = 1e-12

    def __init__(self, num_states: int = 2, coupling: float = 0.2,
                 salt: int = 23, tolerance: Optional[float] = None) -> None:
        super().__init__(LogProductAggregation(), tolerance)
        if num_states < 2:
            raise ValueError("need at least two states")
        if not 0.0 <= coupling < 1.0:
            raise ValueError("coupling must be in [0, 1)")
        self.num_states = num_states
        self.salt = salt
        self.value_shape = (num_states,)
        # psi[s', s]: uniform mixing plus a diagonal preference.
        base = np.full((num_states, num_states),
                       (1.0 - coupling) / num_states)
        self.psi = base + coupling * np.eye(num_states)
        self._priors = SeedTable(self._derive_priors)

    # ------------------------------------------------------------------
    def priors(self, ids: np.ndarray) -> np.ndarray:
        """phi(u, s): near-uniform deterministic priors in [0.45, 0.55]."""
        columns = [
            0.45 + 0.1 * uniform_from_ids(ids, self.salt + s)
            for s in range(self.num_states)
        ]
        return np.stack(columns, axis=1)

    def _derive_priors(self, ids: np.ndarray):
        return (self.priors(ids),)

    # ------------------------------------------------------------------
    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        return np.full(
            (graph.num_vertices, self.num_states),
            1.0 / self.num_states,
            dtype=np.float64,
        )

    def message(self, graph, ids, values) -> np.ndarray:
        (priors,) = self._priors.covering(graph, ids)
        # ``np.take`` gathers rows ~10x faster than ``priors[ids]``.
        logs = np.log((np.take(priors, ids, axis=0) * values) @ self.psi)
        # Unit geometric mean keeps the log-sum of each message at zero,
        # so products over any in-degree stay representable.
        return logs - logs.mean(axis=1, keepdims=True)

    def values_changed(self, old_values, new_values) -> np.ndarray:
        return any_per_row(np.abs(new_values - old_values)
                           > self.tolerance * np.abs(old_values))

    def apply(self, graph, aggregate_values, vertices,
              previous_values: Optional[np.ndarray] = None) -> np.ndarray:
        shifted = aggregate_values - aggregate_values.max(axis=1, keepdims=True)
        products = np.exp(shifted)
        return products / products.sum(axis=1, keepdims=True)
