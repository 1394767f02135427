"""The generalized incremental programming model.

An :class:`IncrementalAlgorithm` expresses a synchronous vertex program
in the decomposed form GraphBolt needs (paper sections 3.2-3.3)::

    g_i(v) = (+)_{(u,v) in E}  message(c_{i-1}(u), u)  <edge operator>  w
    c_i(v) = apply( g_i(v) )                      # optionally also c_{i-1}(v)

Every paper algorithm's ``contribution(c(u), u, v, w)`` is a per-source
*message* (a function of the source's value, id and snapshot) through an
*edge operator* that reads at most the edge's weight.  From the message,
the operator and the aggregation the engines derive the full
synchronous run (Ligra), selective scheduling (GB-Reset, the paper's
``propagateDelta``) and the refinement operators of Algorithms 2-3;
none is written per algorithm, and each computes a source's message
once, not once per edge (:mod:`repro.runtime.exec`).  This is the
paper's point that complex aggregations "statically decompose into
simple sub-aggregations" whose old contributions are reproduced on the
fly from tracked values (section 3.3, steps 1-2): CF's pair of sums and
BP's per-state product are *vector* messages, the decomposition a
choice of value layout.

All hooks are vectorised over vertices: ids are int64 arrays and values
``(n, *value_shape)`` arrays, one row per id.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from repro.core.aggregation import Aggregation
from repro.graph.csr import CSRGraph
from repro.graph.mutable import MutationResult

__all__ = ["IncrementalAlgorithm", "any_per_row"]


def any_per_row(mask: np.ndarray) -> np.ndarray:
    """Per-row OR of a boolean ``(n, ...)`` mask (1-D: the mask itself),
    one column at a time -- ``any`` over a short trailing axis is
    numpy's slow direction.  ``reshape(0, -1)`` cannot infer a width."""
    if mask.ndim <= 1:
        return mask
    rows = np.zeros(mask.shape[0], dtype=bool)
    for column in mask.reshape(mask.shape[0], math.prod(mask.shape[1:])).T:
        rows |= column
    return rows


class IncrementalAlgorithm(ABC):
    """A synchronous vertex program in GraphBolt's decomposed form."""

    #: Human-readable short name (used in reports).
    name: str = "algorithm"

    #: Shape of a single vertex value; () for scalars, (S,) for vectors,
    #: etc.  Aggregation values share this shape unless
    #: :attr:`aggregation_shape` says otherwise.
    value_shape: Tuple[int, ...] = ()

    #: Absolute tolerance used for *scheduling* decisions (whether a value
    #: "changed"); exact zero disables selective scheduling savings because
    #: float replay noise never cancels perfectly.
    tolerance: float = 1e-12

    #: Default iteration count (the paper runs 10 iterations; 5 on Yahoo).
    default_iterations: int = 10

    #: True when ``apply`` needs the vertex's own previous value (e.g.
    #: SSSP's self-min).  The engines then re-apply a vertex whenever its
    #: own value changed in the previous iteration.
    uses_previous_value: bool = False

    #: What an edge does to its source's :meth:`message`: ``None``
    #: passes it on unchanged, ``"*w"`` multiplies it by the edge's
    #: weight, ``"+w"`` adds the weight and ``"+1"`` adds one.
    edge_operator: Optional[str] = None

    #: The first aggregation component (row-major) the operator acts
    #: on; the ones before it pass unchanged (CF's normal matrix before
    #: its weighted right-hand side).
    operated_from: int = 0

    def __init__(self, aggregation: Aggregation,
                 tolerance: Optional[float] = None) -> None:
        self.aggregation = aggregation
        if tolerance is not None:
            self.tolerance = tolerance

    # ------------------------------------------------------------------
    # Shapes
    # ------------------------------------------------------------------
    @property
    def aggregation_shape(self) -> Tuple[int, ...]:
        """Shape of one aggregation value (defaults to the value shape)."""
        return self.value_shape

    # ------------------------------------------------------------------
    # The vertex program
    # ------------------------------------------------------------------
    @abstractmethod
    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        """The initial vertex values c_0, shape ``(V, *value_shape)``.

        Must be a deterministic function of the vertex *id* (not of the
        vertex count), so that growing the graph extends rather than
        perturbs the initial state.
        """

    def message(self, graph: CSRGraph, ids: np.ndarray,
                values: np.ndarray) -> np.ndarray:
        """What each source in ``ids`` sends along its out-edges, shape
        ``(ids.size, *aggregation_shape)``, from ``values``, their rows.

        ``graph`` identifies which snapshot's parameters to use (e.g.
        out-degrees): during refinement the engine computes old
        messages against the pre-mutation snapshot and new ones against
        the post-mutation snapshot.  The default sends the value itself.
        """
        return values

    @abstractmethod
    def apply(
        self,
        graph: CSRGraph,
        aggregate_values: np.ndarray,
        vertices: np.ndarray,
        previous_values: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The ∮ step: map aggregated values to new vertex values.

        ``aggregate_values`` has shape ``(n, *aggregation_shape)`` for the
        given ``vertices``; ``previous_values`` is supplied iff
        :attr:`uses_previous_value` is set.  Must not mutate its inputs.
        """

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def values_changed(self, old_values: np.ndarray,
                       new_values: np.ndarray) -> np.ndarray:
        """Boolean per-vertex mask of meaningful change (selective
        scheduling predicate; paper section 4.2)."""
        diff = new_values - old_values
        if diff.ndim <= 1:
            return np.abs(diff) > self.tolerance
        return any_per_row(np.abs(diff, out=diff) > self.tolerance)

    # ------------------------------------------------------------------
    # Mutation-induced parameter changes
    # ------------------------------------------------------------------
    def contribution_params_changed(self, mutation: MutationResult) -> np.ndarray:
        """Vertices whose *contribution function* changed under a mutation
        even if their value did not (e.g. PageRank sources whose
        out-degree changed).  Sorted unique int64 ids; empty by default.
        """
        return np.empty(0, dtype=np.int64)

    def apply_params_changed(self, mutation: MutationResult) -> np.ndarray:
        """Vertices whose *apply step* changed under a mutation (e.g.
        CoEM's in-weight normaliser).  Sorted unique int64 ids."""
        return np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def identity_aggregate(self, num_vertices: int) -> np.ndarray:
        return self.aggregation.identity(num_vertices, self.aggregation_shape)

    def extend_values(self, values: np.ndarray, graph: CSRGraph) -> np.ndarray:
        """Grow a value array to a larger vertex count, filling new slots
        with initial values (vertex additions)."""
        num_vertices = graph.num_vertices
        if values.shape[0] == num_vertices:
            return values
        if values.shape[0] > num_vertices:
            raise ValueError("value array larger than graph")
        fresh = self.initial_values(graph)
        fresh[: values.shape[0]] = values
        return fresh

    def __repr__(self) -> str:
        return f"{type(self).__name__}(aggregation={self.aggregation.name})"
