"""Label Propagation (Zhu & Ghahramani), the paper's LP benchmark.

Each vertex carries a probability distribution over ``num_labels``
labels.  Per iteration (paper Table 4)::

    g_i(v)[f] = sum_{(u,v) in E} c_{i-1}(u)[f] * weight(u, v)
    c_i(v)    = normalise(g_i(v)),   seeds clamped to their one-hot label

Seed vertices (a deterministic hash-selected fraction) keep their label
distribution fixed; everyone else starts uniform.  LP requires BSP
semantics -- it is the algorithm the paper uses to demonstrate that naive
reuse of intermediate values yields incorrect results (Figure 2, Table 1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms._hashing import SeedTable, hash_ids
from repro.core.aggregation import SumAggregation
from repro.core.model import IncrementalAlgorithm
from repro.graph.csr import CSRGraph

__all__ = ["LabelPropagation"]


class LabelPropagation(IncrementalAlgorithm):
    """Semi-supervised label propagation over weighted edges; τ is
    absolute (distributions summing to 1, summed linearly)."""

    name = "label_propagation"
    tolerance = 1e-12
    edge_weighted = True

    def __init__(self, num_labels: int = 5, seed_every: int = 10,
                 salt: int = 7, tolerance: Optional[float] = None) -> None:
        super().__init__(SumAggregation(), tolerance)
        if num_labels < 2:
            raise ValueError("need at least two labels")
        if seed_every < 1:
            raise ValueError("seed_every must be >= 1")
        self.num_labels = num_labels
        self.seed_every = seed_every
        self.salt = salt
        self.value_shape = (num_labels,)
        self._seeds = SeedTable(self._derive_seeds)

    # ------------------------------------------------------------------
    def seed_mask(self, ids: np.ndarray) -> np.ndarray:
        """True for vertices whose label is observed (clamped)."""
        return hash_ids(ids, self.salt) % np.uint64(self.seed_every) == 0

    def seed_labels(self, ids: np.ndarray) -> np.ndarray:
        """The observed label of each (seed) vertex id."""
        return (hash_ids(ids, self.salt + 1)
                % np.uint64(self.num_labels)).astype(np.int64)

    def _derive_seeds(self, ids: np.ndarray):
        return self.seed_mask(ids), self.seed_labels(ids)

    # ------------------------------------------------------------------
    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        values = np.full(
            (graph.num_vertices, self.num_labels),
            1.0 / self.num_labels,
            dtype=np.float64,
        )
        mask, labels = self._seeds.covering(graph)
        seeds = np.flatnonzero(mask[:graph.num_vertices])
        one_hot_rows(values, seeds, labels[seeds])
        return values

    def apply(self, graph, aggregate_values, vertices,
              previous_values: Optional[np.ndarray] = None) -> np.ndarray:
        normalised = normalised_rows(aggregate_values)
        mask, labels = self._seeds.covering(graph, vertices)
        rows = np.flatnonzero(mask[vertices])
        one_hot_rows(normalised, rows, labels[vertices[rows]])
        return normalised


def one_hot_rows(values: np.ndarray, rows: np.ndarray,
                 labels: np.ndarray) -> None:
    """Set each row ``rows[i]`` of ``values`` to the one-hot
    distribution of ``labels[i]``, in place."""
    values[rows] = 0.0
    values[rows, labels] = 1.0


def row_totals(values: np.ndarray) -> np.ndarray:
    """``values.sum(axis=1)`` of an ``(n, K)`` array, bit for bit: numpy
    adds fewer than eight terms left to right onto +0.0, which K column
    additions reproduce without reducing along the short axis; from
    eight on it adds in pairs, so the reduction stays."""
    if values.shape[1] >= 8:
        return values.sum(axis=1)
    totals = np.zeros(values.shape[0])
    for column in values.T:
        totals += column
    return totals


def normalised_rows(mass: np.ndarray) -> np.ndarray:
    """Each row of ``(n, K)`` label mass divided by its total, as a new
    array.  Vanishing mass carries no label information: normalising it
    would amplify float residue left behind by incremental retraction
    (e.g. a vertex whose in-edges were all deleted), so a row totalling
    at most 1e-9 (or NaN) falls back to the uniform prior ``1 / K``."""
    totals = row_totals(mass)
    vanishing = np.flatnonzero(~(totals > 1e-9))
    totals[vanishing] = 1.0
    normalised = mass / totals[:, None]
    normalised[vanishing] = 1.0 / mass.shape[1]
    return normalised
