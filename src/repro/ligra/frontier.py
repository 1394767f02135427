"""Vertex subsets with sparse/dense duality, and their id algebra.

Ligra represents the active frontier either as a sparse id array or as a
dense boolean mask, switching representation by frontier size so that
both tiny frontiers (sparse gathers) and huge ones (dense sweeps) are
cheap.  :class:`VertexSubset` reproduces that duality; the engines ask
:meth:`is_dense_preferred` with the current graph to pick push (sparse)
versus recompute-all (dense) execution, mirroring Ligra's push/pull
threshold of |out-edges(frontier)| > |E| / 20.

The same duality serves the set algebra.  :func:`union_ids` and
:func:`member_mask` are the one home of vertex-id set operations for
every engine: ids in ``0..num_vertices-1`` go in (any order, duplicates
allowed), sorted unique int64 ids come out -- exactly the arrays
numpy's ``unique`` / ``union1d`` / ``isin`` return -- and an id outside
the universe raises instead of wrapping around a mask.  They never hash
(numpy >= 2.3 routes ``unique`` through a hash table that costs tens of
times more than the frontier it dedups): ids are scattered into a
per-call bitmap -- or, for a union whose operands are tiny relative to
the universe, sort-merged -- so the cost is proportional to the
operands plus, at worst, one pass over a ``num_vertices``-byte mask.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["VertexSubset", "member_mask", "union_ids"]

#: Ligra's classic threshold numerator/denominator for dense mode.
DENSE_THRESHOLD_FRACTION = 1.0 / 20.0

#: Operands holding fewer than ``num_vertices / SORT_MERGE_RATIO`` ids
#: in total are sort-merged; a bitmap pass over the universe would cost
#: more than sorting them (measured crossover: 1 k ids at 2^16 vertices,
#: 4-16 k at 2^20).
SORT_MERGE_RATIO = 64


def _checked_ids(num_vertices: int, ids) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    # Viewed as unsigned a negative id is huge: one pass checks both ends.
    if ids.size and ids.view(np.uint64).max() >= num_vertices:
        raise ValueError("vertex ids out of range")
    return ids


def _bitmap(num_vertices: int, ids: np.ndarray) -> np.ndarray:
    mask = np.zeros(num_vertices, dtype=bool)
    mask[ids] = True
    return mask


def union_ids(num_vertices: int, *arrays) -> np.ndarray:
    """Sorted unique int64 union of id arrays over ``0..num_vertices-1``.

    With one operand this is numpy's ``unique`` (e.g. of an edge
    gather's targets), with two its ``union1d``; a new array is always
    returned.
    """
    ids = _checked_ids(
        num_vertices,
        arrays[0] if len(arrays) == 1 else np.concatenate(
            [np.asarray(array, dtype=np.int64) for array in arrays]
        ),
    )
    if not ids.size:
        return np.empty(0, dtype=np.int64)
    if ids.size * SORT_MERGE_RATIO >= num_vertices:
        return np.flatnonzero(_bitmap(num_vertices, ids))
    # Stable: operands are mostly sorted runs, which a merge exploits.
    ids = np.sort(ids, kind="stable")
    first = np.empty(ids.size, dtype=bool)
    first[0] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    return ids[first]


def member_mask(num_vertices: int, ids, members) -> np.ndarray:
    """Which of ``ids`` are in ``members`` (numpy's ``isin``), both id
    arrays over ``0..num_vertices-1``."""
    ids = _checked_ids(num_vertices, ids)
    return _bitmap(num_vertices, _checked_ids(num_vertices, members))[ids]


class VertexSubset:
    """A set of vertex ids over a fixed universe ``0..num_vertices-1``."""

    def __init__(self, num_vertices: int,
                 ids: Optional[np.ndarray] = None,
                 mask: Optional[np.ndarray] = None) -> None:
        if (ids is None) == (mask is None):
            raise ValueError("provide exactly one of ids or mask")
        self.num_vertices = int(num_vertices)
        self._ids = (
            None if ids is None else union_ids(self.num_vertices, ids)
        )
        self._mask = None if mask is None else np.asarray(mask, dtype=bool)
        if self._mask is not None and self._mask.size != num_vertices:
            raise ValueError("mask size must equal the vertex count")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, num_vertices: int) -> "VertexSubset":
        return cls(num_vertices, ids=np.empty(0, dtype=np.int64))

    @classmethod
    def full(cls, num_vertices: int) -> "VertexSubset":
        return cls(num_vertices, mask=np.ones(num_vertices, dtype=bool))

    @classmethod
    def from_ids(cls, num_vertices: int, ids) -> "VertexSubset":
        return cls(num_vertices, ids=np.asarray(ids, dtype=np.int64))

    @classmethod
    def from_sorted_ids(cls, num_vertices: int, ids) -> "VertexSubset":
        """Trusted constructor: ``ids`` must already be sorted unique.

        Skips the O(n log n) normalisation -- the engines' frontiers are
        derived from sorted-unique touched sets, so re-sorting them every
        iteration is pure overhead.
        """
        subset = cls.__new__(cls)
        subset.num_vertices = int(num_vertices)
        subset._ids = np.asarray(ids, dtype=np.int64)
        subset._mask = None
        return subset

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def ids(self) -> np.ndarray:
        """Sorted unique member ids (materialises from a mask if needed)."""
        if self._ids is None:
            self._ids = np.flatnonzero(self._mask)
        return self._ids

    @property
    def mask(self) -> np.ndarray:
        if self._mask is None:
            self._mask = np.zeros(self.num_vertices, dtype=bool)
            self._mask[self._ids] = True
        return self._mask

    def __len__(self) -> int:
        if self._ids is not None:
            return int(self._ids.size)
        return int(self._mask.sum())

    def __bool__(self) -> bool:
        return len(self) > 0

    def __contains__(self, vertex: int) -> bool:
        return bool(self.mask[vertex])

    # ------------------------------------------------------------------
    # Representation choice
    # ------------------------------------------------------------------
    def out_edge_count(self, graph: CSRGraph) -> int:
        ids = self.ids
        if not ids.size:
            return 0
        return int(graph.out_degrees()[ids].sum())

    def is_dense_preferred(self, graph: CSRGraph) -> bool:
        """Ligra's density heuristic: go dense when the frontier's
        out-edges exceed a fixed fraction of all edges."""
        if graph.num_edges == 0:
            return False
        return (
            self.out_edge_count(graph)
            > graph.num_edges * DENSE_THRESHOLD_FRACTION
        )

    def __repr__(self) -> str:
        return f"VertexSubset({len(self)}/{self.num_vertices})"
