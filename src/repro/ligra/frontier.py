"""Vertex-id set algebra for frontiers.

A frontier is a sorted id array or, after a dense step, a boolean mask
over the vertices; whether a step from it runs sparse or dense is priced
by :func:`repro.ligra.delta.dense_preferred`, the one switch.
:func:`union_ids` and :func:`member_mask` are the one home of vertex-id
set operations for every engine: ids in ``0..num_vertices-1`` go in
(any order, duplicates allowed), sorted unique int64 ids come out --
exactly the arrays numpy's ``unique`` / ``union1d`` / ``isin`` return
-- and an id outside the universe raises instead of wrapping around a
mask.  They never hash (numpy >= 2.3 routes ``unique`` through a hash
table that costs tens of times more than the frontier it dedups): ids
are scattered into a per-call bitmap -- or, for a union whose operands
are tiny relative to the universe, sort-merged -- so the cost is
proportional to the operands plus, at worst, one pass over a
``num_vertices``-byte mask.
"""

from __future__ import annotations

import numpy as np

__all__ = ["member_mask", "union_ids"]

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
