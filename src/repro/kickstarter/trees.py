"""Value dependency trees.

KickStarter records, for every vertex, the in-neighbour whose
contribution currently determines its value -- the *dependency parent*.
The parents form a forest rooted at seed vertices (the SSSP source).
When an edge is deleted, only vertices whose value transitively depends
on it (the parent-subtree below the deletion target) can be unsafe;
everything else keeps its value, which is the source of KickStarter's
O(V) tracking advantage over per-iteration histories.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.ligra.frontier import union_ids

__all__ = ["DependencyTree", "segmented_argmin"]

NO_PARENT = -1


def segmented_argmin(values: np.ndarray,
                     segment_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment argmin for segment-sorted data.

    ``segment_ids`` must be non-decreasing.  Returns ``(segments, idx)``
    where ``idx[i]`` is the global index of the minimum element of
    segment ``segments[i]`` (ties broken by position).
    """
    if values.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.lexsort((np.arange(values.size), values, segment_ids))
    seg_sorted = segment_ids[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = seg_sorted[1:] != seg_sorted[:-1]
    return seg_sorted[first], order[first]


class DependencyTree:
    """Parent pointers + values of a monotonic computation."""

    def __init__(self, num_vertices: int) -> None:
        self.values = np.full(num_vertices, np.inf, dtype=np.float64)
        self.parents = np.full(num_vertices, NO_PARENT, dtype=np.int64)

    @property
    def num_vertices(self) -> int:
        return int(self.values.size)

    def grow_to(self, num_vertices: int) -> None:
        if num_vertices <= self.num_vertices:
            return
        values = np.full(num_vertices, np.inf, dtype=np.float64)
        parents = np.full(num_vertices, NO_PARENT, dtype=np.int64)
        values[: self.num_vertices] = self.values
        parents[: self.num_vertices] = self.parents
        self.values, self.parents = values, parents

    # ------------------------------------------------------------------
    def children_of(self, graph: CSRGraph, vertices: np.ndarray) -> np.ndarray:
        """Dependency children of ``vertices``: out-neighbours whose
        parent pointer names the corresponding source."""
        if vertices.size == 0:
            return vertices
        src, dst, _ = graph.out_edges_of(vertices)
        return union_ids(self.num_vertices, dst[self.parents[dst] == src])

    def subtree_of(self, graph: CSRGraph, roots: np.ndarray) -> np.ndarray:
        """All vertices in the dependency subtrees rooted at ``roots``
        (inclusive), found by level-order traversal."""
        tagged = np.zeros(self.num_vertices, dtype=bool)
        frontier = union_ids(self.num_vertices, roots)
        frontier = frontier[~tagged[frontier]]
        tagged[frontier] = True
        while frontier.size:
            children = self.children_of(graph, frontier)
            children = children[~tagged[children]]
            tagged[children] = True
            frontier = children
        return np.flatnonzero(tagged)
