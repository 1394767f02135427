"""Tag-propagation analysis: why naive resetting fails.

Sections 1 and 2.2 of the paper dismiss the "straightforward Z^S" --
identify the subset of values affected by a mutation by propagating
tags downstream from the mutation points, reset them, and recompute --
with the KickStarter observation that "such tagging based approach ends
up tagging majority of vertex values to be thrown out, hence limiting
reuse of values to a very small fraction of vertices".

This module quantifies that claim so the motivation experiment can be
run rather than cited: :func:`tagged_fraction` computes, for a mutation
batch, the fraction of vertices a tag-based corrector would have to
reset -- every vertex reachable from a mutated edge's endpoints within
the iteration window (a value at iteration i is value-dependent on
anything within i hops upstream; conversely a mutation at iteration 0
taints everything within k hops downstream of its endpoints by
iteration k).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.mutable import MutationResult
from repro.ligra.frontier import union_ids

__all__ = ["downstream_tagged", "tagged_fraction"]


def downstream_tagged(
    graph: CSRGraph,
    seeds: np.ndarray,
    max_hops: Optional[int] = None,
) -> np.ndarray:
    """Boolean mask of vertices within ``max_hops`` of ``seeds``
    (inclusive), following out-edges -- the set a tag-based corrector
    resets.  ``None`` means unbounded (full downstream closure)."""
    tagged = np.zeros(graph.num_vertices, dtype=bool)
    seeds = np.asarray(seeds, dtype=np.int64)
    frontier = union_ids(graph.num_vertices,
                         seeds[seeds < graph.num_vertices])
    tagged[frontier] = True
    hops = 0
    while frontier.size and (max_hops is None or hops < max_hops):
        _, dst, _ = graph.out_edges_of(frontier)
        fresh = union_ids(graph.num_vertices, dst)
        fresh = fresh[~tagged[fresh]]
        tagged[fresh] = True
        frontier = fresh
        hops += 1
    return tagged


def tagged_fraction(
    mutation: MutationResult,
    num_iterations: int,
) -> float:
    """Fraction of vertices a tag-based Z^S resets for this mutation.

    Seeds are every mutated edge's endpoints (additions and deletions
    both invalidate their targets, and sources whose contribution
    parameters changed); tags spread ``num_iterations`` hops downstream
    in the new snapshot.
    """
    graph = mutation.new_graph
    seeds = np.concatenate([
        mutation.add_dst, mutation.del_dst,
        mutation.add_src, mutation.del_src,
    ])
    if seeds.size == 0:
        return 0.0
    tagged = downstream_tagged(graph, seeds, max_hops=num_iterations)
    return float(tagged.sum()) / max(graph.num_vertices, 1)
