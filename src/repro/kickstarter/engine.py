"""The KickStarter trim-and-propagate engine.

Processes monotonically-converging path algorithms (SSSP, BFS,
min-label components) over a streaming graph:

- **Initial run / additions**: frontier-based relaxation.  An improved
  vertex records which in-neighbour improved it (its dependency parent)
  and pushes candidates to its out-neighbours.
- **Deletions**: a deleted edge (u, v) only endangers v if (u, v) is
  v's dependency edge.  The engine *tags* the dependency subtree below
  every endangered target, *trims* each tagged vertex to a safe
  approximation -- the best candidate offered by untagged in-neighbours,
  whose values rest on still-existing paths and are therefore valid
  upper bounds -- and then re-propagates to the exact fixpoint.

Tags touch only true dependents (not every downstream vertex), which is
the KickStarter insight that naive tag-propagation forfeits: tagging
all reachable vertices would reset most of the graph (paper section 1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.mutable import MutationResult, StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.kickstarter.trees import NO_PARENT, DependencyTree, segmented_argmin
from repro.ligra.frontier import union_ids
from repro.obs import trace
from repro.obs.registry import get_registry
from repro.runtime.exec import gather_in, gather_out
from repro.runtime.metrics import EngineMetrics, Timer

__all__ = ["KickStarterEngine"]


class KickStarterEngine:
    """Incremental monotonic path computation with dependency trees."""

    name = "KickStarter"

    def __init__(self, graph: CSRGraph, source: int = 0,
                 unit_weights: bool = False,
                 metrics: Optional[EngineMetrics] = None) -> None:
        """``unit_weights`` computes BFS hop counts instead of weighted
        shortest paths."""
        if not 0 <= source < graph.num_vertices:
            raise ValueError("source must be a vertex of the graph")
        self.source = source
        self.unit_weights = unit_weights
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self._streaming = StreamingGraph(graph)
        self.tree = DependencyTree(graph.num_vertices)
        self.batches_applied = 0
        with trace.span("initial_run", engine=self.name,
                        vertices=graph.num_vertices), \
                Timer(self.metrics, "initial_run"):
            self.tree.values[source] = 0.0
            self._propagate(graph, np.array([source], dtype=np.int64))

    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        return self._streaming.graph

    @property
    def values(self) -> np.ndarray:
        """Current shortest distances (inf for unreachable)."""
        return self.tree.values

    def _edge_lengths(self, weight: np.ndarray) -> np.ndarray:
        return np.ones_like(weight) if self.unit_weights else weight

    # ------------------------------------------------------------------
    # Relaxation
    # ------------------------------------------------------------------
    def _propagate(self, graph: CSRGraph, frontier: np.ndarray) -> None:
        """Push-relax from ``frontier`` until fixpoint, updating the
        dependency tree for every improved vertex."""
        values, parents = self.tree.values, self.tree.parents
        while frontier.size:
            src, dst, weight = gather_out(graph, frontier, self.metrics)
            if not src.size:
                break
            candidates = values[src] + self._edge_lengths(weight)
            better = candidates < values[dst]
            src, dst, candidates = src[better], dst[better], candidates[better]
            if not src.size:
                break
            # Several improvements may target one vertex: keep the best
            # (segmented argmin over destination-sorted candidates).
            order = np.argsort(dst, kind="stable")
            segments, winners = segmented_argmin(candidates[order], dst[order])
            win_src = src[order][winners]
            win_val = candidates[order][winners]
            improved = win_val < values[segments]
            segments = segments[improved]
            values[segments] = win_val[improved]
            parents[segments] = win_src[improved]
            frontier = segments

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------
    def apply_mutations(self, batch: MutationBatch) -> np.ndarray:
        """Apply one batch and restore exact values incrementally."""
        with trace.span("batch", engine=self.name,
                        index=self.batches_applied,
                        mutations=len(batch)):
            self.batches_applied += 1
            with trace.span("adjust_structure") as span, \
                    Timer(self.metrics, "adjust_structure"):
                mutation = self._streaming.apply_batch(batch)
                span.tag(deferred=mutation.new_graph.in_deferred)
            graph = mutation.new_graph
            self.tree.grow_to(graph.num_vertices)
            with trace.span("trim") as span, Timer(self.metrics, "trim"):
                trimmed = self._trim_deletions(graph, mutation)
                span.tag(trimmed=int(trimmed.size))
            get_registry().gauge("kickstarter.trimmed_vertices").set(
                int(trimmed.size)
            )
            with trace.span("propagate"), Timer(self.metrics, "propagate"):
                seeds = self._relax_additions(graph, mutation)
                frontier = union_ids(graph.num_vertices, trimmed, seeds)
                self._propagate(graph, frontier)
        return self.values

    def _trim_deletions(self, graph: CSRGraph,
                        mutation: MutationResult) -> np.ndarray:
        """Tag dependents of deleted dependency edges and trim them to
        safe approximations; returns the tagged set (re-propagation
        frontier)."""
        if not mutation.del_src.size:
            return np.empty(0, dtype=np.int64)
        values, parents = self.tree.values, self.tree.parents
        endangered = mutation.del_dst[
            parents[mutation.del_dst] == mutation.del_src
        ]
        if not endangered.size:
            return np.empty(0, dtype=np.int64)
        tagged = self.tree.subtree_of(graph, endangered)
        tagged_mask = np.zeros(graph.num_vertices, dtype=bool)
        tagged_mask[tagged] = True

        # Trimmed approximation: best offer from untagged in-neighbours
        # over the *mutated* structure.  Untagged values sit on intact
        # dependency paths, so the result is a valid upper bound.
        values[tagged] = np.inf
        parents[tagged] = NO_PARENT
        in_src, in_dst, in_weight = gather_in(graph, tagged, self.metrics)
        safe = ~tagged_mask[in_src]
        in_src, in_dst = in_src[safe], in_dst[safe]
        candidates = values[in_src] + self._edge_lengths(in_weight[safe])
        finite = np.isfinite(candidates)
        in_src, in_dst, candidates = (
            in_src[finite], in_dst[finite], candidates[finite],
        )
        if in_src.size:
            segments, winners = segmented_argmin(candidates, in_dst)
            values[segments] = candidates[winners]
            parents[segments] = in_src[winners]
        if self.source < graph.num_vertices:
            # The source is axiomatically safe even if tagged via a cycle.
            values[self.source] = 0.0
            parents[self.source] = NO_PARENT
        return tagged

    def _relax_additions(self, graph: CSRGraph,
                         mutation: MutationResult) -> np.ndarray:
        """Directly relax added edges; returns improved targets."""
        if not mutation.add_src.size:
            return np.empty(0, dtype=np.int64)
        values, parents = self.tree.values, self.tree.parents
        self.metrics.count_edges(mutation.add_src.size)
        candidates = values[mutation.add_src] + self._edge_lengths(
            mutation.add_weight
        )
        better = candidates < values[mutation.add_dst]
        src = mutation.add_src[better]
        dst = mutation.add_dst[better]
        candidates = candidates[better]
        if not src.size:
            return np.empty(0, dtype=np.int64)
        order = np.argsort(dst, kind="stable")
        segments, winners = segmented_argmin(candidates[order], dst[order])
        values[segments] = candidates[order][winners]
        parents[segments] = src[order][winners]
        return segments
