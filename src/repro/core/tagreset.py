"""A GraphIn-style tag-and-recompute corrector (the paper's "straight-
forward Z^S", section 2.2).

GraphIn-like systems make intermediate results consistent with the
mutated graph by *tagging* the value subset that could be affected --
everything downstream of the mutation points -- and recomputing it,
reusing untagged values as boundary conditions.  This is BSP-correct
when the tag set over-approximates reachability within the iteration
window, but section 2.2 argues (and :mod:`repro.core.tagging` measures)
that the tag set is usually the majority of the graph, so the reuse is
marginal.

:class:`TagResetEngine` implements the corrector faithfully so it can
be compared head-to-head with dependency-driven refinement:

- the tag set is the downstream closure of the mutated endpoints within
  the iteration window, plus parameter-changed vertices;
- every tagged vertex is recomputed at *every* iteration by pulling its
  full in-edge set (tagged sources use recomputed values, untagged ones
  the tracked history's values);
- untagged vertices replay their recorded trajectory untouched.

It reuses GraphBolt's :class:`~repro.core.history.DependencyHistory`
for the boundary values (tag-reset needs per-iteration untagged values
just as refinement does -- the history is not optional for *any*
BSP-correct corrector, which is itself a point worth demonstrating)
and therefore requires full-horizon tracking.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.history import DependencyHistory
from repro.core.model import IncrementalAlgorithm
from repro.core.tagging import downstream_tagged
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.ligra.delta import DeltaEngine, exact_changed_rows
from repro.runtime.exec import count_vertices, gather_in, scatter
from repro.runtime.metrics import EngineMetrics, Timer

__all__ = ["TagResetEngine"]


class TagResetEngine:
    """Streaming engine correcting BSP results by tag + recompute."""

    name = "TagReset"

    def __init__(self, algorithm: IncrementalAlgorithm,
                 num_iterations: Optional[int] = None) -> None:
        self.algorithm = algorithm
        self.num_iterations = (
            algorithm.default_iterations if num_iterations is None
            else num_iterations
        )
        self.metrics = EngineMetrics()
        self._delta = DeltaEngine(algorithm, self.metrics)
        self._streaming: Optional[StreamingGraph] = None
        self._history: Optional[DependencyHistory] = None
        self._values: Optional[np.ndarray] = None
        #: Tag-set size of the last batch (for reporting).
        self.last_tagged = 0

    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        return self._streaming.graph

    @property
    def values(self) -> np.ndarray:
        return self._values

    def run(self, graph: CSRGraph) -> np.ndarray:
        """Initial run with full-horizon tracking (see module docstring)."""
        self._streaming = StreamingGraph(graph)
        state = self._delta.initial_state(graph)
        # Copies: the history's bases are read-only, the state is not.
        history = DependencyHistory(state.values.copy(),
                                    state.aggregate.copy())
        with Timer(self.metrics, "initial_run"):
            for _ in range(self.num_iterations):
                history.append(self._delta.step(graph, state,
                                                record_changes=True))
        self._history = history
        self._values = state.values
        return state.values

    # ------------------------------------------------------------------
    def apply_mutations(self, batch: MutationBatch) -> np.ndarray:
        """Tag the affected region; recompute it for every iteration."""
        if self._streaming is None:
            raise RuntimeError("call run() before applying mutations")
        with Timer(self.metrics, "adjust_structure"):
            mutation = self._streaming.apply_batch(batch)
        graph = mutation.new_graph
        algorithm = self.algorithm

        seeds = np.concatenate([
            mutation.add_src, mutation.add_dst,
            mutation.del_src, mutation.del_dst,
            algorithm.contribution_params_changed(mutation),
            algorithm.apply_params_changed(mutation),
            np.arange(mutation.old_graph.num_vertices, graph.num_vertices,
                      dtype=np.int64),
        ])
        with Timer(self.metrics, "tag"):
            tagged_mask = downstream_tagged(graph, seeds,
                                            max_hops=self.num_iterations)
        tagged = np.flatnonzero(tagged_mask)
        self.last_tagged = int(tagged.size)

        with Timer(self.metrics, "recompute"):
            values = self._recompute(graph, mutation, tagged, tagged_mask)
        self._values = values
        return values

    def _recompute(self, graph, mutation, tagged, tagged_mask):
        algorithm = self.algorithm
        initial = algorithm.initial_values(graph)
        identity = algorithm.identity_aggregate(graph.num_vertices)
        old_roll = self._history.rolling(extended_initial=initial,
                                         extended_identity=identity)
        new_history = DependencyHistory(initial, identity)

        c_prev = initial.copy()
        uses_prev = algorithm.uses_previous_value
        # One-time structural gather, reused every iteration; the per-
        # iteration edge work is charged inside the loop below.
        in_src, in_dst, in_weight = gather_in(graph, tagged, self.metrics,
                                              count=False)
        for _ in range(self.num_iterations):
            old_roll.advance()
            self.metrics.refinement_iterations += 1
            c_cur = old_roll.c.copy()
            if tagged.size:
                # Recompute every tagged vertex from its full in-edge
                # set -- the wasteful part tag-reset cannot avoid.
                self.metrics.count_edges(in_src.size)
                count_vertices(graph, tagged, self.metrics)
                aggregate = identity.copy()
                if in_src.size:
                    contribs = algorithm.contributions(
                        graph, c_prev[in_src], in_src, in_dst, in_weight
                    )
                    scatter(graph, algorithm.aggregation, aggregate,
                            in_dst, contribs, self.metrics)
                previous = c_prev[tagged] if uses_prev else None
                c_cur[tagged] = algorithm.apply(
                    graph, aggregate[tagged], tagged, previous
                )
            changed = np.flatnonzero(exact_changed_rows(c_prev, c_cur))
            new_history.record(changed, identity[changed],  # g untracked
                               changed, c_cur[changed])
            c_prev = c_cur

        # Tag-reset keeps only vertex values across batches: the next
        # batch's recomputation pulls, never reads g, so the value
        # records are the whole history it needs (re-tagging from
        # scratch, as GraphIn's fixed-size-batch model does).
        self._history = new_history
        return c_prev

    def __repr__(self) -> str:
        return (
            f"TagResetEngine(algorithm={self.algorithm.name}, "
            f"last_tagged={self.last_tagged})"
        )
