"""Dependency-driven value refinement (paper section 3.3).

Given a mutation ``E_a``/``E_d`` and the tracked aggregation-value
history of the pre-mutation run, refinement transforms the tracked
values iteration by iteration so they become exactly what a from-scratch
synchronous run on the mutated graph would have produced:

1. **What to refine** -- at each iteration the vertices refined are (a)
   the endpoints of mutated edges (direct impact) and (b) the
   out-neighbours of vertices whose value or contribution function
   changed in the previous iteration (transitive impact).  The structure
   of dependencies is read straight off the mutated graph, never stored.

2. **How to refine** -- decomposable aggregations start from the old
   aggregate and splice in the three incremental operators: ⊎ adds the
   contributions of added edges, ⋃– retracts contributions of deleted
   edges (evaluated with *old* values against the *old* snapshot, which
   is how old contributions are "reproduced on the fly"), and ⋃△ swaps
   old for new contributions along retained edges whose source changed.
   Newly-added edges are excluded from the ⋃△ pass -- they have no old
   contribution -- via the mutation's added-edge slot mask.
   Non-decomposable aggregations (min/max) are instead re-evaluated by
   pulling the full updated input set from incoming neighbours.

The refined run's history is re-recorded as it is produced, so the next
mutation batch refines against it; the function returns the rolling
:class:`~repro.ligra.delta.DeltaState` at the tracked horizon, from
which hybrid execution continues forward.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.core.history import (
    DependencyHistory,
    IterationRecord,
    record_half,
)
from repro.core.model import IncrementalAlgorithm
from repro.graph.mutable import MutationResult
from repro.ligra.delta import DeltaState, exact_changed_rows
from repro.ligra.frontier import union_ids
from repro.obs import trace
from repro.runtime import exec as kernels
from repro.runtime.metrics import EngineMetrics, Timer

__all__ = ["refine"]


#: ns per edge of one whole refinement iteration, ``(at width 1, per
#: further component)`` of an aggregation value: sparse per *affected*
#: edge (the batch's plus every changed source's out-edges) by how the
#: aggregate is spliced, dense per graph edge by the sweep
#: (:func:`repro.runtime.exec.sweeps_as_product`), both timed at the
#: iteration the switch decides; lines through the rows below (splice:
#: PageRank, LP; product: CoEM, LP; generic: PageRank, CF) of
#: ``benchmarks/test_bench_micro.py::test_micro_refine_switch_costs``
#: (RMAT scale 15, pinned to one core, median of three runs):
#:
#:   PageRank  splice/generic   width  1  at 0.33 E  sparse  35.8  dense  11.3
#:   LP K=5    splice/product   width  5  at 0.29 E  sparse 162.4  dense  22.0
#:   CoEM      splice/product   width  1  at 0.29 E  sparse  38.7  dense   8.4
#:   SSSP      reevaluate/gen.  width  1  at 0.01 E  sparse 868.1  dense   7.3
#:   CF K=3    splice/generic   width 12  at 0.32 E  sparse 401.5  dense 225.8
#:
#: Sparse loses past LP 0.14 E, CoEM 0.23, PageRank 0.32, CF 0.59, SSSP
#: 0.01.  No min/max algorithm is vector-valued: no width term there.
SPARSE_NS_PER_EDGE = {"splice": (35.8, 31.7), "reevaluate": (868.1, 0.0)}
DENSE_NS_PER_EDGE = {"product": (8.4, 3.4), "generic": (11.3, 19.5)}


def refine(
    algorithm: IncrementalAlgorithm,
    mutation: MutationResult,
    history: DependencyHistory,
    metrics: EngineMetrics,
    mode: str = "delta",
) -> Tuple[DeltaState, DependencyHistory]:
    """Refine tracked values for one mutation; see module docstring.

    Returns ``(state, new_history)``: the dense rolling state of the
    refined run at the tracked horizon (ready for hybrid forward
    execution) and the refined run's own dependency history.
    """
    with trace.span("refine", horizon=history.horizon,
                    additions=int(mutation.add_src.size),
                    deletions=int(mutation.del_src.size)), \
            Timer(metrics, "refine"):
        return _Refiner(algorithm, mutation, history, metrics, mode).run()


class _Refiner:
    def __init__(self, algorithm, mutation, history, metrics, mode):
        self.algorithm = algorithm
        self.mutation = mutation
        self.history = history
        self.metrics = metrics
        self.mode = mode
        self.new_graph = mutation.new_graph
        self.old_graph = mutation.old_graph
        num_vertices = self.new_graph.num_vertices

        # Initial values are a function of the vertex id alone: the old
        # run's bases serve unless the graph grew, and then replay it
        # unchanged over the extended id space.  Neither is written to.
        if history.num_vertices == num_vertices:
            self.initial = history.initial_values
            self.identity = history.identity_aggregate
        else:
            self.initial = algorithm.initial_values(self.new_graph)
            self.identity = algorithm.identity_aggregate(num_vertices)
        self.old_roll = history.rolling(
            extended_initial=self.initial, extended_identity=self.identity
        )

        # Vertices whose contribution function changed (e.g. PageRank
        # out-degree); constant across iterations.
        self.contrib_params = algorithm.contribution_params_changed(mutation)
        # Vertices whose apply step changed, plus brand-new vertices: the
        # extended old run never applied them, so every refined iteration
        # must (their correct value may differ from the initial fill).
        new_ids = np.arange(mutation.old_graph.num_vertices, num_vertices,
                            dtype=np.int64)
        self.apply_params = union_ids(
            num_vertices, algorithm.apply_params_changed(mutation), new_ids,
        )

        further = math.prod(algorithm.aggregation_shape) - 1
        first, per = SPARSE_NS_PER_EDGE[
            "splice" if algorithm.aggregation.decomposable else "reevaluate"]
        self.sparse_ns = first + per * further
        first, per = DENSE_NS_PER_EDGE[
            "product" if kernels.sweeps_as_product(algorithm) else "generic"]
        self.dense_ns = first + per * further

    # ------------------------------------------------------------------
    def run(self) -> Tuple[DeltaState, DependencyHistory]:
        algorithm = self.algorithm
        num_vertices = self.new_graph.num_vertices
        new_history = DependencyHistory(self.initial, self.identity)

        # c^T_{i-1}, c^T_i and g^T_i of the refined run.  Every iteration
        # builds new arrays, so the bases are only read.
        c_prev = c_cur = self.initial
        g_cur = self.identity
        # Vertices where the refined run's value differs from the old
        # run's at the latest completed iteration (transitive impact):
        # ids after a sparse iteration, a mask after a dense one.
        diverged = np.empty(0, dtype=np.int64)

        # A dense apply's id argument (never used to gather).
        all_vertices = np.arange(num_vertices, dtype=np.int64)

        for index in range(self.history.horizon):
            with trace.span("iteration", index=index + 1) as span:
                self.old_roll.advance()
                self.metrics.refinement_iterations += 1

                g_before = g_cur               # g^T_{i-1}
                c_before = c_cur               # c^T_{i-1}
                sources = self._sources(diverged)
                dense = self._dense_preferred(sources)
                if not dense and sources.dtype == bool:
                    sources = np.flatnonzero(sources)  # ids to go sparse
                if dense:
                    span.tag(mode="dense")
                    self.metrics.dense_refinement_iterations += 1
                    g_cur, touched_candidates = self._refine_dense(c_before)
                elif algorithm.aggregation.decomposable:
                    span.tag(mode="decomposable")
                    g_cur, touched_candidates = self._refine_decomposable(
                        sources, c_before
                    )
                else:
                    span.tag(mode="reevaluate")
                    g_cur, touched_candidates = self._refine_by_reevaluation(
                        sources, c_before
                    )

                if touched_candidates is None:
                    # Every vertex re-applies: whole arrays, no gathers.
                    num_touched = num_vertices
                    kernels.count_all_vertices(self.new_graph,
                                               self.metrics)
                    c_new = np.asarray(algorithm.apply(
                        self.new_graph, g_cur, all_vertices,
                        c_before if algorithm.uses_previous_value else None,
                    ), dtype=np.float64)
                    if (np.may_share_memory(c_new, g_cur)
                            or np.may_share_memory(c_new, c_before)):
                        # An apply that hands back one of its inputs.
                        c_new = c_new.copy()
                    diverged = np.asarray(algorithm.values_changed(
                        self.old_roll.c, c_new), dtype=bool)
                    num_diverged = int(np.count_nonzero(diverged))
                else:
                    # Self-dependent applies (e.g. SSSP's self-min) must
                    # also re-run wherever the vertex's own value
                    # diverged.
                    if diverged.dtype == bool:
                        diverged = np.flatnonzero(diverged)
                    touched = union_ids(
                        num_vertices, touched_candidates, self.apply_params,
                        *([diverged] if algorithm.uses_previous_value
                          else []),
                    )
                    num_touched = int(touched.size)
                    c_new = self.old_roll.c.copy()
                    if touched.size:
                        kernels.count_vertices(self.new_graph, touched,
                                               self.metrics)
                        previous = (
                            c_before[touched]
                            if algorithm.uses_previous_value else None
                        )
                        c_new[touched] = algorithm.apply(
                            self.new_graph, g_cur[touched], touched, previous
                        )
                        moved = algorithm.values_changed(
                            self.old_roll.c[touched], c_new[touched]
                        )
                        diverged = touched[moved]
                    else:
                        diverged = np.empty(0, dtype=np.int64)
                    num_diverged = int(diverged.size)

                record = self._record(new_history, g_before, g_cur,
                                      c_before, c_new)
                span.tag(touched=num_touched, diverged=num_diverged,
                         **record.forms)
                c_prev = c_before
                c_cur = c_new

        state = DeltaState(
            values=c_cur,
            prev_values=c_prev,
            aggregate=g_cur,
            frontier=np.flatnonzero(algorithm.values_changed(c_prev, c_cur)),
            iteration=self.history.horizon,
        )
        return state, new_history

    # ------------------------------------------------------------------
    def _sources(self, diverged):
        """The next iteration's changed sources -- ``diverged`` plus the
        vertices whose contribution function changed -- in the form
        ``diverged`` has: sorted ids after a sparse iteration, a mask
        after a dense one, so dense runs never build id arrays."""
        if diverged.dtype != bool:
            return union_ids(self.new_graph.num_vertices, diverged,
                             self.contrib_params)
        if not self.contrib_params.size:
            return diverged
        mask = diverged.copy()
        mask[self.contrib_params] = True
        return mask

    def _dense_preferred(self, sources) -> bool:
        """Ligra's push/pull switch on the frontier's out-degree sum,
        priced by measured costs (SPARSE_NS_PER_EDGE)."""
        num_edges = self.new_graph.num_edges
        empty = (not sources.any() if sources.dtype == bool
                 else not sources.size)
        if num_edges == 0 or empty:
            return False
        return (self._affected_edges(sources) * self.sparse_ns
                > num_edges * self.dense_ns)

    def _affected_edges(self, sources) -> int:
        """The batch's edges plus every out-edge of ``sources`` (ids, or
        a mask: one product, no ids)."""
        degrees = self.new_graph.out_degrees()
        edges = (degrees @ sources if sources.dtype == bool
                 else degrees[sources].sum())
        return (int(edges) + self.mutation.add_src.size
                + self.mutation.del_src.size)

    def _refine_dense(self, c_prev):
        """Dense-mode refinement: rebuild g^T_i outright from c^T_{i-1}.

        Mathematically identical to splicing every incremental operator,
        but a single vectorised sweep; returns ``None`` candidates to
        signal that every vertex must be re-applied.
        """
        return kernels.aggregate_all(self.new_graph, self.algorithm,
                                     c_prev, self.metrics), None

    def _refine_decomposable(self, sources, c_prev):
        """Start from the old aggregate and splice ⊎ / ⋃– / ⋃△ updates."""
        algorithm = self.algorithm
        agg = algorithm.aggregation
        mutation = self.mutation
        g_new = self.old_roll.g.copy()

        # ⊎ : contributions arriving over added edges, from refined values.
        if mutation.add_src.size:
            self.metrics.count_edges(mutation.add_src.size)
            contribs = algorithm.contributions(
                self.new_graph,
                c_prev[mutation.add_src],
                mutation.add_src, mutation.add_dst, mutation.add_weight,
            )
            kernels.scatter(self.new_graph, agg, g_new,
                            mutation.add_dst, contribs, self.metrics)

        # ⋃– : old contributions leaving over deleted edges, reproduced
        # on the fly from the old run's values and the old snapshot.
        # Destinations live in the new snapshot's vertex space, so the
        # retract is sharded against the new graph's partition.
        if mutation.del_src.size:
            self.metrics.count_edges(mutation.del_src.size)
            contribs = algorithm.contributions(
                self.old_graph,
                self.old_roll.c_prev[mutation.del_src],
                mutation.del_src, mutation.del_dst, mutation.del_weight,
            )
            kernels.scatter_retract(self.new_graph, agg, g_new,
                                    mutation.del_dst, contribs,
                                    self.metrics)

        # ⋃△ : retained out-edges of changed sources swap old for new.
        dsts = np.empty(0, dtype=np.int64)
        if sources.size:
            src_rep, slots = self.new_graph.out_edge_slots(sources)
            retained = ~mutation.added_edge_mask()[slots]
            src_rep, slots = src_rep[retained], slots[retained]
            if src_rep.size:
                dsts = self.new_graph.out_targets[slots]
                weights = self.new_graph.out_weights[slots]
                self.metrics.count_edges(src_rep.size)
                old_contribs = algorithm.contributions(
                    self.old_graph, self.old_roll.c_prev[src_rep],
                    src_rep, dsts, weights,
                )
                new_contribs = algorithm.contributions(
                    self.new_graph, c_prev[src_rep], src_rep, dsts, weights,
                )
                if self.mode == "delta":
                    kernels.scatter_delta(
                        self.new_graph, agg, g_new, dsts,
                        new_contribs, old_contribs, self.metrics,
                    )
                else:
                    kernels.scatter_retract(
                        self.new_graph, agg, g_new, dsts, old_contribs,
                        self.metrics,
                    )
                    self.metrics.count_edges(src_rep.size)
                    kernels.scatter(self.new_graph, agg, g_new, dsts,
                                    new_contribs, self.metrics)

        touched = union_ids(self.new_graph.num_vertices,
                            mutation.add_dst, mutation.del_dst, dsts)
        return g_new, touched

    def _refine_by_reevaluation(self, sources, c_prev):
        """Non-decomposable path: pull full input sets for affected
        targets from the mutated graph (section 3.3 re-evaluation)."""
        algorithm = self.algorithm
        mutation = self.mutation
        g_new = self.old_roll.g.copy()

        dsts = np.empty(0, dtype=np.int64)
        if sources.size:
            _, dsts, _ = self.new_graph.out_edges_of(sources)
        touched = union_ids(self.new_graph.num_vertices,
                            mutation.add_dst, mutation.del_dst, dsts)
        if touched.size:
            g_new[touched] = algorithm.aggregation.identity_value()
            in_src, in_dst, in_weight = kernels.gather_in(
                self.new_graph, touched, self.metrics
            )
            if in_src.size:
                contribs = algorithm.contributions(
                    self.new_graph, c_prev[in_src], in_src, in_dst, in_weight
                )
                kernels.scatter(self.new_graph, algorithm.aggregation,
                                g_new, in_dst, contribs, self.metrics)
        return g_new, touched

    # ------------------------------------------------------------------
    def _record(self, new_history, g_prev, g_cur, c_prev, c_cur):
        # Vertical pruning: the rows this iteration changed, or the whole
        # array when that is no more bytes (held, never gathered).
        record = IterationRecord(
            *record_half(g_cur, exact_changed_rows(g_prev, g_cur), None),
            *record_half(c_cur, exact_changed_rows(c_prev, c_cur), None))
        new_history.append(record)
        return record
