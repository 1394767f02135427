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

from typing import Tuple

import numpy as np

from repro.core.history import DependencyHistory, IterationRecord
from repro.core.model import IncrementalAlgorithm
from repro.core.pruning import PruningPolicy
from repro.graph.mutable import MutationResult
from repro.ligra.delta import DeltaState, exact_changed_rows
from repro.ligra.frontier import union_ids
from repro.obs import trace
from repro.runtime import exec as kernels
from repro.runtime.metrics import EngineMetrics, Timer

__all__ = ["refine"]


#: When the transitive pass would visit more than this fraction of all
#: edges, the iteration is refined in *dense mode*: the aggregation is
#: rebuilt outright from the refined previous values, one vectorised
#: sweep over every edge.  The sparse path evaluates two contributions
#: per edge (old to retract, new to propagate) plus set bookkeeping, so
#: it only pays off while the affected region is genuinely small --
#: this is the refinement-side analogue of Ligra's push/pull duality
#: and of the paper's computation-aware execution switching.
DENSE_REFINE_FRACTION = 0.3


def refine(
    algorithm: IncrementalAlgorithm,
    mutation: MutationResult,
    history: DependencyHistory,
    metrics: EngineMetrics,
    pruning: PruningPolicy,
    mode: str = "delta",
    dense_fraction: float = DENSE_REFINE_FRACTION,
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
        return _Refiner(algorithm, mutation, history, metrics,
                        pruning, mode, dense_fraction).run()


class _Refiner:
    def __init__(self, algorithm, mutation, history, metrics, pruning, mode,
                 dense_fraction=DENSE_REFINE_FRACTION):
        self.algorithm = algorithm
        self.mutation = mutation
        self.history = history
        self.metrics = metrics
        self.pruning = pruning
        self.mode = mode
        self.dense_fraction = dense_fraction
        self.new_graph = mutation.new_graph
        self.old_graph = mutation.old_graph

        # Extended bases: initial values are deterministic per vertex id,
        # so the old run replays unchanged over the grown id space.
        self.initial = algorithm.initial_values(self.new_graph)
        self.identity = algorithm.identity_aggregate(self.new_graph.num_vertices)
        self.old_roll = history.rolling(
            extended_initial=self.initial, extended_identity=self.identity
        )

        # Vertices whose contribution function changed (e.g. PageRank
        # out-degree); constant across iterations.
        self.contrib_params = algorithm.contribution_params_changed(mutation)
        # Vertices whose apply step changed, plus brand-new vertices: the
        # extended old run never applied them, so every refined iteration
        # must (their correct value may differ from the initial fill).
        new_ids = np.arange(
            mutation.old_graph.num_vertices,
            self.new_graph.num_vertices,
            dtype=np.int64,
        )
        self.apply_params = union_ids(
            self.new_graph.num_vertices,
            algorithm.apply_params_changed(mutation), new_ids,
        )
        self.added_mask = mutation.added_edge_mask()

    # ------------------------------------------------------------------
    def run(self) -> Tuple[DeltaState, DependencyHistory]:
        algorithm = self.algorithm
        num_vertices = self.new_graph.num_vertices
        new_history = DependencyHistory(self.initial, self.identity)

        c_prev = self.initial.copy()       # c^T_{i-1} of the refined run
        c_cur = self.initial.copy()        # c^T_i (latest completed)
        g_cur = self.identity.copy()       # g^T_i
        # Vertices where the refined run's value differs from the old
        # run's at the latest completed iteration (transitive impact).
        diverged = np.empty(0, dtype=np.int64)

        # A dense apply's id argument (never used to gather).
        all_vertices = np.arange(num_vertices, dtype=np.int64)

        for index in range(self.history.horizon):
            with trace.span("iteration", index=index + 1) as span:
                self.old_roll.advance()
                self.metrics.refinement_iterations += 1

                g_before = g_cur               # g^T_{i-1}
                c_before = c_cur               # c^T_{i-1}
                sources = union_ids(num_vertices, diverged,
                                    self.contrib_params)
                if self._dense_preferred(sources):
                    span.tag(mode="dense")
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
                    diverged = np.flatnonzero(
                        algorithm.values_changed(self.old_roll.c, c_new)
                    )
                else:
                    # Self-dependent applies (e.g. SSSP's self-min) must
                    # also re-run wherever the vertex's own value
                    # diverged.
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
                span.tag(touched=num_touched, diverged=int(diverged.size))

                self._record(new_history, g_before, g_cur, c_before, c_new,
                             num_vertices)
                c_prev = c_before
                c_cur = c_new

        frontier = _tolerant_changed(algorithm, c_prev, c_cur)
        state = DeltaState(
            values=c_cur,
            prev_values=c_prev,
            aggregate=g_cur,
            frontier=frontier,
            iteration=self.history.horizon,
        )
        return state, new_history

    # ------------------------------------------------------------------
    def _dense_preferred(self, sources) -> bool:
        """Switch to a full rebuild when the sparse transitive pass would
        cost more than a dense sweep (see DENSE_REFINE_FRACTION)."""
        num_edges = self.new_graph.num_edges
        if num_edges == 0 or not sources.size:
            return False
        out_degrees = self.new_graph.out_degrees()
        transitive = int(out_degrees[sources].sum())
        affected = (
            transitive + self.mutation.add_src.size
            + self.mutation.del_src.size
        )
        return affected > num_edges * self.dense_fraction

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
            retained = ~self.added_mask[slots]
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
    def _record(self, new_history, g_prev, g_cur, c_prev, c_cur,
                num_vertices):
        if self.pruning.vertical:
            g_idx = np.flatnonzero(exact_changed_rows(g_prev, g_cur))
            c_idx = np.flatnonzero(exact_changed_rows(c_prev, c_cur))
        else:
            g_idx = np.arange(num_vertices, dtype=np.int64)
            c_idx = g_idx
        # The gathers are already private copies.
        new_history.append(
            IterationRecord(g_idx, np.take(g_cur, g_idx, axis=0),
                            c_idx, np.take(c_cur, c_idx, axis=0))
        )


def _tolerant_changed(algorithm, old: np.ndarray, new: np.ndarray) -> np.ndarray:
    return np.flatnonzero(algorithm.values_changed(old, new))
