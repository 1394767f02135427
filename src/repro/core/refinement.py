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
   pulling the full updated input set from incoming neighbours.  Either
   is one call of :func:`repro.ligra.delta.propagate` with the batch --
   the step a restart takes without one -- or, where the one switch
   prices it so, a dense rebuild.

3. **What to record** -- :func:`repro.ligra.delta.vertex_map` keeps the
   old run's value wherever the refined one moved by τ or less (the old
   aggregates absorbed it), and :func:`repro.ligra.delta.hold_back` does
   so for a dense iteration a sparse one follows: at τ > 0 refinement is
   a from-scratch run under the same rule, up to which moves it held.

The refined run's history is re-recorded as it is produced -- a dense
iteration's record is its own two arrays -- so the next mutation batch
refines against it, while the old history is released as its replay
passes each record; the function returns the rolling
:class:`~repro.ligra.delta.DeltaState` at the tracked horizon, from
which hybrid execution continues forward.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.core.history import DependencyHistory, IterationRecord
from repro.core.model import IncrementalAlgorithm
from repro.graph.mutable import MutationResult
from repro.ligra.delta import (
    DeltaState,
    dense_preferred,
    edge_prices,
    hold_back,
    prices_dense,
    propagate,
    record_iteration,
    vertex_map,
)
from repro.ligra.frontier import union_ids
from repro.obs import trace
from repro.runtime import exec as kernels
from repro.runtime.metrics import EngineMetrics, Timer

__all__ = ["refine"]


def refine(
    algorithm: IncrementalAlgorithm,
    mutation: MutationResult,
    history: DependencyHistory,
    metrics: EngineMetrics,
    retract: bool = False,
) -> Tuple[DeltaState, DependencyHistory]:
    """Refine tracked values for one mutation; see module docstring.

    Returns ``(state, new_history)``: the dense rolling state of the
    refined run at the tracked horizon (ready for hybrid forward
    execution) and the refined run's own dependency history.
    ``history`` is consumed: its records are released as the replay
    passes them, so a caller that refines one history twice passes a
    copy.
    """
    with trace.span("refine", horizon=history.horizon,
                    additions=int(mutation.add_src.size),
                    deletions=int(mutation.del_src.size),
                    released_bytes=history.nbytes) as span, \
            Timer(metrics, "refine"):
        state, new_history = _Refiner(algorithm, mutation, history,
                                      metrics, retract).run()
        span.tag(history_bytes=new_history.nbytes)
        return state, new_history


class _Refiner:
    def __init__(self, algorithm, mutation, history, metrics, retract):
        self.algorithm = algorithm
        self.mutation = mutation
        self.metrics = metrics
        self.retract = retract
        self.new_graph = mutation.new_graph
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

        # The switch's price before any changed source: the batch's
        # edges plus the out-edges of the contribution-changed sources
        # (as a mask, so a dense iteration's compare counts each once).
        self.batch_edges = mutation.add_src.size + mutation.del_src.size
        self.contrib_mask = None
        self.fixed_edges = self.batch_edges
        if self.contrib_params.size:
            self.contrib_mask = np.zeros(num_vertices, dtype=bool)
            self.contrib_mask[self.contrib_params] = True
            self.fixed_edges += int(
                self.new_graph.out_degrees() @ self.contrib_mask)
        # What the compare after a dense iteration priced (_compare).
        self.priced = None

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
        # ids after a sparse iteration, a mask after a dense one, whose
        # first ``compared`` rows are compared (the rest read False).
        diverged = np.empty(0, dtype=np.int64)
        compared = 0

        # A dense apply's id argument (never used to gather).
        all_vertices = np.arange(num_vertices, dtype=np.int64)
        last = self.old_roll.horizon - 1

        for index in range(self.old_roll.horizon):
            with trace.span("iteration", index=index + 1) as span:
                self.metrics.refinement_iterations += 1

                g_before = g_cur               # g^T_{i-1}
                c_before = c_cur               # c^T_{i-1}
                sources = self._sources(diverged)
                dense = self._dense_preferred(sources)
                if not dense and sources.dtype == bool:
                    if compared < num_vertices:
                        # Only a dense iteration reads a partial mask:
                        # finish the compare while the replay still
                        # holds the previous iteration's values.
                        rest = slice(compared, None)
                        diverged[rest] = algorithm.values_changed(
                            self.old_roll.c[rest], c_before[rest])
                        sources = self._sources(diverged)
                    c_before = hold_back(c_before, self.old_roll.c,
                                         diverged, new_history.records[-1])
                    sources = np.flatnonzero(sources)  # ids to go sparse
                self.old_roll.advance()
                if dense:
                    span.tag(mode="dense")
                    self.metrics.dense_refinement_iterations += 1
                else:
                    span.tag(mode="decomposable"
                             if algorithm.aggregation.decomposable
                             else "reevaluate")
                # The old run's g^T_i is the base, its c^T_{i-1} what
                # that absorbed: a refine iteration is one step.
                g_cur, touched = propagate(
                    algorithm, self.new_graph, c_before, sources,
                    self.old_roll, self.metrics, dense=dense,
                    batch=self.mutation, retract=self.retract,
                )

                if touched is None:
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
                    # Compared only as far as the next iteration's price
                    # needs, and not at all after the last one.
                    diverged = np.zeros(num_vertices, dtype=bool)
                    compared = (0 if index == last else self._compare(
                        self.old_roll.c, c_new, diverged))
                    num_diverged = int(np.count_nonzero(diverged))
                    # Its record is its arrays, held read-only: no
                    # compare, no gather, and replay swaps them in.
                    g_cur.flags.writeable = c_new.flags.writeable = False
                    record = IterationRecord(None, g_cur, None, c_new)
                else:
                    # Self-dependent applies (e.g. SSSP's self-min) must
                    # also re-run wherever the vertex's own value
                    # diverged.
                    if diverged.dtype == bool:
                        diverged = np.flatnonzero(diverged)
                    touched = union_ids(
                        num_vertices, touched, self.apply_params,
                        *([diverged] if algorithm.uses_previous_value
                          else []),
                    )
                    num_touched = compared = int(touched.size)
                    c_new, diverged = vertex_map(
                        algorithm, self.new_graph, g_cur, touched, c_before,
                        self.old_roll.c, self.metrics)
                    num_diverged = int(diverged.size)
                    # Vertical pruning: the rows a sparse iteration
                    # changed, or the whole array when that is no more
                    # bytes (held, never gathered).
                    record = record_iteration(g_before, g_cur, c_before,
                                              c_new)

                new_history.append(record)
                span.tag(touched=num_touched, compared=compared,
                         diverged=num_diverged, **record.forms)
                c_prev = c_before
                c_cur = c_new

        state = DeltaState(
            values=c_cur,
            prev_values=c_prev,
            aggregate=g_cur,
            frontier=np.flatnonzero(algorithm.values_changed(c_prev, c_cur)),
            iteration=self.old_roll.horizon,
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
        """The engines' one switch, over the batch's edges plus the
        sources' out-edges: a mask's are what its compare priced."""
        return dense_preferred(
            self.algorithm, self.new_graph, sources,
            self.priced if sources.dtype == bool else self.batch_edges)

    def _compare(self, old, new, diverged) -> int:
        """Fill ``diverged`` from the old and the refined run's values
        in id order, only until the next iteration's sources price it
        dense (:meth:`_dense_preferred` then reads no further).  Sets
        :attr:`priced` to the compared rows' price -- the whole mask's
        once the compare ran to the end -- and returns how many rows it
        compared."""
        graph = self.new_graph
        offsets, degrees = graph.out_offsets, graph.out_degrees()
        num_vertices = diverged.size
        sparse_ns, dense_ns = edge_prices(self.algorithm)
        goal = graph.num_edges * dense_ns / sparse_ns
        priced = self.fixed_edges
        # A source among the rows priced so far: none, no dense price.
        found = self.contrib_mask is not None
        start = 0
        while start < num_vertices:
            if found and prices_dense(self.algorithm, graph, priced):
                break
            # The fewest rows whose out-degrees could close the gap (an
            # integer target: a float one converts every offset), and no
            # fewer than are compared already, so a price that stays
            # short takes O(log V) steps, not one per gap's worth.
            stop = int(offsets.searchsorted(
                offsets[start] + math.floor(goal - priced), side="right"))
            stop = min(max(stop, 2 * start, 1), num_vertices)
            moved = np.asarray(self.algorithm.values_changed(
                old[start:stop], new[start:stop]), dtype=bool)
            diverged[start:stop] = moved
            if self.contrib_mask is not None:
                moved = moved & ~self.contrib_mask[start:stop]  # priced
            priced += int(degrees[start:stop] @ moved)
            found = found or bool(moved.any())
            start = stop
        self.priced = priced
        return start
