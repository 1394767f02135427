"""The GB-Reset engine, and the propagation step every engine takes.

This is the paper's "GB-Reset" baseline (section 5.1): during processing
it propagates only *changes* in vertex values across aggregations
(PageRankDelta-style), but upon graph mutation it restarts computation
from scratch.  One loop, :meth:`DeltaEngine.advance`, steps every run
of it, with one stop rule:

- the GB-Reset baseline itself (``run`` + restart on mutation);
- GraphBolt's initial tracked run (the loop records each step's changed
  sets into a :class:`~repro.core.history.DependencyHistory`);
- GraphBolt's computation-aware hybrid phase (:meth:`DeltaEngine.forward`),
  which continues delta execution past the pruning horizon from refined
  state, for the engine and for a server's branch loop;
- the naive-reuse baseline (:class:`repro.bench.harness.NaiveRunner`).

Its step, :func:`propagate`, is also every iteration of
dependency-driven refinement (:mod:`repro.core.refinement`): Ligra's
direction-optimising ``edgeMap``, switched by one measured cost model
(:func:`dense_preferred`).  Sparse, a decomposable aggregation advances
with fused change-in-contribution updates (the paper's
``propagateDelta``) or, with ``retract``, an explicit retract pass
followed by a propagate pass (the paper's GraphBolt-RP variant used for
complex aggregations, Figure 8); a non-decomposable one (min/max)
re-evaluates its targets by pulling their in-edges.  Dense, it is one
sweep (:func:`repro.runtime.exec.aggregate_all`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.history import (DependencyHistory, IterationRecord,
                                record_half)
from repro.core.model import IncrementalAlgorithm, any_per_row
from repro.graph.csr import CSRGraph
from repro.graph.mutable import MutationResult
from repro.ligra.frontier import union_ids
from repro.obs import trace
from repro.runtime import exec as kernels
from repro.runtime.deadline import Deadline
from repro.runtime.metrics import EngineMetrics, Timer

__all__ = ["ITERATION_CAP", "DeltaEngine", "DeltaState", "dense_preferred",
           "edge_prices", "exact_changed_rows", "prices_dense", "propagate",
           "record_iteration"]

#: The iteration count of a run to convergence, whatever the engine: it
#: stops at its fixpoint, and this bounds one that never reaches it.
ITERATION_CAP = 1000


#: ns per edge of one whole step, ``(at width 1, per further component)``
#: of an aggregation value: sparse per *affected* edge (a refinement's
#: batch plus every changed source's out-edges) by how the aggregate is
#: spliced, dense per graph edge by the sweep
#: (:func:`repro.runtime.exec.sweeps_as_product`), both timed at the
#: refinement iteration the switch decides; lines through the rows below
#: (splice: PageRank, LP; product: CoEM, LP; generic: PageRank, CF) of
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


@dataclass
class DeltaState:
    """Rolling state of a delta execution after ``iteration`` iterations.

    A step replaces ``values``, ``prev_values`` and ``aggregate`` and
    writes none of them: a dense half of a dependency history may hold
    one, or a blob back it.
    """

    values: np.ndarray        # c_i, dense
    prev_values: np.ndarray   # c_{i-1}, dense
    aggregate: np.ndarray     # g_i, dense
    frontier: np.ndarray      # ids with |c_i - c_{i-1}| > tolerance
    iteration: int

    # The run the next step advances, as :func:`propagate` reads it: the
    # aggregate and the values it absorbed.
    g = property(lambda self: self.aggregate)
    c_prev = property(lambda self: self.prev_values)

    def copy(self) -> "DeltaState":
        return DeltaState(
            values=self.values.copy(),
            prev_values=self.prev_values.copy(),
            aggregate=self.aggregate.copy(),
            frontier=self.frontier.copy(),
            iteration=self.iteration,
        )

    def residual_l1(self) -> float:
        """L1 distance moved by the last iteration.

        For contractive fixpoint computations (PageRank and friends)
        this bounds how far the state is from the converged answer up to
        the contraction factor, so a deadline-truncated query can report
        it as a quality signal: residual 0 means the state was already
        at its fixpoint when the deadline fired.

        Non-finite movement is excluded: path-style algorithms hold
        unreached vertices at ``inf``, where ``inf - inf`` is not a
        distance moved, and a vertex transitioning from unreached to
        reached has no finite residual to report.
        """
        a, b = self.values, self.prev_values
        if a.shape != b.shape:
            # A mutation resized the graph mid-state; compare the
            # overlapping prefix (new vertices start at their initial
            # value and contribute no residual yet).
            n = min(a.shape[0], b.shape[0])
            a, b = a[:n], b[:n]
        with np.errstate(invalid="ignore"):
            diff = np.abs(a - b)
        return float(diff[np.isfinite(diff)].sum())


class DeltaEngine:
    """Selective-scheduling synchronous execution (GB-Reset)."""

    name = "GB-Reset"

    def __init__(
        self,
        algorithm: IncrementalAlgorithm,
        metrics: Optional[EngineMetrics] = None,
        retract: bool = False,
    ) -> None:
        self.algorithm = algorithm
        self.metrics = metrics if metrics is not None else EngineMetrics()
        #: GraphBolt-RP: every sparse push retracts, then propagates.
        self.retract = retract

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def initial_state(self, graph: CSRGraph) -> DeltaState:
        values = self.algorithm.initial_values(graph)
        return DeltaState(
            values=values,
            prev_values=values.copy(),
            aggregate=self.algorithm.identity_aggregate(graph.num_vertices),
            frontier=np.empty(0, dtype=np.int64),
            iteration=0,
        )

    # ------------------------------------------------------------------
    # One synchronous iteration
    # ------------------------------------------------------------------
    def step(self, graph: CSRGraph, state: DeltaState,
             record_changes: bool = False) -> Optional[IterationRecord]:
        """Advance ``state`` by one iteration.

        Iteration 0 -> 1 aggregates over all edges; later iterations
        propagate from the frontier, sparse or dense as
        :func:`dense_preferred` prices it.  When ``record_changes`` is
        set, returns the iteration's dependency record
        (:func:`record_iteration`).
        """
        algorithm = self.algorithm
        aggregate, touched = propagate(
            algorithm, graph, state.values,
            None if state.iteration == 0 else state.frontier, state,
            self.metrics, retract=self.retract,
        )
        if touched is None:
            # Applied through ids over every vertex: a whole-array apply
            # would speed up the restart that ``speedup_vs_restart``
            # divides by, so it belongs with the benchmark change that
            # reports the old and the new ratio side by side.
            rows = np.arange(graph.num_vertices, dtype=np.int64)
        elif algorithm.uses_previous_value and state.frontier.size:
            # Self-dependent applies re-run wherever the value moved.
            rows = union_ids(graph.num_vertices, touched, state.frontier)
        else:
            rows = touched

        kernels.count_vertices(graph, rows, self.metrics)
        old_values = state.values[rows]
        applied = algorithm.apply(
            graph, aggregate[rows], rows,
            old_values if algorithm.uses_previous_value else None,
        )
        values = state.values.copy()
        values[rows] = applied
        record = None
        if record_changes:
            record = record_iteration(state.aggregate, aggregate,
                                      state.values, values,
                                      None if touched is None else rows)
        state.prev_values, state.values = state.values, values
        state.aggregate = aggregate
        state.frontier = rows[algorithm.values_changed(old_values, applied)]
        state.iteration += 1
        self.metrics.iterations += 1
        return record

    # ------------------------------------------------------------------
    # Whole runs
    # ------------------------------------------------------------------
    def advance(self, graph: CSRGraph, state: DeltaState,
                num_iterations: Optional[int],
                deadline: Optional[Deadline] = None,
                history: Optional[DependencyHistory] = None,
                horizon: Optional[int] = None) -> bool:
        """Step ``state`` to iteration ``num_iterations`` (``None``: the
        algorithm's default; :data:`ITERATION_CAP` runs to convergence),
        the one loop of every delta run.

        Before each step it stops early at a fixpoint -- an empty
        frontier at iteration 1 or later, where further synchronous
        iterations are provably identity (the redundant computation
        selective scheduling exists to skip) -- or once ``deadline`` has
        expired: a started iteration always completes, so the state is
        exactly the BSP state after ``state.iteration`` iterations.
        With a ``history``, the iterations before ``horizon`` (``None``:
        all) are recorded into it; once recording stops it never
        resumes (a hole would be a window refinement cannot roll
        across).  Returns whether the deadline stopped the loop.
        """
        if num_iterations is None:
            num_iterations = self.algorithm.default_iterations
        while state.iteration < num_iterations:
            if state.iteration > 0 and state.frontier.size == 0:
                break
            if deadline is not None and deadline.expired():
                return True
            track = history is not None and (horizon is None
                                             or state.iteration < horizon)
            with trace.span("iteration", index=state.iteration + 1,
                            frontier=int(state.frontier.size)) as span:
                record = self.step(graph, state, record_changes=track)
                if history is not None:
                    span.tag(tracked=track)
                if track:
                    history.append(record)
                    span.tag(**record.forms)
        return False

    def run(self, graph: CSRGraph,
            num_iterations: Optional[int] = None) -> np.ndarray:
        """Run from scratch (the GB-Reset restart); returns final vertex
        values."""
        state = self.initial_state(graph)
        with trace.span("compute", engine=self.name,
                        algorithm=self.algorithm.name), \
                Timer(self.metrics, "compute"):
            self.advance(graph, state, num_iterations)
        return state.values

    def forward(self, graph: CSRGraph, state: DeltaState,
                num_iterations: Optional[int],
                deadline: Optional[Deadline] = None) -> bool:
        """Computation-aware hybrid execution (paper section 4.2):
        continue ``state`` to the run's end, as :meth:`advance` does.

        Past the tracked horizon, the refined rolling state -- values,
        previous values, aggregate, and the frontier of vertices whose
        value moved between the last two iterations -- is exactly a
        :class:`DeltaState`.  The paper's bit-vector of values changed at
        that iteration in the original run is subsumed: the refined
        dense ``prev_values``/``values`` carry both the original run's
        changes and the refinement's.  A server's branch loop continues
        its copy of the live state the same way, under ``deadline``.
        Returns whether the deadline cut the window short.
        """
        start = state.iteration
        with trace.span("forward", start_iteration=start) as span, \
                Timer(self.metrics, "hybrid"):
            expired = self.advance(graph, state, num_iterations, deadline)
            steps = state.iteration - start
            self.metrics.hybrid_iterations += steps
            span.tag(iterations=steps, deadline_expired=expired)
        return expired


def edge_prices(algorithm: IncrementalAlgorithm) -> Tuple[float, float]:
    """``(sparse, dense)`` ns per edge of one of ``algorithm``'s steps:
    the measured prices above at its aggregation value's width."""
    further = math.prod(algorithm.aggregation_shape) - 1
    first, per = SPARSE_NS_PER_EDGE[
        "splice" if algorithm.aggregation.decomposable else "reevaluate"]
    sparse_ns = first + per * further
    first, per = DENSE_NS_PER_EDGE[
        "product" if kernels.sweeps_as_product(algorithm) else "generic"]
    return sparse_ns, first + per * further


def prices_dense(algorithm: IncrementalAlgorithm, graph: CSRGraph,
                 edges: int) -> bool:
    """Whether a sparse step over ``edges`` affected edges costs more
    than one dense sweep of ``graph``."""
    sparse_ns, dense_ns = edge_prices(algorithm)
    return (graph.num_edges > 0
            and edges * sparse_ns > graph.num_edges * dense_ns)


def dense_preferred(algorithm: IncrementalAlgorithm, graph: CSRGraph,
                    sources: np.ndarray, edges: int = 0) -> bool:
    """The sparse/dense switch of every engine: Ligra's push/pull choice
    on the frontier's out-edges, priced by :func:`prices_dense`.

    ``sources`` are sorted ids, whose out-edges add to ``edges`` (a
    refinement's batch), or a mask whose whole price ``edges`` already
    is (the compare that filled it counted it).  With no source the
    step is sparse, however many edges a batch alone brings.
    """
    if sources.dtype == bool:
        if not sources.any():
            return False
    elif sources.size:
        edges += int(graph.out_degrees()[sources].sum())
    else:
        return False
    return prices_dense(algorithm, graph, edges)


def propagate(algorithm: IncrementalAlgorithm, graph: CSRGraph,
              values: np.ndarray, sources: Optional[np.ndarray], old,
              metrics: EngineMetrics, dense: Optional[bool] = None,
              batch: Optional[MutationResult] = None,
              retract: bool = False
              ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One synchronous step of ``algorithm`` on ``graph``: the aggregate
    of ``values``, advanced from the run ``old``.

    ``old.g`` is the aggregate the step advances and ``old.c_prev`` the
    values it absorbed; ``sources`` are the sorted ids whose
    contribution may differ between those and ``values`` (``None``:
    every vertex, nothing absorbed yet).  Only a
    sparse step reads ``old``, so a refinement's replay builds neither
    array for a dense one.  ``dense`` is the decision when the caller
    priced the sources itself with :func:`dense_preferred`; otherwise
    the step prices them.

    ``batch`` is the mutation ``old`` ran before, when refining (paper
    section 3.3): ⊎ adds the contributions of its added edges from
    ``values``, ⋃– retracts those of its deleted edges, reproduced on
    the fly from ``old.c_prev`` on the old snapshot, and ⋃△ swaps old
    for new contributions along the sources' other out-edges -- an
    added edge has no old contribution.  ``retract`` runs ⋃△ as a
    retract pass then a propagate pass (GraphBolt-RP, Figure 8).

    Returns ``(aggregate, touched)``: a new array (``old``'s are never
    written) and the sorted ids whose aggregate was recomputed, or
    ``None`` when the step went dense -- every vertex.
    """
    if dense is None:
        dense = sources is None or dense_preferred(algorithm, graph,
                                                   sources)
    if dense:
        return kernels.aggregate_all(graph, algorithm, values, metrics), None
    aggregation = algorithm.aggregation
    aggregate = old.g.copy()
    targets = [] if batch is None else [batch.add_dst, batch.del_dst]
    dst = np.empty(0, dtype=np.int64)

    if not aggregation.decomposable:
        # Re-evaluation: every target pulls its full input set anew.
        if sources.size:
            dst = graph.out_edges_of(sources)[1]
        touched = union_ids(graph.num_vertices, *targets, dst)
        if touched.size:
            aggregate[touched] = aggregation.identity_value()
            src, dst, weight = kernels.gather_in(graph, touched, metrics)
            if src.size:
                kernels.scatter(graph, aggregation, aggregate, dst,
                                algorithm.contributions(
                                    graph, values[src], src, dst, weight),
                                metrics)
        return aggregate, touched

    old_graph = graph
    if batch is not None:
        old_graph = batch.old_graph
        if batch.add_src.size:
            metrics.count_edges(batch.add_src.size)
            kernels.scatter(graph, aggregation, aggregate, batch.add_dst,
                            algorithm.contributions(
                                graph, values[batch.add_src],
                                batch.add_src, batch.add_dst,
                                batch.add_weight),
                            metrics)
        if batch.del_src.size:
            # Destinations live in the new snapshot's vertex space, so
            # the retract is charged against the new graph's owners.
            metrics.count_edges(batch.del_src.size)
            kernels.scatter_retract(graph, aggregation, aggregate,
                                    batch.del_dst,
                                    algorithm.contributions(
                                        old_graph, old.c_prev[batch.del_src],
                                        batch.del_src, batch.del_dst,
                                        batch.del_weight),
                                    metrics)
    if sources.size:
        src, dst, weight = _out_edges(graph, sources, batch, metrics)
        if src.size:
            old_contribs = algorithm.contributions(
                old_graph, old.c_prev[src], src, dst, weight)
            new_contribs = algorithm.contributions(
                graph, values[src], src, dst, weight)
            if retract:
                kernels.scatter_retract(graph, aggregation, aggregate, dst,
                                        old_contribs, metrics)
                metrics.count_edges(src.size)
                kernels.scatter(graph, aggregation, aggregate, dst,
                                new_contribs, metrics)
            else:
                kernels.scatter_delta(graph, aggregation, aggregate, dst,
                                      new_contribs, old_contribs, metrics)
    return aggregate, union_ids(graph.num_vertices, *targets, dst)


def _out_edges(graph, sources, batch, metrics):
    """The out-edges of ``sources`` a sparse step pushes along, counted:
    all of them, charged at their sources (an ``edgeMap`` gather), or
    with a batch those it did not add, charged only where they are
    scattered (the owner accounting as it was pinned)."""
    if batch is None:
        return kernels.gather_out(graph, sources, metrics)
    src, slots = graph.out_edge_slots(sources)
    retained = ~batch.added_edge_mask()[slots]
    src, slots = src[retained], slots[retained]
    metrics.count_edges(src.size)
    return src, graph.out_targets[slots], graph.out_weights[slots]


def record_iteration(g_old: np.ndarray, g_new: np.ndarray,
                     c_old: np.ndarray, c_new: np.ndarray,
                     rows: Optional[np.ndarray] = None) -> IterationRecord:
    """The dependency record of one iteration, from its whole aggregate
    and value arrays before and after: each half the rows that changed,
    exactly, or the new array itself when that is no more bytes
    (:func:`record_half`).  ``rows`` are the sorted ids the iteration
    recomputed, the only ones compared (``None``: every row)."""
    if rows is not None:
        g_old, c_old = g_old[rows], c_old[rows]
    return IterationRecord(
        *record_half(g_new, exact_changed_rows(
            g_old, g_new if rows is None else g_new[rows]), rows),
        *record_half(c_new, exact_changed_rows(
            c_old, c_new if rows is None else c_new[rows]), rows))


def exact_changed_rows(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Exact per-row inequality (tracking must be drift-free): one
    contiguous compare, not one strided compare per component."""
    return any_per_row(old != new)
