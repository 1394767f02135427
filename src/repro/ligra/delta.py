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
- the naive-reuse baseline (:class:`repro.bench.harness.NaiveRunner`);
- GraphBolt's refinement (:func:`repro.core.refinement.refine`), over a
  *replayed base*: the old run's history plus the batch.

Its step, :meth:`DeltaEngine.step`, advances a base -- the run whose
aggregate it advances and whose values it compares against: the state
itself, or a refinement's replay -- by :func:`propagate` then
:func:`vertex_map` (Ligra's direction-optimising ``edgeMap``, switched
by one measured cost model, :func:`dense_preferred`, then its
``vertexMap``, the record rule's one home).
Sparse, a decomposable aggregation advances with fused
change-in-contribution updates (the paper's ``propagateDelta``) or, with
``retract``, an explicit retract pass followed by a propagate pass (the
paper's GraphBolt-RP variant used for complex aggregations, Figure 8); a
non-decomposable one (min/max) re-evaluates its targets by pulling their
in-edges.  Dense, it is one sweep (:func:`repro.runtime.exec.aggregate_all`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

__all__ = ["ITERATION_CAP", "DeltaEngine", "DeltaState",
           "compare_until_priced", "dense_preferred", "edge_prices",
           "exact_changed_rows", "prices_dense", "propagate", "hold_back",
           "record_iteration", "vertex_map"]

#: The iteration count of a run to convergence, whatever the engine: it
#: stops at its fixpoint, and this bounds one that never reaches it.
ITERATION_CAP = 1000


#: ns per edge of one whole step, ``(at width 1, per further component)``
#: of an aggregation value: sparse per *affected* edge (a refinement's
#: batch plus every changed source's out-edges) by how the aggregate is
#: spliced, dense per graph edge by the sweep (``"product"`` when the
#: edge operator multiplies every component by the weight), timed at the
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
    frontier: np.ndarray      # ids moved past τ against the base (or a mask)
    iteration: int
    held: bool = False        # c_i equals c_{i-1} off the frontier

    # The run the next step advances, as :meth:`DeltaEngine.step` reads
    # it: the aggregate, the values it absorbed and the values after.
    g = property(lambda self: self.aggregate)
    c_prev = property(lambda self: self.prev_values)
    c = property(lambda self: self.values)

    def copy(self) -> "DeltaState":
        return replace(self, values=self.values.copy(),
                       prev_values=self.prev_values.copy(),
                       aggregate=self.aggregate.copy(),
                       frontier=self.frontier.copy())

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
             history: Optional[DependencyHistory] = None,
             replay=None, span=None) -> Optional[IterationRecord]:
        """Advance ``state`` by one iteration from its *base*: the run
        whose aggregate the step advances and whose values it compares
        against, read as ``(g, c_prev, c)`` -- ``state`` itself, or a
        refinement's ``replay`` (:class:`~repro.core.refinement.Replay`,
        advanced one record here).  A run's first step is dense; every
        other one propagates from the sources, sparse (after a dense
        step, from values held back to the frontier) or dense as
        :func:`dense_preferred` prices it.  With a ``history``, appends
        the step's dependency record and returns it; a replayed step
        tags ``span`` with its mode and counts.
        """
        algorithm, values = self.algorithm, state.values
        frontier, num_vertices = state.frontier, graph.num_vertices
        base, batch, edges = state, None, 0
        if replay is not None:
            replay.advance()
            base, batch = replay, replay.batch
            edges = (replay.priced if frontier.dtype == bool
                     else replay.batch_edges)
        # Sources: the frontier, plus a batch's contribution-changed ids.
        sources = frontier
        if replay is not None and replay.contrib_params.size:
            sources = (frontier | replay.contrib_mask if frontier.dtype == bool
                       else union_ids(num_vertices, frontier,
                                      replay.contrib_params))
        dense = (replay is None and state.iteration == 0) or dense_preferred(
            algorithm, graph, sources, edges)
        if not dense and not state.held:
            if frontier.dtype == bool:
                if replay.compared < num_vertices:
                    # Only a dense step reads a partial mask: finish it.
                    rest = slice(replay.compared, None)
                    frontier[rest] = algorithm.values_changed(
                        base.c_prev[rest], values[rest])
                    sources[rest] |= frontier[rest]
                frontier = np.flatnonzero(frontier)
                sources = np.flatnonzero(sources)
            last = None if history is None else history.records[-1]
            # A restart's base is the state: its c is the held values.
            values = state.values = hold_back(values, base.c_prev, frontier,
                                              last)
        aggregate, rows = propagate(algorithm, graph, values, sources, base,
                                    self.metrics, dense, batch=batch,
                                    retract=self.retract)
        # A changed apply re-runs, and a self-dependent one wherever the
        # value moved.
        also = ([] if replay is None else [replay.apply_params]) + (
            [frontier] if algorithm.uses_previous_value else [])
        if rows is not None and also:
            rows = union_ids(num_vertices, rows, *also)
        if rows is None and replay is not None:
            # A replayed dense step keeps its whole-array apply, a compare
            # that stops once priced and its arrays as its record; a
            # restart's goes by ids (vertex_map).  One form is ROADMAP
            # item 3's: a whole-array restart fails the e2e bound.
            kernels.count_all_vertices(graph, self.metrics)
            new_values = np.asarray(algorithm.apply(
                graph, aggregate, replay.all_vertices,
                values if algorithm.uses_previous_value else None),
                dtype=np.float64)
            if (np.may_share_memory(new_values, aggregate)
                    or np.may_share_memory(new_values, values)):
                new_values = new_values.copy()  # an apply handed one back
            moved, replay.compared = np.zeros(num_vertices, dtype=bool), 0
            if replay.iteration < replay.horizon:   # none after the last
                replay.compared, replay.priced = compare_until_priced(
                    algorithm, graph, replay.c, new_values, moved,
                    replay.fixed_edges, replay.contrib_mask)
            aggregate.flags.writeable = new_values.flags.writeable = False
            record = IterationRecord(None, aggregate, None, new_values)
        else:
            new_values, moved = vertex_map(algorithm, graph, aggregate, rows,
                                           values, base.c, self.metrics)
            # Against its own base only ``rows`` can differ; a replay's
            # base is the old run, so its record compares every row.
            record = None if history is None else record_iteration(
                state.aggregate, aggregate, values, new_values,
                rows if replay is None else None)
        if history is not None:
            history.append(record)
        state.prev_values, state.values = values, new_values
        state.aggregate, state.frontier = aggregate, moved
        state.held = not dense
        state.iteration += 1
        if replay is None:
            self.metrics.iterations += 1
        else:
            self.metrics.refinement_iterations += 1
            self.metrics.dense_refinement_iterations += dense
            touched = num_vertices if dense else int(rows.size)
            span.tag(mode="dense" if dense else "decomposable"
                     if algorithm.aggregation.decomposable else "reevaluate",
                     touched=touched,
                     compared=replay.compared if dense else touched,
                     diverged=int(np.count_nonzero(moved)) if dense
                     else int(moved.size))
        return record

    # ------------------------------------------------------------------
    # Whole runs
    # ------------------------------------------------------------------
    def advance(self, graph: CSRGraph, state: DeltaState,
                num_iterations: Optional[int],
                deadline: Optional[Deadline] = None,
                history: Optional[DependencyHistory] = None,
                horizon: Optional[int] = None, replay=None) -> bool:
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
        across).  With a ``replay`` each step advances it instead of
        the state's own run (:meth:`step`): that is refinement.
        Returns whether the deadline stopped the loop.
        """
        if num_iterations is None:
            num_iterations = self.algorithm.default_iterations
        while state.iteration < num_iterations:
            # Every replayed step brings the batch again: no fixpoint.
            if (replay is None and state.iteration > 0
                    and state.frontier.size == 0):
                break
            if deadline is not None and deadline.expired():
                return True
            track = history is not None and (horizon is None
                                             or state.iteration < horizon)
            # A replayed step tags its own mode and counts instead.
            tags = {} if replay is not None else dict(
                frontier=int(state.frontier.size))
            with trace.span("iteration", index=state.iteration + 1,
                            **tags) as span:
                record = self.step(graph, state, history if track else None,
                                   replay, span)
                if history is not None and replay is None:
                    span.tag(tracked=track)
                if track:
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
        "product" if algorithm.edge_operator == "*w"
        and not algorithm.operated_from else "generic"]
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


def compare_until_priced(algorithm, graph, old, new, diverged, fixed_edges,
                         contrib_mask):
    """Fill ``diverged`` from a base's values ``old`` and a dense step's
    ``new`` in id order, only until the next step's sources price it
    dense (:func:`dense_preferred` then reads no further).  The price
    starts at ``fixed_edges``: a batch's edges and the out-edges of its
    contribution-changed sources, ``contrib_mask`` (``None``: none).
    Returns how many rows it compared and their price -- the whole
    mask's once the compare ran to the end."""
    offsets, degrees = graph.out_offsets, graph.out_degrees()
    num_vertices = diverged.size
    sparse_ns, dense_ns = edge_prices(algorithm)
    goal = graph.num_edges * dense_ns / sparse_ns
    priced = fixed_edges
    # A source among the rows priced so far: none, no dense price.
    found = contrib_mask is not None
    start = 0
    while start < num_vertices:
        if found and prices_dense(algorithm, graph, priced):
            break
        # The fewest rows whose out-degrees could close the gap (an
        # integer target: a float one converts every offset), and no
        # fewer than are compared already, so a price that stays short
        # takes O(log V) steps, not one per gap's worth.
        stop = int(offsets.searchsorted(
            offsets[start] + math.floor(goal - priced), side="right"))
        stop = min(max(stop, 2 * start, 1), num_vertices)
        moved = np.asarray(algorithm.values_changed(
            old[start:stop], new[start:stop]), dtype=bool)
        diverged[start:stop] = moved
        if contrib_mask is not None:
            moved = moved & ~contrib_mask[start:stop]   # priced already
        priced += int(degrees[start:stop] @ moved)
        found = found or bool(moved.any())
        start = stop
    return start, priced


def propagate(algorithm: IncrementalAlgorithm, graph: CSRGraph,
              values: np.ndarray, sources: np.ndarray, old,
              metrics: EngineMetrics, dense: bool,
              batch: Optional[MutationResult] = None,
              retract: bool = False
              ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One synchronous step of ``algorithm`` on ``graph``: the aggregate
    of ``values``, advanced from the run ``old``.

    ``old.g`` is the aggregate the step advances and ``old.c_prev`` the
    values it absorbed; ``sources`` are the sorted ids whose
    contribution may differ between those and ``values``.  ``dense``
    is the caller's :func:`dense_preferred` decision: a dense step
    reads neither ``sources`` nor ``old``, so a refinement's replay
    builds neither array for one.

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
                kernels.scatter(graph, aggregation.scatter, aggregate, dst,
                                _contributions(graph, algorithm, values, src,
                                               weight), metrics=metrics)
        return aggregate, touched

    old_graph, passes = graph, ()
    if batch is not None:
        # ⊎ from the new values, ⋃– from the old ones on the old snapshot;
        # a deleted edge's destination is charged to the new graph's owner.
        old_graph = batch.old_graph
        passes = ((aggregation.scatter, graph, values, batch.add_src,
                   batch.add_dst, batch.add_weight),
                  (aggregation.scatter_retract, old_graph, old.c_prev,
                   batch.del_src, batch.del_dst, batch.del_weight))
    for operator, snapshot, base, src, ends, weight in passes:
        if src.size:
            metrics.count_edges(src.size)
            kernels.scatter(graph, operator, aggregate, ends, _contributions(
                snapshot, algorithm, base, src, weight), metrics=metrics)
    if sources.size:
        at, dst, weight = _out_edges(graph, sources, batch, metrics)
        if at.size:
            # An edge the batch kept has a source the old snapshot holds.
            held = sources[:sources.searchsorted(old_graph.num_vertices)]
            old_contribs = kernels.edge_contributions(
                old_graph, algorithm, old.c_prev, held, at, weight)
            new_contribs = kernels.edge_contributions(
                graph, algorithm, values, sources, at, weight)
            if retract:
                kernels.scatter(graph, aggregation.scatter_retract,
                                aggregate, dst, old_contribs, metrics=metrics)
                metrics.count_edges(at.size)
                kernels.scatter(graph, aggregation.scatter, aggregate, dst,
                                new_contribs, metrics=metrics)
            else:
                kernels.scatter(graph, aggregation.scatter_delta, aggregate,
                                dst, new_contribs, old_contribs,
                                metrics=metrics)
    return aggregate, union_ids(graph.num_vertices, *targets, dst)


def vertex_map(algorithm, graph, aggregate, rows, values, base, metrics):
    """Ligra's ``vertexMap`` of one step: ``rows`` of ``aggregate``
    applied (previous values from ``values``) onto a copy of ``base``,
    the run the step advances; returns it and the ids that moved past τ
    against ``base``, the only rows it writes (the record rule: the rest
    keep what their out-neighbours absorbed).  ``rows`` ``None`` is a
    dense step, every row written exactly, by ids (a whole-array apply
    would speed up the restart ``speedup_vs_restart`` divides by)."""
    ids = np.arange(graph.num_vertices, dtype=np.int64) if rows is None \
        else rows
    kernels.count_vertices(graph, ids, metrics)
    applied = algorithm.apply(
        graph, aggregate[ids], ids,
        values[ids] if algorithm.uses_previous_value else None)
    moved = algorithm.values_changed(base[ids], applied)
    written = slice(None) if rows is None else moved
    new_values = base.copy()
    new_values[ids[written]] = applied[written]
    return new_values, ids[moved]


def hold_back(values, base, moved, record):
    """``values`` with every row but ``moved`` back at ``base``'s, as a
    sparse step after a dense one reads them, and so does ``record``,
    the dense step's if any (``moved``: sorted ids)."""
    held = base.copy()
    held[moved] = values[moved]
    if record is not None:
        if record.c_idx is None:
            held.flags.writeable = False
            record.c_values = held
        else:
            record.c_idx, record.c_values = moved, held[moved]
    return held


def _contributions(graph, algorithm, values, src, weight):
    """The contributions along edges from ``src``, in any order: each
    distinct source's message once (:func:`kernels.edge_contributions`)."""
    ids = union_ids(graph.num_vertices, src)
    return kernels.edge_contributions(graph, algorithm, values, ids,
                                      ids.searchsorted(src), weight)


def _out_edges(graph, sources, batch, metrics):
    """The out-edges of ``sources`` a sparse step pushes along, counted,
    as ``(at, dst, weight)``, ``sources[at]`` their sources: all of
    them, charged at their sources (an ``edgeMap`` gather), or with a
    batch those it did not add, charged only where they are scattered
    (the owner accounting as it was pinned)."""
    at = np.repeat(np.arange(sources.size), graph.out_degrees()[sources])
    if batch is None:
        _, dst, weight = kernels.gather_out(graph, sources, metrics)
        return at, dst, weight
    _, slots = graph.out_edge_slots(sources)
    retained = ~batch.added_edge_mask()[slots]
    at, slots = at[retained], slots[retained]
    metrics.count_edges(at.size)
    return at, graph.out_targets[slots], graph.out_weights[slots]


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
