"""The GB-Reset engine: selective scheduling via delta propagation.

This is the paper's "GB-Reset" baseline (section 5.1): during processing
it propagates only *changes* in vertex values across aggregations
(PageRankDelta-style), but upon graph mutation it restarts computation
from scratch.  The same stepping core serves three masters:

- the GB-Reset baseline itself (``run`` + restart on mutation);
- GraphBolt's initial tracked run (the engine records each step's changed
  sets into a :class:`~repro.core.history.DependencyHistory`);
- GraphBolt's computation-aware hybrid phase, which continues delta
  execution past the pruning horizon from refined state.

Decomposable aggregations advance the rolling aggregate with fused
change-in-contribution updates (the paper's ``propagateDelta``) or, in
``retract_propagate`` mode, with an explicit retract pass followed by a
propagate pass (the paper's GraphBolt-RP variant used for complex
aggregations, Figure 8).  Non-decomposable aggregations (min/max) use the
pull-based re-evaluation strategy over incoming edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.model import IncrementalAlgorithm, any_per_row
from repro.graph.csr import CSRGraph
from repro.ligra.frontier import VertexSubset, member_mask, union_ids
from repro.obs import trace
from repro.runtime import exec as kernels
from repro.runtime.metrics import EngineMetrics, Timer

__all__ = ["DeltaEngine", "DeltaState", "StepRecord", "exact_changed_rows"]


@dataclass
class DeltaState:
    """Rolling state of a delta execution after ``iteration`` iterations."""

    values: np.ndarray        # c_i, dense
    prev_values: np.ndarray   # c_{i-1}, dense
    aggregate: np.ndarray     # g_i, dense
    frontier: np.ndarray      # ids with |c_i - c_{i-1}| > tolerance
    iteration: int

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


@dataclass
class StepRecord:
    """Exact change sets of one step (consumed by dependency tracking)."""

    g_idx: np.ndarray
    g_values: np.ndarray
    c_idx: np.ndarray
    c_values: np.ndarray


class DeltaEngine:
    """Selective-scheduling synchronous execution (GB-Reset)."""

    name = "GB-Reset"

    def __init__(
        self,
        algorithm: IncrementalAlgorithm,
        metrics: Optional[EngineMetrics] = None,
        mode: str = "delta",
    ) -> None:
        if mode not in ("delta", "retract_propagate"):
            raise ValueError("mode must be 'delta' or 'retract_propagate'")
        self.algorithm = algorithm
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self.mode = mode

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
             record_changes: bool = False) -> Optional[StepRecord]:
        """Advance ``state`` by one iteration in place.

        Iteration 0 -> 1 aggregates over all edges; later iterations
        propagate only from the frontier (or fall back to a dense sweep
        when the frontier is large, Ligra's density heuristic).  When
        ``record_changes`` is set, returns the exact per-iteration change
        sets for dependency tracking.
        """
        algorithm = self.algorithm
        if state.iteration == 0:
            touched, g_old_at_touched = self._dense_aggregate(graph, state)
        elif algorithm.aggregation.decomposable:
            touched, g_old_at_touched = self._delta_aggregate(graph, state)
        else:
            touched, g_old_at_touched = self._pull_aggregate(graph, state)

        record = self._apply_and_advance(
            graph, state, touched, g_old_at_touched, record_changes
        )
        state.iteration += 1
        self.metrics.iterations += 1
        return record

    def _dense_aggregate(self, graph, state):
        """Full aggregation: the first iteration and every dense one."""
        old_aggregate = state.aggregate
        state.aggregate = kernels.aggregate_all(
            graph, self.algorithm, state.values, self.metrics
        )
        touched = np.arange(graph.num_vertices, dtype=np.int64)
        return touched, old_aggregate[touched]

    def _delta_aggregate(self, graph, state):
        """Sparse or dense advance for decomposable aggregations."""
        algorithm = self.algorithm
        frontier = VertexSubset.from_sorted_ids(graph.num_vertices,
                                                state.frontier)
        if frontier.is_dense_preferred(graph):
            return self._dense_aggregate(graph, state)

        src, dst, weight = kernels.gather_out(graph, frontier.ids,
                                              self.metrics)
        touched = union_ids(graph.num_vertices, dst)
        g_old_at_touched = state.aggregate[touched].copy()
        if src.size:
            old_contribs = algorithm.contributions(
                graph, state.prev_values[src], src, dst, weight
            )
            new_contribs = algorithm.contributions(
                graph, state.values[src], src, dst, weight
            )
            if self.mode == "delta":
                kernels.scatter_delta(
                    graph, algorithm.aggregation, state.aggregate, dst,
                    new_contribs, old_contribs, self.metrics,
                )
            else:
                kernels.scatter_retract(
                    graph, algorithm.aggregation, state.aggregate, dst,
                    old_contribs, self.metrics,
                )
                self.metrics.count_edges(src.size)
                kernels.scatter(graph, algorithm.aggregation,
                                state.aggregate, dst, new_contribs,
                                self.metrics)
        return touched, g_old_at_touched

    def _pull_aggregate(self, graph, state):
        """Re-evaluation for non-decomposable aggregations (min/max)."""
        algorithm = self.algorithm
        frontier = VertexSubset.from_sorted_ids(graph.num_vertices,
                                                state.frontier)
        if frontier.is_dense_preferred(graph):
            targets = np.arange(graph.num_vertices, dtype=np.int64)
        else:
            _, dst, _ = kernels.gather_out(graph, frontier.ids,
                                           self.metrics)
            targets = union_ids(graph.num_vertices, dst)
        g_old_at_targets = state.aggregate[targets].copy()
        self._reevaluate(graph, state.values, state.aggregate, targets)
        return targets, g_old_at_targets

    def _reevaluate(self, graph, source_values, aggregate, targets) -> None:
        """Recompute ``aggregate[targets]`` by pulling all in-edges."""
        algorithm = self.algorithm
        aggregate[targets] = algorithm.aggregation.identity_value()
        in_src, in_dst, in_weight = kernels.gather_in(graph, targets,
                                                      self.metrics)
        if in_src.size:
            contributions = algorithm.contributions(
                graph, source_values[in_src], in_src, in_dst, in_weight
            )
            kernels.scatter(graph, algorithm.aggregation, aggregate,
                            in_dst, contributions, self.metrics)

    def _apply_and_advance(self, graph, state, touched, g_old_at_touched,
                           record_changes):
        algorithm = self.algorithm
        if algorithm.uses_previous_value and state.frontier.size:
            extended = union_ids(graph.num_vertices, touched,
                                 state.frontier)
            if extended.size != touched.size:
                # Recompute the old-g slice for the extended touched set.
                mask = member_mask(graph.num_vertices, extended, touched)
                g_old = np.empty(
                    (extended.size, *g_old_at_touched.shape[1:]),
                    dtype=np.float64,
                )
                g_old[mask] = g_old_at_touched
                g_old[~mask] = state.aggregate[extended[~mask]]
                touched, g_old_at_touched = extended, g_old

        kernels.count_vertices(graph, touched, self.metrics)
        previous = (
            state.values[touched] if algorithm.uses_previous_value else None
        )
        applied = algorithm.apply(
            graph, state.aggregate[touched], touched, previous
        )

        old_values_at_touched = state.values[touched]
        changed_mask = algorithm.values_changed(old_values_at_touched, applied)

        record = None
        if record_changes:
            g_changed = exact_changed_rows(g_old_at_touched,
                                           state.aggregate[touched])
            c_changed = exact_changed_rows(old_values_at_touched, applied)
            record = StepRecord(
                g_idx=touched[g_changed],
                g_values=state.aggregate[touched][g_changed],
                c_idx=touched[c_changed],
                c_values=applied[c_changed],
            )

        new_values = state.values.copy()
        new_values[touched] = applied
        state.prev_values = state.values
        state.values = new_values
        state.frontier = touched[changed_mask]
        return record

    # ------------------------------------------------------------------
    # Whole runs
    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        num_iterations: Optional[int] = None,
        until_convergence: bool = False,
        max_iterations: int = 1000,
    ) -> np.ndarray:
        """Run from scratch; returns final vertex values.

        In fixed-iteration mode the loop still exits early at a fixpoint
        (an empty frontier), because further synchronous iterations are
        provably identity -- this is exactly the redundant computation
        selective scheduling exists to skip.
        """
        if num_iterations is None:
            num_iterations = self.algorithm.default_iterations
        limit = max_iterations if until_convergence else num_iterations
        state = self.initial_state(graph)
        with trace.span("compute", engine=self.name,
                        algorithm=self.algorithm.name), \
                Timer(self.metrics, "compute"):
            for _ in range(limit):
                with trace.span("iteration", index=state.iteration + 1,
                                frontier=int(state.frontier.size)):
                    self.step(graph, state)
                if state.iteration > 1 and state.frontier.size == 0:
                    break
        return state.values


def exact_changed_rows(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Exact per-row inequality (tracking must be drift-free): one
    contiguous compare, not one strided compare per component."""
    return any_per_row(old != new)
