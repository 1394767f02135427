"""The GraphBolt streaming engine.

:class:`GraphBoltEngine` owns a streaming graph and an algorithm and
drives the full lifecycle:

1. ``run(graph)`` -- the initial execution, performed with selective
   scheduling (the GB-Reset stepping core) while *tracking* each
   iteration's aggregation and vertex values into a
   :class:`~repro.core.history.DependencyHistory`, up to the tracking
   ``horizon`` (horizontal pruning, paper section 3.2; vertical pruning
   is how the history stores records: changed rows only, or the whole
   array when that is smaller).
2. ``apply_mutations(batch)`` -- adjust the graph structure, run
   dependency-driven refinement over the tracked window, then hybrid
   forward execution to the end of the run, and commit the refined
   history for the next batch.
3. ``adopt(batches, state)`` -- a read replica's path: queue the
   structure change, take a state the writer's engine refined, and
   refine no more until restored from a checkpoint.  The queue is
   applied when something reads :attr:`graph`, as one splice per run of
   pair-disjoint batches.

Two degraded strategies exist for the paper's motivation experiments:

- ``strategy="naive"`` reuses converged values directly as the starting
  point on the mutated graph (the incorrect ``S*(G_T, R_G)`` of Figure 2
  / Table 1) -- no refinement, no BSP guarantee;
- the GB-Reset and Ligra baselines live in
  :mod:`repro.bench.harness` as restart runners sharing the same
  streaming interface.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.history import DependencyHistory
from repro.core.hybrid import hybrid_forward
from repro.core.model import IncrementalAlgorithm
from repro.core.refinement import refine
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import (
    MutationBatch,
    coalesce_batches,
    pair_disjoint_runs,
)
from repro.ligra.delta import DeltaEngine, DeltaState
from repro.obs import trace
from repro.obs.registry import get_registry
from repro.runtime.exec import load_imbalance
from repro.runtime.metrics import EngineMetrics, MemoryReport, Timer

__all__ = ["GraphBoltEngine"]


class GraphBoltEngine:
    """Dependency-driven synchronous processing of a streaming graph."""

    name = "GraphBolt"

    def __init__(
        self,
        algorithm: IncrementalAlgorithm,
        num_iterations: Optional[int] = None,
        until_convergence: bool = False,
        max_iterations: int = 1000,
        horizon: Optional[int] = None,
        mode: str = "delta",
        strategy: str = "refine",
        metrics: Optional[EngineMetrics] = None,
    ) -> None:
        if strategy not in ("refine", "naive"):
            raise ValueError("strategy must be 'refine' or 'naive'")
        if horizon is not None and horizon < 0:
            raise ValueError("horizon must be non-negative")
        self.algorithm = algorithm
        self.num_iterations = (
            algorithm.default_iterations if num_iterations is None
            else num_iterations
        )
        self.until_convergence = until_convergence
        self.max_iterations = max_iterations
        #: Track at most this many iterations of the initial run
        #: (``None``: all).  Refinement then covers whatever was tracked.
        self.horizon = horizon
        self.strategy = strategy
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self._delta = DeltaEngine(algorithm, self.metrics, mode=mode)
        self._streaming: Optional[StreamingGraph] = None
        self._history: Optional[DependencyHistory] = None
        self._state: Optional[DeltaState] = None
        #: Batches :meth:`adopt` took whose structure is not applied yet.
        self._pending: list = []
        self.batches_applied = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The latest snapshot; adopted batches are applied first."""
        self._require_run()
        if self._pending:
            self._apply_pending()
        return self._streaming.graph

    @property
    def structure_pending(self) -> int:
        """Batches adopted but not yet applied to the structure."""
        return len(self._pending)

    @property
    def values(self) -> np.ndarray:
        """Final vertex values for the latest snapshot."""
        self._require_run()
        return self._state.values

    @property
    def history(self) -> DependencyHistory:
        self._require_history()
        return self._history

    def _require_run(self) -> None:
        if self._streaming is None:
            raise RuntimeError("call run() before using the engine")

    def _require_history(self) -> None:
        self._require_run()
        if self._history is None:
            raise RuntimeError(
                "this engine adopted a state it did not refine and holds "
                "no dependency history; restore it from a checkpoint to "
                "refine again")

    # ------------------------------------------------------------------
    # Initial execution with dependency tracking
    # ------------------------------------------------------------------
    def run(self, graph: Optional[CSRGraph] = None,
            streaming=None) -> np.ndarray:
        """Process the initial snapshot, tracking dependencies.

        Pass either a graph (the engine creates its own streaming
        structure) or an existing ``streaming`` container the caller owns
        (the e2e benchmark times structure adjustment apart from
        refinement this way); such callers adjust the structure
        themselves and feed the engine via :meth:`apply_mutation_result`.
        """
        if (graph is None) == (streaming is None):
            raise ValueError("provide exactly one of graph or streaming")
        if streaming is not None:
            self._streaming = streaming
            graph = streaming.graph
        else:
            self._streaming = StreamingGraph(graph)
        with trace.span("initial_run", engine=self.name,
                        algorithm=self.algorithm.name,
                        vertices=graph.num_vertices,
                        edges=graph.num_edges):
            self._state, self._history = self._tracked_run(graph)
        self._publish_gauges()
        return self._state.values

    def _tracked_run(self, graph: CSRGraph):
        state = self._delta.initial_state(graph)
        # Copies: the history's bases are read-only, the state is not.
        history = DependencyHistory(state.values.copy(),
                                    state.aggregate.copy())
        limit = (
            self.max_iterations if self.until_convergence
            else self.num_iterations
        )
        # Horizontal pruning is a cut-off: once tracking stops it never
        # resumes (a hole would be a window refinement cannot roll across).
        tracking_stopped = self.strategy == "naive"
        with Timer(self.metrics, "initial_run"):
            for iteration in range(1, limit + 1):
                if state.iteration > 0 and state.frontier.size == 0:
                    break
                track = not tracking_stopped and (
                    self.horizon is None or iteration <= self.horizon
                )
                with trace.span("iteration", index=iteration,
                                tracked=track) as span:
                    if track:
                        record = self._delta.step(graph, state,
                                                  record_changes=True)
                        history.append(record)
                        span.tag(**record.forms)
                    else:
                        tracking_stopped = True
                        self._delta.step(graph, state)
        return state, history

    # ------------------------------------------------------------------
    # Mutation processing
    # ------------------------------------------------------------------
    def apply_mutations(self, batch: MutationBatch) -> np.ndarray:
        """Mutate the graph and produce results for the new snapshot."""
        self._require_history()
        with trace.span("batch", engine=self.name,
                        algorithm=self.algorithm.name,
                        index=self.batches_applied,
                        mutations=len(batch)):
            with trace.span("adjust_structure"), \
                    Timer(self.metrics, "adjust_structure"):
                mutation = self._streaming.apply_batch(batch)
            return self._apply_mutation_result(mutation)

    def apply_mutation_result(self, mutation) -> np.ndarray:
        """Process an already-applied structure change.

        A caller that owns the structure (``run(streaming=...)``)
        adjusts it and hands over the
        :class:`~repro.graph.mutable.MutationResult`.
        """
        self._require_history()
        with trace.span("batch", engine=self.name,
                        algorithm=self.algorithm.name,
                        index=self.batches_applied,
                        shared_structure=True):
            return self._apply_mutation_result(mutation)

    def _apply_mutation_result(self, mutation) -> np.ndarray:
        graph = mutation.new_graph
        self.batches_applied += 1

        if self.strategy == "naive":
            self._state = self._naive_continue(graph)
            return self._state.values

        state, new_history = refine(
            self.algorithm, mutation, self._history, self.metrics,
            mode=self._delta.mode,
        )
        state = hybrid_forward(
            self._delta, graph, state,
            total_iterations=self.num_iterations,
            until_convergence=self.until_convergence,
            max_iterations=self.max_iterations,
        )
        self._state = state
        self._history = new_history
        self._publish_gauges()
        return state.values

    def adopt(self, batches, state: Optional[DeltaState]) -> None:
        """Queue ``batches``' structure changes and take ``state`` as the
        results for the new snapshot -- a state another engine refined
        over the same stream, so nothing here refines.

        The structure catches up when something reads :attr:`graph`
        (:meth:`_apply_pending`).  ``state`` must be sized for the graph
        the queue implies (checked without applying it).  It is
        assigned, not copied into: a new state object is what tells a
        query memo the results changed.  ``None``, or a mismatch
        (``ValueError``), leaves the structure ahead of the results
        until a later call brings their state.  The dependency history
        no longer describes either, so it is dropped and a later
        :meth:`apply_mutations` raises instead of refining from it.
        """
        self._require_run()
        self._history = None
        self._pending.extend(batches)
        self.batches_applied += len(batches)
        if state is None:
            return
        num_vertices = self._streaming.graph.num_vertices
        for batch in self._pending:
            num_vertices = batch.num_vertices_after(num_vertices)
        rows = {state.values.shape[0], state.prev_values.shape[0],
                state.aggregate.shape[0]}
        if rows != {num_vertices} or (
                state.frontier.size
                and int(state.frontier.max()) >= num_vertices):
            raise ValueError(
                f"a state of {sorted(rows)} rows cannot stand for a graph "
                f"of {num_vertices} vertices")
        self._state = state

    def _apply_pending(self) -> None:
        """Apply the adopted queue, one splice per maximal run of
        batches whose touched ``(src, dst)`` pairs are disjoint: such a
        run coalesces by concatenation, so the snapshot equals the one
        applying the batches one by one would give, byte for byte."""
        with trace.span("adopt", batches=len(self._pending)), \
                Timer(self.metrics, "adjust_structure"):
            for run in pair_disjoint_runs(self._pending):
                self._streaming.apply_batch(coalesce_batches(run))
                del self._pending[:len(run)]

    def _publish_gauges(self) -> None:
        """Live operational gauges (the paper's Table 9, continuously):
        frontier density, tracked window depth, dependency bytes."""
        registry = get_registry()
        num_vertices = max(self._streaming.graph.num_vertices, 1)
        registry.gauge("graphbolt.frontier_density").set(
            self._state.frontier.size / num_vertices
        )
        registry.gauge("graphbolt.history_window").set(
            self._history.horizon
        )
        registry.gauge("graphbolt.dependency_bytes").set(
            self._history.nbytes
        )
        registry.gauge("graphbolt.shard_imbalance").set(
            load_imbalance(self.metrics.shard_loads)
        )

    def _naive_continue(self, graph: CSRGraph) -> DeltaState:
        """The incorrect baseline: keep converged values as the starting
        point on the mutated graph (``S*(G_T, R_G)``)."""
        algorithm = self.algorithm
        values = algorithm.extend_values(self._state.values, graph)
        state = DeltaState(
            values=values,
            prev_values=values.copy(),
            aggregate=algorithm.identity_aggregate(graph.num_vertices),
            frontier=np.empty(0, dtype=np.int64),
            iteration=0,
        )
        limit = (
            self.max_iterations if self.until_convergence
            else self.num_iterations
        )
        with trace.span("naive_continue"), \
                Timer(self.metrics, "naive_continue"):
            for _ in range(limit):
                if state.iteration > 0 and state.frontier.size == 0:
                    break
                self._delta.step(graph, state)
        return state

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_report(
            self, first_iteration_only: bool = False) -> MemoryReport:
        """Bytes of dependency information versus baseline engine memory.

        The baseline counts the CSR/CSC structure, matching the paper's
        Table 9 (GB-Reset holds the graph too, and it dominates total
        memory).  ``first_iteration_only`` reports the first tracked
        iteration's record as the dependency cost -- the paper's
        "worst-case estimate", since vertical pruning shrinks every later
        iteration.
        """
        self._require_history()
        state = self._state
        baseline = (
            state.values.nbytes
            + state.prev_values.nbytes
            + state.aggregate.nbytes
            + self._streaming.graph.nbytes
        )
        if first_iteration_only and self._history.records:
            dependency = self._history.records[0].nbytes
        else:
            dependency = self._history.nbytes
        return MemoryReport(
            baseline_bytes=baseline,
            dependency_bytes=dependency,
        )

    def __repr__(self) -> str:
        ran = self._streaming is not None
        return (
            f"GraphBoltEngine(algorithm={self.algorithm.name}, "
            f"strategy={self.strategy}, ran={ran})"
        )
