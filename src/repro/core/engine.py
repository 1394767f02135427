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
   dependency-driven refinement over the tracked window (which consumes
   the old history), then hybrid forward execution to the end of the
   run (:meth:`~repro.ligra.delta.DeltaEngine.forward`), and commit the
   refined history for the next batch.  A batch that raises there
   leaves the engine with no history, as ``adopt`` does: it refuses to
   refine until restored from a checkpoint.
3. ``adopt(batches, state)`` -- a read replica's path: queue the
   structure change, take a state the writer's engine refined, and
   refine no more until restored from a checkpoint.  The queue is
   applied when something reads :attr:`graph`, as one splice per run of
   pair-disjoint batches.

The baselines -- the Ligra and GB-Reset restarts, and the incorrect
naive reuse of converged values (``S*(G_T, R_G)`` of Figure 2 / Table 1)
-- live in :mod:`repro.bench.harness` as runners sharing the same
streaming interface.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.history import DependencyHistory
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
        horizon: Optional[int] = None,
        retract: bool = False,
        metrics: Optional[EngineMetrics] = None,
    ) -> None:
        if horizon is not None and horizon < 0:
            raise ValueError("horizon must be non-negative")
        self.algorithm = algorithm
        self.num_iterations = (
            algorithm.default_iterations if num_iterations is None
            else num_iterations
        )
        #: Track at most this many iterations of the initial run
        #: (``None``: all).  Refinement then covers whatever was tracked.
        self.horizon = horizon
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self._delta = DeltaEngine(algorithm, self.metrics, retract=retract)
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
                "this engine holds no dependency history (it adopted a "
                "state it did not refine, or a refine failed); restore it "
                "from a checkpoint to refine again")

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
            state = self._delta.initial_state(graph)
            # Copies: the history's bases are read-only, the state is not.
            history = DependencyHistory(state.values.copy(),
                                        state.aggregate.copy())
            with Timer(self.metrics, "initial_run"):
                self._delta.advance(graph, state, self.num_iterations,
                                    history=history, horizon=self.horizon)
        self._state, self._history = state, history
        self._publish_gauges()
        return state.values

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
            with trace.span("adjust_structure") as span, \
                    Timer(self.metrics, "adjust_structure"):
                mutation = self._streaming.apply_batch(batch)
                span.tag(deferred=mutation.new_graph.in_deferred)
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
        # Refinement consumes the history, so the engine holds none
        # until the batch succeeds: a failure leaves it refusing to
        # refine, never refining the next batch against a stale one.
        history, self._history = self._history, None
        state, new_history = refine(self._delta, mutation, history)
        self._delta.forward(graph, state, self.num_iterations)
        self._state, self._history = state, new_history
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
            f"ran={ran})"
        )
