"""The main-loop / branch-loop analytics server.

Architecture (after Tornado, adapted to GraphBolt's state):

- **Main loop** -- a :class:`~repro.core.engine.GraphBoltEngine`
  configured with a short iteration window (``approx_iterations``).
  Every ingested batch is processed with dependency-driven refinement,
  so the maintained state is *exactly* the BSP result of the short
  window on the latest snapshot -- an approximation only in the sense
  that the window is short.
- **Branch loop** -- a query copies the main loop's rolling
  :class:`~repro.ligra.delta.DeltaState` and drives it forward with the
  delta engine, either to a longer fixed window or until convergence.
  The copy means ingestion state is untouched; because BSP iterations
  are a pure function of state + graph, the branch result equals a
  from-scratch run of the same depth on the current snapshot.  A
  completed answer is reused until the state changes.

The branch runs against the snapshot current at query time; batches
ingested afterwards do not retroactively change an answered query
(the buffering semantics of paper section 4.1).

Fault tolerance (see ``docs/operations.md``): pass a
:class:`~repro.recovery.manager.RecoveryManager` as ``recovery`` and the
server becomes durable and self-healing -- every batch is write-ahead
logged before it is applied, checkpoints are taken on the manager's
cadence, and a *poison batch* (one whose refinement raises or produces
NaNs) is quarantined: the engine is rolled back from the last checkpoint
plus WAL replay, the batch is durably skipped, and the loop keeps
serving (``serving.batches_quarantined`` counts them).  Without a
manager the server behaves exactly as before: a failing batch
propagates to the caller.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro.core.engine import GraphBoltEngine
from repro.core.model import IncrementalAlgorithm
from repro.graph.csr import CSRGraph
from repro.graph.mutation import MutationBatch
from repro.ligra.delta import DeltaEngine
from repro.obs import trace
from repro.obs.registry import get_registry
from repro.runtime.deadline import Deadline
from repro.runtime.metrics import EngineMetrics
from repro.testing import faults
from repro.testing.faults import InjectedCrash

__all__ = ["QueryResult", "StreamingAnalyticsServer"]


@dataclass
class QueryResult:
    """An answer computed by a branch loop.

    ``degraded`` is set iff a deadline fired before the requested window
    completed; the values are then still an *exact* BSP state -- the
    same bits a from-scratch run truncated at ``iterations_completed``
    would produce -- just a shallower one, with ``residual_l1``
    reporting how much the last iteration still moved the values.
    """

    values: np.ndarray
    iterations: int
    seconds: float
    batches_ingested: int
    edge_computations: int
    degraded: bool = False
    iterations_completed: int = 0
    residual_l1: float = 0.0


class StreamingAnalyticsServer:
    """Serve approximate results continuously, exact results on demand."""

    #: ``(engine, state, window, answer)`` of the last complete branch;
    #: engine and state held weakly, so a replaced one is freed.
    _answer: Optional[tuple] = None

    def __init__(
        self,
        algorithm_factory: Callable[[], IncrementalAlgorithm],
        graph: CSRGraph,
        approx_iterations: int = 3,
        exact_iterations: Optional[int] = None,
        recovery=None,
    ) -> None:
        algorithm = algorithm_factory()
        self._configure(
            algorithm_factory, algorithm,
            approx_iterations=approx_iterations,
            exact_iterations=exact_iterations,
        )
        self.engine = GraphBoltEngine(algorithm,
                                      num_iterations=approx_iterations)
        self.engine.run(graph)
        self.batches_ingested = 0
        #: The WAL position the engine's state stands at: every record
        #: below it is applied or skip-marked, none above it is.
        self.state_seq = 0
        self.queries_served = 0
        self.queries_degraded = 0
        self.batches_quarantined = 0
        self.restores = 0
        self.last_ingest_seconds = 0.0
        self.last_query_seconds = 0.0
        self.recovery = recovery
        if recovery is not None:
            # Generation zero: the WAL holds mutations, not the initial
            # graph, so recovery always needs a base checkpoint.
            recovery.ensure_initial_checkpoint(self.engine)

    def _configure(self, algorithm_factory, algorithm, *,
                   approx_iterations, exact_iterations) -> None:
        if approx_iterations < 1:
            raise ValueError("the main loop needs at least one iteration")
        if exact_iterations is None:
            exact_iterations = algorithm.default_iterations
        if exact_iterations < approx_iterations:
            raise ValueError(
                "exact window must extend the approximate window"
            )
        self.algorithm_factory = algorithm_factory
        self.approx_iterations = approx_iterations
        self.exact_iterations = exact_iterations

    @classmethod
    def from_engine(
        cls,
        engine: GraphBoltEngine,
        algorithm_factory: Callable[[], IncrementalAlgorithm],
        *,
        exact_iterations: Optional[int] = None,
        batches_ingested: int = 0,
        recovery=None,
    ) -> "StreamingAnalyticsServer":
        """Wrap an already-run engine (a recovered checkpoint) without
        re-running the initial snapshot."""
        engine._require_run()
        server = cls.__new__(cls)
        server._configure(
            algorithm_factory, engine.algorithm,
            approx_iterations=engine.num_iterations,
            exact_iterations=exact_iterations,
        )
        server.engine = engine
        server.batches_ingested = batches_ingested
        server.state_seq = batches_ingested
        server.queries_served = 0
        server.queries_degraded = 0
        server.batches_quarantined = 0
        server.restores = 0
        server.last_ingest_seconds = 0.0
        server.last_query_seconds = 0.0
        server.recovery = recovery
        return server

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        return self.engine.graph

    @property
    def approximate_values(self) -> np.ndarray:
        """The continuously maintained short-window results."""
        return self.engine.values

    def ingest(self, batch: MutationBatch,
               logged_seq: Optional[int] = None) -> np.ndarray:
        """Apply one mutation batch in the main loop.

        With a recovery manager attached the batch is WAL-logged first
        and a poison batch is quarantined instead of raising; without
        one, failures propagate to the caller unchanged.

        ``logged_seq`` marks a batch the caller already WAL-logged (the
        admission controller logs at submit time, before queueing, so
        queued batches survive a crash); pass its sequence number to
        skip the duplicate append.
        """
        start = time.perf_counter()
        registry = get_registry()
        with trace.span("ingest", loop="main",
                        index=self.batches_ingested,
                        mutations=len(batch)):
            if self.recovery is None:
                faults.hit("engine.refine")
                values = self.engine.apply_mutations(batch)
            else:
                values = self._ingest_durable(batch, logged_seq)
        self.batches_ingested += 1
        if self.recovery is not None:
            # Labelled by WAL position: shed and superseded records
            # are never ingested, so the count of batches lags it.
            self.recovery.maybe_checkpoint(self.engine, self.state_seq)
        self.last_ingest_seconds = time.perf_counter() - start
        registry.histogram("serving.ingest_seconds").observe(
            self.last_ingest_seconds
        )
        registry.gauge("serving.batches_ingested").set(
            self.batches_ingested
        )
        return values

    def _ingest_durable(self, batch: MutationBatch,
                        logged_seq: Optional[int] = None) -> np.ndarray:
        """Write-ahead, apply, and quarantine-on-poison."""
        if logged_seq is None:
            seq = self.recovery.log_batch(batch)
        else:
            seq = logged_seq
        poison: Optional[str] = None
        values: Optional[np.ndarray] = None
        try:
            faults.hit("engine.refine")
            values = self.engine.apply_mutations(batch)
        except InjectedCrash:
            raise
        except Exception as exc:  # noqa: BLE001 -- quarantined below
            poison = f"{type(exc).__name__}: {exc}"
        if poison is None:
            poison = self.recovery.poison_check(values)
        if poison is None:
            self.state_seq = seq + 1
            return values
        return self._quarantine(seq, poison)

    def _quarantine(self, seq: int, reason: str) -> np.ndarray:
        """Roll the engine back from checkpoint + WAL, skipping ``seq``.

        ``apply_mutations`` may have mutated the graph structure before
        failing, so the in-memory engine is untrusted; the durable state
        (which never applied the batch's *effects*, only logged it) is
        the rollback source.  The replay stops at ``seq``: records above
        it may still wait in an admission queue, which applies them.
        """
        self.recovery.quarantine(seq, reason)
        with trace.span("quarantine", seq=seq, reason=reason):
            engine, self.state_seq = self.recovery.restore_engine(
                self.algorithm_factory, end_seq=seq + 1
            )
        self.engine = engine
        self.batches_quarantined += 1
        self.restores += 1
        registry = get_registry()
        registry.counter("serving.batches_quarantined").inc()
        registry.counter("serving.restores").inc()
        return self.engine.values

    def install(self, batches, state, seq: int) -> None:
        """Queue ``batches``' structure and take ``state`` -- refined by
        another server over the same stream, standing at WAL position
        ``seq`` -- as the main loop's results, without refining (see
        :meth:`GraphBoltEngine.adopt`: the structure catches up when
        :attr:`graph` is read; ``state=None`` queues only, and
        :attr:`state_seq` stays behind).  A read replica's live path."""
        self.engine.adopt(batches, state)
        self.batches_ingested += len(batches)
        if state is not None:
            self.state_seq = seq

    # ------------------------------------------------------------------
    # Branch loop
    # ------------------------------------------------------------------
    def query(self, deadline: Optional[Deadline] = None) -> QueryResult:
        """Branch the current state forward to an exact answer: to
        ``exact_iterations`` (``delta.ITERATION_CAP`` answers at
        convergence).

        Does not perturb the main loop: the rolling state is copied and
        iterated by a detached delta engine.  A completed answer is
        reused until the state changes: every path that changes it
        (ingest, quarantine rollback, checkpoint load, a new server)
        assigns a new engine or state object and nothing mutates a
        state in place, so their identity keys the one remembered
        answer.  A hit returns a copy of its values and
        reports ``edge_computations=0``.

        ``deadline`` bounds the branch: a
        :class:`~repro.runtime.deadline.WallClockDeadline` budget, or
        any :class:`~repro.runtime.deadline.Deadline` (a deterministic
        one in tests).  On expiry the best-so-far
        state is returned with ``degraded=True`` -- never an exception:
        a deadline query always produces a usable BSP state, identical
        to a from-scratch run truncated at ``iterations_completed``.
        A degraded answer is never remembered, and a hit ignores the
        deadline: its answer is already the complete window.
        """
        if deadline is not None:
            faults.hit("query.deadline")
        start = time.perf_counter()
        engine, live = self.engine, self.engine._state
        memo = self._answer
        cached = (memo is not None and memo[0]() is engine
                  and memo[1]() is live)
        with trace.span("query", loop="branch", index=self.queries_served,
                        cached=cached) as span:
            if cached:
                answer = memo[2]
            else:
                answer = self._branch(engine.graph, live,
                                      self.exact_iterations, deadline)
                if not answer.degraded:
                    self._answer = (weakref.ref(engine), weakref.ref(live),
                                    answer)
            span.tag(iterations=answer.iterations, degraded=answer.degraded)
        self.queries_served += 1
        # One measurement: the recorded histogram and the reported
        # latency must agree.
        seconds = time.perf_counter() - start
        self.last_query_seconds = seconds
        registry = get_registry()
        registry.histogram("serving.query_seconds").observe(seconds)
        if cached:
            registry.counter("serving.query_cache_hits").inc()
        if answer.degraded:
            self.queries_degraded += 1
            registry.counter("serving.queries_degraded").inc()
        return replace(
            answer, values=answer.values.copy(), seconds=seconds,
            batches_ingested=self.batches_ingested,
            edge_computations=0 if cached else answer.edge_computations,
        )

    def _branch(self, graph, live, window, deadline) -> QueryResult:
        """Run one branch loop from a copy of ``live`` to iteration
        ``window``."""
        metrics = EngineMetrics()
        branch_engine = DeltaEngine(self.algorithm_factory(), metrics)
        state = live.copy()
        # Only the deadline leaves the window incomplete: an early
        # fixpoint means further iterations are identity, so the state
        # already equals the full-window answer and is not degraded.
        degraded = branch_engine.forward(graph, state, window, deadline)
        return QueryResult(
            values=state.values,
            iterations=state.iteration,
            seconds=0.0,
            batches_ingested=self.batches_ingested,
            edge_computations=metrics.edge_computations,
            degraded=degraded,
            iterations_completed=state.iteration,
            residual_l1=state.residual_l1(),
        )

    def __repr__(self) -> str:
        return (
            f"StreamingAnalyticsServer(algorithm="
            f"{self.engine.algorithm.name}, "
            f"approx={self.approx_iterations}, "
            f"exact={self.exact_iterations}, "
            f"ingested={self.batches_ingested}, "
            f"queries={self.queries_served})"
        )
