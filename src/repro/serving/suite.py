"""Multiple analyses over one shared streaming graph.

Production streaming deployments rarely run a single metric: the same
interaction graph feeds ranking, labelling, anomaly counters, and so
on.  Running one :class:`~repro.core.engine.GraphBoltEngine` per
analysis naively would adjust the graph structure once *per engine* per
batch; :class:`AnalyticsSuite` owns the structure, adjusts it exactly
once, and feeds every engine the same
:class:`~repro.graph.mutable.MutationResult` through
:meth:`~repro.core.engine.GraphBoltEngine.apply_mutation_result`.

Triangle counting (not an iterative vertex program) can be attached
alongside the vertex analyses via ``include_triangles=True``.

Durability: pass a :class:`SuiteRecovery` (one
:class:`~repro.recovery.manager.RecoveryManager` per analysis under a
shared root) and every batch is WAL-logged before the structure moves;
a batch that poisons *any* engine is quarantined across the whole
suite -- every engine rolls back to its checkpoint + WAL tail and the
restored engines are re-attached to one shared structure -- so the
analyses never drift onto different snapshots.  The per-analysis WALs
advance in lockstep (same batch, same sequence number everywhere),
which is what makes the cross-engine quarantine a single seq mark.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from repro.algorithms.triangle_counting import (
    TriangleCounts,
    triangle_counts,
)
from repro.core.engine import GraphBoltEngine
from repro.core.model import IncrementalAlgorithm
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.obs import trace
from repro.obs.registry import get_registry
from repro.recovery.manager import RecoveryManager
from repro.testing.faults import InjectedCrash

__all__ = ["AnalyticsSuite", "SuiteRecovery"]


class SuiteRecovery:
    """One recovery manager per analysis, under a shared root directory.

    Laid out as ``root/<analysis-name>/{wal,checkpoints,...}`` so each
    manager keeps its own checkpoints (engine states differ per
    algorithm) while the suite coordinates sequence numbers and
    quarantine across all of them.
    """

    def __init__(self, root: str, **manager_kwargs) -> None:
        self.root = root
        self._manager_kwargs = manager_kwargs
        self.managers: Dict[str, RecoveryManager] = {}

    def manager(self, name: str) -> RecoveryManager:
        if name not in self.managers:
            directory = os.path.join(self.root, name)
            os.makedirs(directory, exist_ok=True)
            self.managers[name] = RecoveryManager(
                directory, **self._manager_kwargs
            )
        return self.managers[name]

    def close(self) -> None:
        for manager in self.managers.values():
            manager.close()

    def __repr__(self) -> str:
        return (
            f"SuiteRecovery(root={self.root!r}, "
            f"analyses={sorted(self.managers)})"
        )


class AnalyticsSuite:
    """A bundle of GraphBolt engines sharing one streaming structure."""

    def __init__(
        self,
        graph: CSRGraph,
        analyses: Mapping[str, Callable[[], IncrementalAlgorithm]],
        num_iterations: Optional[int] = None,
        include_triangles: bool = False,
        recovery: Optional[SuiteRecovery] = None,
        **engine_kwargs,
    ) -> None:
        if not analyses and not include_triangles:
            raise ValueError("the suite needs at least one analysis")
        if recovery is not None and include_triangles:
            raise ValueError(
                "durable suites cannot include triangle counts yet: "
                "they are maintained incrementally outside the "
                "checkpointed engine state, so a rollback would desync "
                "them"
            )
        self._streaming = StreamingGraph(graph)
        self._factories: Dict[str, Callable[[], IncrementalAlgorithm]] = (
            dict(analyses)
        )
        self.recovery = recovery
        self.engines: Dict[str, GraphBoltEngine] = {}
        for name, factory in analyses.items():
            engine = GraphBoltEngine(
                factory(), num_iterations=num_iterations, **engine_kwargs
            )
            engine.run(streaming=self._streaming)
            self.engines[name] = engine
            if recovery is not None:
                recovery.manager(name).ensure_initial_checkpoint(engine)
        self._triangles: Optional[TriangleCounts] = None
        if include_triangles:
            self._triangles = triangle_counts(graph)
        self.batches_applied = 0
        self.batches_quarantined = 0

    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        return self._streaming.graph

    @property
    def names(self):
        return list(self.engines)

    def values(self, name: str) -> np.ndarray:
        return self.engines[name].values

    @property
    def triangle_counts(self) -> Optional[TriangleCounts]:
        return self._triangles

    # ------------------------------------------------------------------
    def apply(self, batch: MutationBatch) -> Dict[str, np.ndarray]:
        """Adjust the structure once; refine every analysis.

        With a :class:`SuiteRecovery` attached the batch is WAL-logged
        to every analysis before anything moves, and a batch that
        poisons any engine rolls the *whole suite* back (see the module
        docstring); without one, failures propagate unchanged.
        """
        if self.recovery is None:
            mutation = self._streaming.apply_batch(batch)
            results = {
                name: engine.apply_mutation_result(mutation)
                for name, engine in self.engines.items()
            }
            if self._triangles is not None:
                self._update_triangles(mutation)
            self.batches_applied += 1
            return results
        return self._apply_durable(batch)

    def _apply_durable(self, batch: MutationBatch) -> Dict[str, np.ndarray]:
        seq: Optional[int] = None
        for name in self.engines:
            # Lockstep WALs: every manager assigns the same seq.
            seq = self.recovery.manager(name).log_batch(batch)
        poison: Optional[str] = None
        results: Dict[str, np.ndarray] = {}
        try:
            mutation = self._streaming.apply_batch(batch)
        except InjectedCrash:
            raise
        except Exception as exc:  # noqa: BLE001 -- quarantined below
            poison = f"structure: {type(exc).__name__}: {exc}"
        if poison is None:
            for name, engine in self.engines.items():
                manager = self.recovery.manager(name)
                try:
                    values = engine.apply_mutation_result(mutation)
                except InjectedCrash:
                    raise
                except Exception as exc:  # noqa: BLE001
                    poison = f"{name}: {type(exc).__name__}: {exc}"
                    break
                reason = manager.poison_check(values)
                if reason is not None:
                    poison = f"{name}: {reason}"
                    break
                results[name] = values
        self.batches_applied += 1
        if poison is None:
            for name, engine in self.engines.items():
                self.recovery.manager(name).maybe_checkpoint(
                    engine, self.batches_applied
                )
            return results
        return self._quarantine(seq, poison)

    def _quarantine(self, seq: int, reason: str) -> Dict[str, np.ndarray]:
        """Quarantine ``seq`` in every analysis and roll all back.

        A poison batch may have refined *some* engines before failing
        in another; partial application would leave the analyses on
        different effective snapshots, so the rollback is suite-wide
        even for the engines that succeeded.
        """
        with trace.span("suite.quarantine", seq=seq, reason=reason):
            for name in self.engines:
                self.recovery.manager(name).quarantine(seq, reason)
            self._restore_all()
        self.batches_quarantined += 1
        get_registry().counter("suite.batches_quarantined").inc()
        return {
            name: engine.values for name, engine in self.engines.items()
        }

    def _restore_all(self) -> None:
        shared: Optional[StreamingGraph] = None
        for name in list(self.engines):
            manager = self.recovery.manager(name)
            engine, _ = manager.restore_engine(self._factories[name])
            if shared is None:
                # All restored graphs are bit-identical (same WAL, same
                # skip set); adopt the first as the shared structure.
                shared = engine._streaming
            else:
                engine._streaming = shared
            self.engines[name] = engine
        self._streaming = shared

    def _update_triangles(self, mutation) -> None:
        from repro.algorithms.triangle_counting import (
            _triangles_through_edges,
        )

        counts = self._triangles
        new_graph = mutation.new_graph
        if new_graph.num_vertices > counts.per_vertex.size:
            grown = np.zeros(new_graph.num_vertices, dtype=np.int64)
            grown[: counts.per_vertex.size] = counts.per_vertex
            counts.per_vertex = grown
        created = _triangles_through_edges(
            new_graph, mutation.add_src, mutation.add_dst, None
        )
        destroyed = _triangles_through_edges(
            mutation.old_graph, mutation.del_src, mutation.del_dst, None
        )
        for triangle in created:
            for vertex in triangle:
                counts.per_vertex[vertex] += 1
        for triangle in destroyed:
            for vertex in triangle:
                counts.per_vertex[vertex] -= 1
        counts.total += len(created) - len(destroyed)

    def __repr__(self) -> str:
        return (
            f"AnalyticsSuite(analyses={sorted(self.engines)}, "
            f"triangles={self._triangles is not None}, "
            f"batches={self.batches_applied})"
        )
