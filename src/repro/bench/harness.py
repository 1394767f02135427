"""Streaming runners: one per engine family, behind one registry.

Each runner exposes the same minimal protocol -- ``setup(graph)`` then
``apply(batch) -> values`` with an :class:`EngineMetrics` attached -- so
experiments, the CLI and the equivalence oracle all drive identical
mutation streams through :data:`ENGINES`, the only engine-key -> runner
map in the package:

==============  =====================================================
``ligra``       :class:`LigraRunner` -- full synchronous recomputation
                per snapshot (the "Ligra" column; the oracle's truth)
``gbreset``     :class:`DeltaRunner` -- delta/selective-scheduling
                restart per snapshot (the "GB-Reset" column)
``graphbolt``   :class:`GraphBoltRunner` -- dependency-driven
                refinement (the "GraphBolt" column), optionally in
                retract/propagate mode ("GraphBolt-RP" of Figure 8)
``naive``       :class:`NaiveRunner` -- the delta loop from the last
                snapshot's values (deliberately incorrect: Table 1 and
                the plant-a-bug self-test)
``kickstarter`` :class:`KickStarterRunner` -- trim-and-propagate trees
                (monotonic path algorithms)
``dataflow``    :class:`DataflowRunner` -- mini differential dataflow
                (SSSP only, small graphs)
==============  =====================================================

To mirror the paper's methodology ("each algorithm version had the same
number of pending edge mutations to be processed"), every runner is fed
the identical batch sequence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Type

import numpy as np

from repro.core.engine import GraphBoltEngine
from repro.core.model import IncrementalAlgorithm
from repro.dataflow.graph_programs import DifferentialSSSP
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.kickstarter.engine import KickStarterEngine
from repro.ligra.delta import DeltaEngine, DeltaState
from repro.ligra.engine import LigraEngine
from repro.obs import trace
from repro.obs.registry import get_registry, ingest_engine_metrics
from repro.runtime.exec import load_imbalance
from repro.runtime.metrics import EngineMetrics, Timer

__all__ = [
    "StreamingRunner",
    "LigraRunner",
    "DeltaRunner",
    "GraphBoltRunner",
    "NaiveRunner",
    "KickStarterRunner",
    "DataflowRunner",
    "ENGINES",
    "TABLE5_ENGINES",
    "BatchResult",
    "StreamResult",
    "run_stream",
]

AlgorithmFactory = Callable[[], IncrementalAlgorithm]


class StreamingRunner:
    """Base protocol: set up on a snapshot, then apply batches.

    ``num_shards`` is how many owner blocks the run's ``shard_loads``
    are accounted over (see :mod:`repro.runtime.exec`).
    """

    name = "runner"

    def __init__(self, algorithm_factory: AlgorithmFactory,
                 num_iterations: Optional[int] = None,
                 num_shards: int = 1) -> None:
        self.algorithm_factory = algorithm_factory
        self.num_iterations = num_iterations
        self.metrics = EngineMetrics(num_shards=num_shards)

    def setup(self, graph: CSRGraph) -> np.ndarray:
        raise NotImplementedError

    def apply(self, batch: MutationBatch) -> np.ndarray:
        raise NotImplementedError

    @property
    def graph(self) -> CSRGraph:
        raise NotImplementedError


class _RestartRunner(StreamingRunner):
    """Shared logic for engines that restart from scratch per snapshot."""

    def setup(self, graph: CSRGraph) -> np.ndarray:
        self._streaming = StreamingGraph(graph)
        return self._run_snapshot()

    def apply(self, batch: MutationBatch) -> np.ndarray:
        with Timer(self.metrics, "adjust_structure"):
            self._streaming.apply_batch(batch)
        return self._run_snapshot()

    @property
    def graph(self) -> CSRGraph:
        return self._streaming.graph

    def _run_snapshot(self) -> np.ndarray:
        raise NotImplementedError


class LigraRunner(_RestartRunner):
    """Full synchronous recomputation per snapshot."""

    name = "Ligra"

    def _run_snapshot(self) -> np.ndarray:
        engine = LigraEngine(self.algorithm_factory(), self.metrics)
        return engine.run(self._streaming.graph, self.num_iterations)


class DeltaRunner(_RestartRunner):
    """Selective-scheduling recomputation per snapshot (GB-Reset)."""

    name = "GB-Reset"

    def _run_snapshot(self) -> np.ndarray:
        engine = DeltaEngine(self.algorithm_factory(), self.metrics)
        return engine.run(self._streaming.graph, self.num_iterations)


class NaiveRunner(_RestartRunner):
    """The known-wrong baseline of the paper's Figure 2 / Table 1: each
    snapshot after the first runs the delta loop from the last one's
    values, extended to the new graph (``S*(G_T, R_G)``) -- no
    refinement, no BSP guarantee."""

    name = "GraphBolt-naive"

    def setup(self, graph: CSRGraph) -> np.ndarray:
        self._streaming = StreamingGraph(graph)
        self._engine = DeltaEngine(self.algorithm_factory(), self.metrics)
        self._values = self._engine.run(graph, self.num_iterations)
        return self._values

    def _run_snapshot(self) -> np.ndarray:
        graph = self._streaming.graph
        algorithm = self._engine.algorithm
        values = algorithm.extend_values(self._values, graph)
        state = DeltaState(
            values=values,
            prev_values=values.copy(),
            aggregate=algorithm.identity_aggregate(graph.num_vertices),
            frontier=np.empty(0, dtype=np.int64),
            iteration=0,
        )
        with trace.span("naive_continue"), \
                Timer(self.metrics, "naive_continue"):
            self._engine.advance(graph, state, self.num_iterations)
        self._values = state.values
        return state.values


class _IncrementalRunner(StreamingRunner):
    """Shared logic for engines that carry state across batches:
    ``setup`` builds ``self.engine``, which owns the graph."""

    engine = None

    def apply(self, batch: MutationBatch) -> np.ndarray:
        return self.engine.apply_mutations(batch)

    @property
    def graph(self) -> CSRGraph:
        return self.engine.graph


class GraphBoltRunner(_IncrementalRunner):
    """Dependency-driven incremental processing."""

    name = "GraphBolt"

    def __init__(self, algorithm_factory: AlgorithmFactory,
                 num_iterations: Optional[int] = None,
                 horizon: Optional[int] = None,
                 retract: bool = False,
                 num_shards: int = 1) -> None:
        super().__init__(algorithm_factory, num_iterations, num_shards)
        self.horizon = horizon
        self.retract = retract
        if retract:
            self.name = "GraphBolt-RP"

    def setup(self, graph: CSRGraph) -> np.ndarray:
        self.engine = GraphBoltEngine(
            self.algorithm_factory(),
            num_iterations=self.num_iterations,
            horizon=self.horizon,
            retract=self.retract,
            metrics=self.metrics,
        )
        return self.engine.run(graph)


class KickStarterRunner(_IncrementalRunner):
    """Adapter for :class:`KickStarterEngine` (builds on ``setup``)."""

    name = "KickStarter"

    def __init__(self, algorithm_factory: AlgorithmFactory,
                 num_iterations: Optional[int] = None,
                 unit_weights: bool = False,
                 num_shards: int = 1) -> None:
        super().__init__(algorithm_factory, num_iterations, num_shards)
        self.unit_weights = unit_weights

    def setup(self, graph: CSRGraph) -> np.ndarray:
        self.engine = KickStarterEngine(
            graph, source=0, unit_weights=self.unit_weights,
            metrics=self.metrics,
        )
        return self.engine.values


class DataflowRunner(_IncrementalRunner):
    """Adapter for the mini differential-dataflow SSSP program."""

    name = "DifferentialDataflow"

    def setup(self, graph: CSRGraph) -> np.ndarray:
        self.engine = DifferentialSSSP(
            graph, source=0,
            num_stages=graph.num_vertices + 4,
            metrics=self.metrics,
        )
        return self.engine.values


#: The one engine-key -> runner-class registry (see module docstring).
ENGINES: Dict[str, Type[StreamingRunner]] = {
    "ligra": LigraRunner,
    "gbreset": DeltaRunner,
    "graphbolt": GraphBoltRunner,
    "naive": NaiveRunner,
    "kickstarter": KickStarterRunner,
    "dataflow": DataflowRunner,
}

#: The engine columns of Table 5, reference (from-scratch truth) first:
#: the only engines that run any algorithm, hence the only ones the
#: CLI and the experiment matrix accept.
TABLE5_ENGINES = ("ligra", "gbreset", "graphbolt")


# ----------------------------------------------------------------------
# Stream execution and measurement
# ----------------------------------------------------------------------
@dataclass
class BatchResult:
    """Measurements for one applied batch.

    ``seconds`` is compute time only: structure adjustment is excluded,
    matching the paper, which reports it separately (section 4.1) and
    charges all engines identically for it.  ``total_seconds`` includes
    it.
    """

    seconds: float
    total_seconds: float
    edge_computations: int
    vertex_computations: int


@dataclass
class StreamResult:
    """Measurements for one runner over a whole stream."""

    runner: str
    setup_seconds: float
    batches: List[BatchResult] = field(default_factory=list)
    final_values: Optional[np.ndarray] = None
    final_metrics: Optional[EngineMetrics] = None

    @property
    def total_apply_seconds(self) -> float:
        return sum(batch.seconds for batch in self.batches)

    @property
    def total_edge_computations(self) -> int:
        return sum(batch.edge_computations for batch in self.batches)


def run_stream(runner: StreamingRunner, graph: CSRGraph,
               batches: Sequence[MutationBatch]) -> StreamResult:
    """Run a full stream through one runner, timing each batch."""
    start = time.perf_counter()
    runner.setup(graph)
    setup_seconds = time.perf_counter() - start
    result = StreamResult(runner=runner.name, setup_seconds=setup_seconds)
    registry = get_registry()
    values = None
    for batch in batches:
        before = runner.metrics.snapshot()
        start = time.perf_counter()
        values = runner.apply(batch)
        elapsed = time.perf_counter() - start
        delta = runner.metrics.delta_since(before)
        adjust = delta.phase_seconds.get("adjust_structure", 0.0)
        result.batches.append(
            BatchResult(
                seconds=max(elapsed - adjust, 0.0),
                total_seconds=elapsed,
                edge_computations=delta.edge_computations,
                vertex_computations=delta.vertex_computations,
            )
        )
        # Per-batch latency distributions: overall plus each engine
        # phase (refine/hybrid/compute/...) from the metrics delta.
        registry.histogram(f"{runner.name}.batch_seconds").observe(elapsed)
        for phase, seconds in delta.phase_seconds.items():
            if seconds > 0.0:
                registry.histogram(
                    f"{runner.name}.phase.{phase}_seconds"
                ).observe(seconds)
    result.final_values = values
    result.final_metrics = runner.metrics.snapshot()
    ingest_engine_metrics(result.final_metrics, runner.name,
                          registry=registry)
    registry.gauge(f"{runner.name}.shard_imbalance").set(
        load_imbalance(result.final_metrics.shard_loads)
    )
    return result
