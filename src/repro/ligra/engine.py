"""The Ligra baseline: full synchronous recomputation.

Every iteration aggregates contributions over *all* edges and re-applies
*all* vertices -- Algorithm 1 of the paper.  On graph mutation the engine
simply restarts from initial values on the new snapshot.  This is the
"Ligra" row of Table 5.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.model import IncrementalAlgorithm
from repro.graph.csr import CSRGraph
from repro.ligra.delta import ITERATION_CAP
from repro.obs import trace
from repro.runtime.exec import aggregate_all, count_all_vertices
from repro.runtime.metrics import EngineMetrics, Timer

__all__ = ["LigraEngine"]


class LigraEngine:
    """Full synchronous execution of an :class:`IncrementalAlgorithm`."""

    name = "Ligra"

    def __init__(self, algorithm: IncrementalAlgorithm,
                 metrics: Optional[EngineMetrics] = None) -> None:
        self.algorithm = algorithm
        self.metrics = metrics if metrics is not None else EngineMetrics()

    def run(self, graph: CSRGraph,
            num_iterations: Optional[int] = None) -> np.ndarray:
        """Run the algorithm from scratch and return final vertex values.

        Exactly ``num_iterations`` synchronous iterations run (``None``:
        the algorithm's default), as in the paper's Algorithm 1; a run
        to :data:`ITERATION_CAP` stops after the first iteration that
        moves no value beyond the algorithm's scheduling tolerance.
        """
        algorithm = self.algorithm
        if num_iterations is None:
            num_iterations = algorithm.default_iterations
        all_vertices = np.arange(graph.num_vertices, dtype=np.int64)

        values = algorithm.initial_values(graph)
        with trace.span("compute", engine=self.name,
                        algorithm=algorithm.name), \
                Timer(self.metrics, "compute"):
            for index in range(num_iterations):
                with trace.span("iteration", index=index + 1):
                    new_values = self._iterate(graph, values, all_vertices)
                self.metrics.iterations += 1
                values, old = new_values, values
                if (num_iterations == ITERATION_CAP and not
                        algorithm.values_changed(old, values).any()):
                    break
        return values

    def _iterate(self, graph: CSRGraph, values: np.ndarray,
                 all_vertices: np.ndarray) -> np.ndarray:
        algorithm = self.algorithm
        aggregate = aggregate_all(graph, algorithm, values, self.metrics)
        count_all_vertices(graph, self.metrics)
        previous = values if algorithm.uses_previous_value else None
        return algorithm.apply(graph, aggregate, all_vertices, previous)
