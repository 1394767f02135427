"""Graph computations expressed as differential dataflows.

The paper (section 5.4) expresses graph computations on Differential
Dataflow "in edge-parallel manner by joining edge tuples with rank
values to be pushed across them, and then grouping them at destination
vertices' rank tuples".  These programs do exactly that:

- :class:`DifferentialPageRank` -- the synchronous iteration unrolled
  into ``num_iterations`` join+reduce stages (ranks -> share-per-edge ->
  contributions grouped at destinations -> damped apply), with degrees
  themselves a differential count so mutations flow end to end.
- :class:`DifferentialSSSP` -- relaxation unrolled into ``num_stages``
  monotone min stages (enough to cover the graph's hop diameter).

Unrolling stages rather than nesting a feedback timestamp keeps every
stage a pure function of the previous one, so retractions (edge
deletions) re-derive cleanly through the chain -- the behaviour real DD
obtains from partially-ordered iteration timestamps.

Both classes wrap the dataflow in the same streaming interface as the
other engines (``values`` / ``apply_mutations``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dataflow.operators import Dataflow
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.runtime.exec import gather_all
from repro.runtime.metrics import EngineMetrics, Timer

__all__ = ["DifferentialPageRank", "DifferentialSSSP"]


class _DifferentialGraphProgram:
    """Shared streaming-graph plumbing for dataflow graph programs."""

    def __init__(self, graph: CSRGraph,
                 metrics: Optional[EngineMetrics] = None) -> None:
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self._streaming = StreamingGraph(graph)
        self.dataflow = Dataflow()
        self._edges_in = self.dataflow.input()
        self._vertices_in = self.dataflow.input()
        self._probe = self._build(
            self._edges_in.stream, self._vertices_in.stream
        )
        with Timer(self.metrics, "initial_run"):
            # Structural feed: never charged as edge computations, but
            # its per-shard feed loads are.
            src, dst, weight = gather_all(graph, self.metrics, count=False)
            self._edges_in.send_records(
                (int(u), (int(v), float(w)))
                for u, v, w in zip(src, dst, weight)
            )
            self._vertices_in.send_records(
                (v, ()) for v in range(graph.num_vertices)
            )
            self.dataflow.run()

    def _build(self, edges, vertices):
        raise NotImplementedError

    @property
    def graph(self) -> CSRGraph:
        return self._streaming.graph

    def apply_mutations(self, batch: MutationBatch) -> np.ndarray:
        with Timer(self.metrics, "adjust_structure"):
            mutation = self._streaming.apply_batch(batch)
        with Timer(self.metrics, "update"):
            self.dataflow.advance_epoch()
            diffs = []
            for u, v, w in zip(mutation.add_src.tolist(),
                               mutation.add_dst.tolist(),
                               mutation.add_weight.tolist()):
                diffs.append(((u, (v, w)), 1))
            for u, v, w in zip(mutation.del_src.tolist(),
                               mutation.del_dst.tolist(),
                               mutation.del_weight.tolist()):
                diffs.append(((u, (v, w)), -1))
            self._edges_in.send(diffs)
            if mutation.grew():
                self._vertices_in.send_records(
                    (v, ())
                    for v in range(mutation.old_graph.num_vertices,
                                   mutation.new_graph.num_vertices)
                )
            self.dataflow.run()
        return self.values

    @property
    def values(self) -> np.ndarray:
        raise NotImplementedError


class DifferentialPageRank(_DifferentialGraphProgram):
    """PageRank as an unrolled differential join+reduce pipeline."""

    name = "DifferentialDataflow-PR"

    def __init__(self, graph: CSRGraph, num_iterations: int = 10,
                 damping: float = 0.85,
                 metrics: Optional[EngineMetrics] = None) -> None:
        self.num_iterations = num_iterations
        self.damping = damping
        super().__init__(graph, metrics)

    def _build(self, edges, vertices):
        damping = self.damping
        degrees = edges.map(lambda rec: (rec[0], 1)).sum_by_key()
        ranks = vertices.map(lambda rec: (rec[0], 1.0))
        base = vertices.map(lambda rec: (rec[0], 0.0))
        for _ in range(self.num_iterations):
            shares = ranks.join(degrees).map(
                lambda rec: (rec[0], rec[1][0] / rec[1][1])
            )
            contributions = shares.join(edges).map(
                # (u, (share, (v, w)))  ->  (v, share)
                lambda rec: (rec[1][1][0], rec[1][0])
            )
            ranks = contributions.concat(base).sum_by_key().map(
                lambda rec: (rec[0], (1.0 - damping) + damping * rec[1])
            )
        return ranks.probe()

    @property
    def values(self) -> np.ndarray:
        state = self._probe.state()
        ranks = np.full(self.graph.num_vertices, 1.0 - self.damping)
        for (vertex, rank), mult in state.items():
            if mult > 0:
                ranks[vertex] = rank
        return ranks


class DifferentialSSSP(_DifferentialGraphProgram):
    """SSSP as unrolled monotone min-relaxation stages."""

    name = "DifferentialDataflow-SSSP"

    def __init__(self, graph: CSRGraph, source: int = 0,
                 num_stages: int = 24,
                 metrics: Optional[EngineMetrics] = None) -> None:
        self.source = source
        self.num_stages = num_stages
        super().__init__(graph, metrics)

    def _build(self, edges, vertices):
        source = self.source
        roots = vertices.filter(lambda rec: rec[0] == source).map(
            lambda rec: (rec[0], 0.0)
        )
        dists = roots
        for _ in range(self.num_stages):
            relaxed = dists.join(edges).map(
                # (u, (d, (v, w)))  ->  (v, d + w)
                lambda rec: (rec[1][1][0], rec[1][0] + rec[1][1][1])
            )
            dists = relaxed.concat(dists).concat(roots).min_by_key()
        return dists.probe()

    @property
    def values(self) -> np.ndarray:
        state = self._probe.state()
        dists = np.full(self.graph.num_vertices, np.inf)
        for (vertex, dist), mult in state.items():
            if mult > 0:
                dists[vertex] = dist
        return dists
