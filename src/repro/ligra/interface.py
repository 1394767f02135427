"""The graph-parallel primitives: ``edge_map`` and ``vertex_map``.

These are the vectorised counterparts of Ligra's interface (paper
section 4.2: "GraphBolt builds over the graph parallel interface to
provide edgeMap and vertexMap functions").  ``edge_map`` gathers the
out-edges of a frontier and feeds them to a kernel; ``vertex_map``
applies a kernel over a vertex subset and returns the ids the kernel
flagged.

Every primitive dispatches through an execution backend
(:mod:`repro.runtime.exec`): the default :class:`SerialBackend` gathers
monolithically exactly as before, while :class:`ShardedBackend` runs the
gather shard by shard over a degree-balanced vertex partition and
records measured per-shard loads -- with bit-for-bit identical results.
Edge-computation metrics are counted inside the backend, the single
gather path all engines share.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.ligra.frontier import VertexSubset
from repro.runtime.exec import ExecutionBackend, resolve_backend
from repro.runtime.metrics import EngineMetrics

__all__ = ["edge_map", "vertex_map", "pull_edges"]

EdgeKernel = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


def edge_map(
    graph: CSRGraph,
    frontier: VertexSubset,
    kernel: Optional[EdgeKernel] = None,
    metrics: Optional[EngineMetrics] = None,
    backend: Optional[ExecutionBackend] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather the frontier's out-edges and optionally run a kernel.

    Returns the gathered ``(src, dst, weight)`` arrays so callers that
    need the raw edges (all our engines) avoid a second gather.
    """
    backend = resolve_backend(backend)
    src, dst, weight = backend.gather_out(graph, frontier.ids, metrics)
    if kernel is not None:
        kernel(src, dst, weight)
    return src, dst, weight


def pull_edges(
    graph: CSRGraph,
    targets: np.ndarray,
    metrics: Optional[EngineMetrics] = None,
    backend: Optional[ExecutionBackend] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather the in-edges of ``targets`` (pull direction).

    Used by the re-evaluation strategy for non-decomposable aggregations,
    which reconstructs each target's full input set from its incoming
    neighbours (paper sections 3.3 and 4.2).
    """
    backend = resolve_backend(backend)
    return backend.gather_in(
        graph, np.asarray(targets, dtype=np.int64), metrics
    )


def vertex_map(
    frontier: VertexSubset,
    kernel: Callable[[np.ndarray], np.ndarray],
    metrics: Optional[EngineMetrics] = None,
    graph: Optional[CSRGraph] = None,
    backend: Optional[ExecutionBackend] = None,
) -> VertexSubset:
    """Apply ``kernel`` to the frontier's ids; kernel returns a keep-mask.

    Mirrors Ligra's vertexMap returning the subset of vertices for which
    the kernel returned true.  Pass ``graph`` to attribute the vertex
    work to owning shards; without it the count stays aggregate-only.
    """
    ids = frontier.ids
    if metrics is not None:
        if graph is not None:
            resolve_backend(backend).count_vertices(graph, ids, metrics)
        else:
            metrics.count_vertices(ids.size)
    keep = kernel(ids)
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != ids.shape:
        raise ValueError("vertex kernel must return one flag per vertex")
    return VertexSubset.from_ids(frontier.num_vertices, ids[keep])
