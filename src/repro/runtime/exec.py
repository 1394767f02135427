"""The kernel layer: gathers, scatters and owner-charged work accounting.

GraphBolt's scaling argument (Table 6) is about how work decomposes
across cores, yet a monolithic edge gather has no decomposition to
measure.  This module supplies one without forking execution:

- :class:`PartitionedCSR` splits the vertex space into ``P`` contiguous,
  degree-balanced owner blocks (GBBS-style: a vertex's owner owns its
  out-edges for push traversals and its in-edges for pull traversals).
- The kernel functions below are the one path every engine gathers,
  reduces and counts through.  They execute serially; what is sharded
  is the *accounting*: each gathered edge, scattered contribution and
  applied vertex is charged to the block that owns it, in
  ``metrics.shard_loads``, over ``metrics.num_shards`` blocks
  (``EngineMetrics(num_shards=P)``; the default 1 charges shard ``"0"``).

Since nothing but the charge depends on ``P``, values and work counters
are the same for every shard count by construction.  The load vector is
what a multiprocess deployment following the owner-computes rule would
execute per worker, and what the calibrated makespan model
(:func:`~repro.runtime.parallel.project`) schedules onto cores.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.sparse import csc_array

from repro.core.aggregation import SumAggregation
from repro.runtime.metrics import EngineMetrics

__all__ = [
    "PartitionedCSR",
    "aggregate_all",
    "count_all_vertices",
    "count_vertices",
    "gather_all",
    "gather_in",
    "gather_out",
    "load_imbalance",
    "scatter",
    "scatter_delta",
    "scatter_retract",
    "sweeps_as_product",
]

Edges = Tuple[np.ndarray, np.ndarray, np.ndarray]


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class PartitionedCSR:
    """Contiguous, degree-balanced partition of a graph's vertex space.

    ``boundaries`` is an int64 array of length ``P + 1`` with
    ``boundaries[0] == 0`` and ``boundaries[-1] == num_vertices``; shard
    ``k`` owns vertices ``boundaries[k] .. boundaries[k+1] - 1``.
    Contiguity keeps shard membership a binary search and -- because CSR
    rows are laid out in vertex order -- makes each shard's out-edge
    block a contiguous slice of the CSR arrays.
    """

    def __init__(self, boundaries: np.ndarray) -> None:
        boundaries = np.asarray(boundaries, dtype=np.int64)
        if boundaries.ndim != 1 or boundaries.size < 2:
            raise ValueError("boundaries must be a 1-D array of P+1 cuts")
        if boundaries[0] != 0:
            raise ValueError("first boundary must be 0")
        if np.any(np.diff(boundaries) < 0):
            raise ValueError("boundaries must be non-decreasing")
        self.boundaries = boundaries

    @classmethod
    def compute(cls, graph, num_shards: int) -> "PartitionedCSR":
        """Degree-balanced contiguous split of ``graph``'s vertex space.

        Per-vertex load is ``out_degree + 1`` (each vertex also costs
        one apply), and cut points are placed at equal fractions of the
        cumulative load -- the standard prefix-sum block partitioning of
        parallel CSR kernels.  Deterministic for a given graph.
        """
        if num_shards < 1:
            raise ValueError("need at least one shard")
        num_vertices = graph.num_vertices
        if num_vertices == 0:
            return cls(np.zeros(num_shards + 1, dtype=np.int64))
        loads = graph.out_degrees().astype(np.int64) + 1
        cumulative = np.cumsum(loads)
        total = int(cumulative[-1])
        targets = total * np.arange(1, num_shards, dtype=np.float64)
        targets /= num_shards
        inner = np.searchsorted(cumulative, targets, side="left") + 1
        boundaries = np.empty(num_shards + 1, dtype=np.int64)
        boundaries[0] = 0
        boundaries[1:num_shards] = np.minimum(inner, num_vertices)
        boundaries[num_shards] = num_vertices
        boundaries[1:num_shards] = np.maximum.accumulate(
            boundaries[1:num_shards]
        )
        return cls(boundaries)

    @classmethod
    def for_graph(cls, graph, num_shards: int) -> "PartitionedCSR":
        """The cached partition of ``graph`` (computed on first use).

        The cache lives on the graph object so each snapshot carries its
        partition.  Snapshots are immutable: a batch, vertex growth
        included, yields a new snapshot, whose partition is computed
        afresh from its own degrees.
        """
        cache = getattr(graph, "_shard_cache", None)
        if cache is None:
            cache = graph._shard_cache = {}
        partition = cache.get(num_shards)
        if partition is None:
            partition = cls.compute(graph, num_shards)
            cache[num_shards] = partition
        return partition

    def shard_of(self, ids: np.ndarray) -> np.ndarray:
        """Owner shard of each vertex id (vectorised binary search)."""
        ids = np.asarray(ids, dtype=np.int64)
        return np.searchsorted(self.boundaries, ids, side="right") - 1

    def __repr__(self) -> str:
        return (f"PartitionedCSR(P={self.boundaries.size - 1}, "
                f"V={int(self.boundaries[-1])})")


def load_imbalance(shard_loads) -> float:
    """Max-over-mean load factor of a shard load vector (1.0 = perfectly
    balanced).  Accepts the ``EngineMetrics.shard_loads`` dict or any
    sequence; empty input reports 1.0."""
    if isinstance(shard_loads, dict):
        shard_loads = list(shard_loads.values())
    loads = np.asarray(shard_loads, dtype=np.float64)
    if loads.size == 0 or loads.sum() <= 0:
        return 1.0
    return float(loads.max() / loads.mean())


# ----------------------------------------------------------------------
# Owner accounting
# ----------------------------------------------------------------------
def _record(metrics: EngineMetrics, counts: np.ndarray) -> None:
    for shard in np.flatnonzero(counts):
        metrics.count_shard_load(str(int(shard)), int(counts[shard]))


def _charge(graph, metrics: Optional[EngineMetrics], ids) -> None:
    """One unit of load per id, to the block that owns the vertex."""
    ids = np.asarray(ids)
    if metrics is None or ids.size == 0:
        return
    shards = metrics.num_shards
    if shards == 1:
        metrics.count_shard_load("0", ids.size)
    else:
        owners = PartitionedCSR.for_graph(graph, shards).shard_of(ids)
        _record(metrics, np.bincount(owners, minlength=shards))


def _charge_sweep(graph, metrics: EngineMetrics, offsets=None) -> None:
    """A whole-graph sweep over the CSR array ``offsets`` indexes (the
    vertices themselves when ``None``): rows are laid out in vertex
    order, so a block's share is the slice between its boundaries."""
    shards = metrics.num_shards
    if shards == 1:
        total = graph.num_vertices if offsets is None else int(offsets[-1])
        if total:
            metrics.count_shard_load("0", total)
    else:
        cuts = PartitionedCSR.for_graph(graph, shards).boundaries
        _record(metrics, np.diff(cuts if offsets is None else offsets[cuts]))


# ----------------------------------------------------------------------
# Gathers.  Each charges the owners and adds the gathered edge count to
# ``metrics.edge_computations``, except a structural gather that is not
# algorithm work (``gather_in(count=False)``, and ``gather_all``).
# ----------------------------------------------------------------------
def gather_out(graph, vertices: np.ndarray,
               metrics: Optional[EngineMetrics] = None) -> Edges:
    """Out-edges of ``vertices`` (push), owned by their sources."""
    src, dst, weight = graph.out_edges_of(vertices)
    if metrics is not None:
        metrics.count_edges(src.size)
    _charge(graph, metrics, src)
    return src, dst, weight


def gather_in(graph, vertices: np.ndarray,
              metrics: Optional[EngineMetrics] = None,
              count: bool = True) -> Edges:
    """In-edges of ``vertices`` (pull), owned by the *targets* whose
    input sets are being rebuilt (paper sections 3.3 and 4.2)."""
    src, dst, weight = graph.in_edges_of(vertices)
    if metrics is not None and count:
        metrics.count_edges(src.size)
    _charge(graph, metrics, dst)
    return src, dst, weight


def gather_all(graph, metrics: Optional[EngineMetrics] = None) -> Edges:
    """Every edge in CSR order, owned by its source: a structural feed,
    charged to the owners' loads but counted as no edge computation."""
    src, dst, weight = graph.all_edges()
    if metrics is not None:
        _charge_sweep(graph, metrics, graph.out_offsets)
    return src, dst, weight


# ----------------------------------------------------------------------
# The dense sweep
# ----------------------------------------------------------------------
def aggregate_all(graph, algorithm, values: np.ndarray,
                  metrics: Optional[EngineMetrics]) -> np.ndarray:
    """One dense iteration's aggregate, rebuilt from the identity:
    ``(+)`` over every edge ``(u, v)`` of ``contributions(values[u])``.

    The one sweep behind the Ligra baseline, GB-Reset's first and dense
    iterations and dense-mode refinement: every edge is one edge
    computation, charged as a :func:`gather_all` followed by a
    :func:`scatter` would charge it -- once at its source's owner
    (gather), once at its target's (reduce).

    An ``edge_weighted`` algorithm over a plain sum is the product of
    the snapshot's out-edge arrays, read as the transpose's CSC, with
    ``values``: each target's terms are added onto 0.0 in ascending
    source order, the order the CSR-order reduction adds them, so the
    bits are the same, no per-edge array is built and the in-edge
    arrays are not read.  Every other algorithm visits the edges in CSR
    order and, starting from the identity, reduces with
    :meth:`Aggregation.scatter`.
    """
    num_vertices = graph.num_vertices
    if metrics is not None:
        metrics.count_edges(graph.num_edges)
        _charge_sweep(graph, metrics, graph.out_offsets)
        _charge_sweep(graph, metrics, graph.in_offsets)
    if sweeps_as_product(algorithm):
        transpose = csc_array(
            (graph.out_weights, graph.out_targets, graph.out_offsets),
            shape=(num_vertices, num_vertices), copy=False,
        )
        return transpose @ values
    aggregate = algorithm.identity_aggregate(num_vertices)
    if graph.num_edges:
        src, dst, weight = graph.all_edges()
        contributions = algorithm.contributions(
            graph, np.take(values, src, axis=0), src, dst, weight
        )
        expected = (src.size, *algorithm.aggregation_shape)
        if contributions.shape != expected:
            # A malformed user algorithm gets a readable message
            # instead of an error from inside the reduction.
            raise ValueError(
                f"{algorithm.name}.contributions returned shape "
                f"{contributions.shape}, expected {expected} "
                f"(edges selected x aggregation_shape)"
            )
        algorithm.aggregation.scatter(aggregate, dst, contributions)
    return aggregate


def sweeps_as_product(algorithm) -> bool:
    """An ``edge_weighted`` algorithm over a plain sum: one product."""
    return (algorithm.edge_weighted
            and type(algorithm.aggregation) is SumAggregation)


# ----------------------------------------------------------------------
# Scatters: ``Aggregation.scatter*`` onto a live aggregate, each
# contribution owned by its destination.
# ----------------------------------------------------------------------
def scatter(graph, aggregation, aggregate, dst, contributions,
            metrics: Optional[EngineMetrics]) -> None:
    aggregation.scatter(aggregate, dst, contributions)
    _charge(graph, metrics, dst)


def scatter_retract(graph, aggregation, aggregate, dst, contributions,
                    metrics: Optional[EngineMetrics]) -> None:
    aggregation.scatter_retract(aggregate, dst, contributions)
    _charge(graph, metrics, dst)


def scatter_delta(graph, aggregation, aggregate, dst, new_contributions,
                  old_contributions,
                  metrics: Optional[EngineMetrics]) -> None:
    aggregation.scatter_delta(aggregate, dst, new_contributions,
                              old_contributions)
    _charge(graph, metrics, dst)


# ----------------------------------------------------------------------
# Vertex work
# ----------------------------------------------------------------------
def count_vertices(graph, vertices: np.ndarray,
                   metrics: Optional[EngineMetrics]) -> None:
    """Charge one apply per vertex id in ``vertices``."""
    if metrics is not None:
        metrics.count_vertices(np.asarray(vertices).size)
        _charge(graph, metrics, vertices)


def count_all_vertices(graph, metrics: Optional[EngineMetrics]) -> None:
    """Charge one apply to every vertex of ``graph`` (a dense sweep)."""
    if metrics is not None:
        metrics.count_vertices(graph.num_vertices)
        _charge_sweep(graph, metrics)
