"""The partitioned execution layer: pluggable kernel backends.

GraphBolt's scaling argument (Table 6) is about how work decomposes
across cores, yet a monolithic ``edge_map`` gather has no decomposition
to measure.  This module introduces one:

- :class:`PartitionedCSR` splits the vertex space into ``P`` contiguous,
  degree-balanced shards (GBBS-style block ownership: the owner of a
  vertex owns its out-edges for push traversals and its in-edges for
  pull traversals).
- :class:`ExecutionBackend` is the dispatch point the shared kernel
  layer (:mod:`repro.ligra.interface`) and every engine route their
  gathers, aggregation scatters, and work counters through.
- :class:`SerialBackend` executes exactly as the pre-backend code did
  and attributes all work to a single shard.
- :class:`ShardedBackend` executes gathers shard by shard and applies
  ``Aggregation.scatter*`` shard-locally (each destination vertex is
  owned by exactly one shard), recording a *measured per-shard load
  vector* in :class:`~repro.runtime.metrics.EngineMetrics`.

**Bit-for-bit determinism.**  Float aggregation is order-sensitive, so
the sharded backend is constructed to touch every array element in the
same order the serial backend does: shard gathers of sorted vertex sets
are contiguous slices concatenated in shard order (the identical
arrays), and shard-local scatters partition the edge set by destination
owner with stable ordering -- each destination's contributions are
applied in the same relative order as serially, and no destination is
split across shards.  ``REPRO_EXEC_BACKEND=sharded`` therefore produces
results exactly equal to the serial default, which the equivalence
suite pins across all five engine families.

The backend is selected globally from the environment
(``REPRO_EXEC_BACKEND`` = ``serial`` | ``sharded`` | ``sharded:P``,
shard count also via ``REPRO_EXEC_SHARDS``) or programmatically with
:func:`set_backend` / :func:`use_backend`.  This layer is in-process:
it decomposes and measures the work a real multiprocess deployment
would distribute, which is what the calibrated makespan model
(:class:`~repro.runtime.parallel.MakespanModel`) consumes.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional, Tuple

import numpy as np

from repro.runtime.metrics import EngineMetrics

__all__ = [
    "DEFAULT_NUM_SHARDS",
    "ExecutionBackend",
    "PartitionedCSR",
    "SerialBackend",
    "ShardedBackend",
    "backend_from_env",
    "get_backend",
    "load_imbalance",
    "resolve_backend",
    "set_backend",
    "use_backend",
]

#: Shard count used when ``REPRO_EXEC_BACKEND=sharded`` is set without
#: an explicit ``REPRO_EXEC_SHARDS`` / ``sharded:P`` count.
DEFAULT_NUM_SHARDS = 4


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

    # -- construction --------------------------------------------------
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
        partition; :meth:`CSRGraph.with_num_vertices` propagates cached
        partitions to the grown snapshot by extending the last shard,
        keeping boundaries deterministic across vertex growth.
        """
        cache = getattr(graph, "_shard_cache", None)
        if cache is None:
            cache = graph._shard_cache = {}
        partition = cache.get(num_shards)
        if (partition is None
                or partition.num_vertices != graph.num_vertices):
            partition = cls.compute(graph, num_shards)
            cache[num_shards] = partition
        return partition

    # -- shape ---------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.boundaries.size - 1

    @property
    def num_vertices(self) -> int:
        return int(self.boundaries[-1])

    def shard_sizes(self) -> np.ndarray:
        return np.diff(self.boundaries)

    # -- queries -------------------------------------------------------
    def shard_of(self, ids: np.ndarray) -> np.ndarray:
        """Owner shard of each vertex id (vectorised binary search)."""
        ids = np.asarray(ids, dtype=np.int64)
        return np.searchsorted(self.boundaries, ids, side="right") - 1

    def split_sorted(self, ids: np.ndarray) -> np.ndarray:
        """Positions cutting a *sorted* id array at shard boundaries.

        Returns ``P + 1`` cut positions; shard ``k``'s ids are
        ``ids[cuts[k]:cuts[k+1]]``.
        """
        return np.searchsorted(ids, self.boundaries)

    def extended_to(self, num_vertices: int) -> "PartitionedCSR":
        """The partition of a grown vertex space: the last shard absorbs
        every new vertex; all other boundaries are unchanged.

        Growing the graph must not reshuffle ownership of existing
        vertices mid-stream -- a rebalance would silently invalidate any
        per-shard state a deployment keeps across batches.
        """
        if num_vertices < self.num_vertices:
            raise ValueError("cannot shrink a partition")
        boundaries = self.boundaries.copy()
        boundaries[-1] = num_vertices
        return PartitionedCSR(boundaries)

    def __repr__(self) -> str:
        return (
            f"PartitionedCSR(P={self.num_shards}, "
            f"V={self.num_vertices})"
        )


def load_imbalance(shard_loads) -> float:
    """Max-over-mean load factor of a shard load vector (1.0 = perfectly
    balanced).  Accepts the ``EngineMetrics.shard_loads`` dict or any
    sequence; empty input reports 1.0."""
    if isinstance(shard_loads, dict):
        loads = np.array(list(shard_loads.values()), dtype=np.float64)
    else:
        loads = np.asarray(shard_loads, dtype=np.float64)
    if loads.size == 0 or loads.sum() <= 0:
        return 1.0
    return float(loads.max() / loads.mean())


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class ExecutionBackend:
    """Dispatch point for gathers, scatters, and work accounting.

    Engines hold one backend and route every dense sweep
    (:meth:`aggregate_all`), every sparse edge gather
    (:meth:`gather_out` / :meth:`gather_in`), every aggregation scatter
    (:meth:`scatter` / :meth:`scatter_retract` / :meth:`scatter_delta`)
    and vertex-apply accounting (:meth:`count_vertices`) through it;
    :meth:`gather_all` is the dataflow programs' structural feed.
    Counting semantics are
    identical across backends: gathers add the gathered edge count to
    ``metrics.edge_computations`` exactly as the pre-backend kernel
    layer did (pass ``count=False`` for structural gathers that were
    never charged), while per-shard loads are recorded additionally in
    ``metrics.shard_loads``.
    """

    name = "backend"

    @property
    def num_shards(self) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name

    # -- gathers -------------------------------------------------------
    def gather_out(self, graph, vertices: np.ndarray,
                   metrics: Optional[EngineMetrics],
                   count: bool = True) -> Tuple[np.ndarray, ...]:
        raise NotImplementedError

    def gather_all(self, graph, metrics: Optional[EngineMetrics],
                   count: bool = True) -> Tuple[np.ndarray, ...]:
        raise NotImplementedError

    def gather_in(self, graph, vertices: np.ndarray,
                  metrics: Optional[EngineMetrics],
                  count: bool = True) -> Tuple[np.ndarray, ...]:
        raise NotImplementedError

    # -- the dense sweep -----------------------------------------------
    def aggregate_all(self, graph, algorithm, values: np.ndarray,
                      metrics: Optional[EngineMetrics]) -> np.ndarray:
        """One dense iteration's aggregate, rebuilt from the identity:
        ``(+)`` over every edge ``(u, v)`` of ``contributions(values[u])``.

        The one sweep behind the Ligra baseline, GB-Reset's first and
        dense iterations and dense-mode refinement.  Edges are visited
        in CSR order and charged as a :meth:`gather_all` followed by a
        :meth:`scatter` would charge them; because the result starts
        from the identity the reduction is
        :meth:`Aggregation.aggregate_fresh`, not a scatter.
        """
        aggregate = algorithm.identity_aggregate(graph.num_vertices)
        if metrics is not None:
            metrics.count_edges(graph.num_edges)
            self._load_dense_sweep(graph, metrics)
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
            algorithm.aggregation.aggregate_fresh(aggregate, dst,
                                                  contributions)
        return aggregate

    def _load_dense_sweep(self, graph, metrics: EngineMetrics) -> None:
        """Per-shard loads of one :meth:`aggregate_all`: every edge once
        at its source's owner (gather), once at its target's (reduce)."""
        raise NotImplementedError

    # -- scatters ------------------------------------------------------
    def scatter(self, graph, aggregation, aggregate, dst, contributions,
                metrics: Optional[EngineMetrics]) -> None:
        raise NotImplementedError

    def scatter_retract(self, graph, aggregation, aggregate, dst,
                        contributions,
                        metrics: Optional[EngineMetrics]) -> None:
        raise NotImplementedError

    def scatter_delta(self, graph, aggregation, aggregate, dst,
                      new_contributions, old_contributions,
                      metrics: Optional[EngineMetrics]) -> None:
        raise NotImplementedError

    # -- vertex work ---------------------------------------------------
    def count_vertices(self, graph, vertices,
                       metrics: Optional[EngineMetrics]) -> None:
        """Charge one apply per vertex; ``vertices`` is an id array or
        an int meaning a dense sweep over all of ``graph``'s vertices."""
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """The default: monolithic gathers/scatters, one implicit shard.

    Behaviour (arrays, ordering, counters) is exactly that of the
    pre-backend kernel layer; all load is attributed to shard ``"0"``.
    """

    name = "serial"

    @property
    def num_shards(self) -> int:
        return 1

    def _load(self, metrics, n) -> None:
        if metrics is not None and n:
            metrics.count_shard_load("0", n)

    def gather_out(self, graph, vertices, metrics, count=True):
        src, dst, weight = graph.out_edges_of(vertices)
        if metrics is not None and count:
            metrics.count_edges(src.size)
        self._load(metrics, src.size)
        return src, dst, weight

    def gather_all(self, graph, metrics, count=True):
        src, dst, weight = graph.all_edges()
        if metrics is not None and count:
            metrics.count_edges(src.size)
        self._load(metrics, src.size)
        return src, dst, weight

    def gather_in(self, graph, vertices, metrics, count=True):
        src, dst, weight = graph.in_edges_of(vertices)
        if metrics is not None and count:
            metrics.count_edges(src.size)
        self._load(metrics, src.size)
        return src, dst, weight

    def _load_dense_sweep(self, graph, metrics) -> None:
        self._load(metrics, 2 * graph.num_edges)

    def scatter(self, graph, aggregation, aggregate, dst, contributions,
                metrics) -> None:
        aggregation.scatter(aggregate, dst, contributions)
        self._load(metrics, np.asarray(dst).size)

    def scatter_retract(self, graph, aggregation, aggregate, dst,
                        contributions, metrics) -> None:
        aggregation.scatter_retract(aggregate, dst, contributions)
        self._load(metrics, np.asarray(dst).size)

    def scatter_delta(self, graph, aggregation, aggregate, dst,
                      new_contributions, old_contributions,
                      metrics) -> None:
        aggregation.scatter_delta(aggregate, dst, new_contributions,
                                  old_contributions)
        self._load(metrics, np.asarray(dst).size)

    def count_vertices(self, graph, vertices, metrics) -> None:
        if metrics is None:
            return
        n = (vertices if isinstance(vertices, int)
             else np.asarray(vertices).size)
        metrics.count_vertices(n)
        self._load(metrics, n)


class ShardedBackend(ExecutionBackend):
    """Shard-by-shard execution over a :class:`PartitionedCSR`.

    Gathers run once per owning shard and scatters are applied
    shard-locally (stable partition of the edge set by destination
    owner), so per-shard load vectors are *measured*, not modelled --
    while the concatenated results stay bit-for-bit identical to
    :class:`SerialBackend` (see module docstring).
    """

    name = "sharded"

    def __init__(self, num_shards: int = DEFAULT_NUM_SHARDS) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self._num_shards = int(num_shards)

    @property
    def num_shards(self) -> int:
        return self._num_shards

    def describe(self) -> str:
        return f"sharded:{self._num_shards}"

    def partition(self, graph) -> PartitionedCSR:
        return PartitionedCSR.for_graph(graph, self._num_shards)

    # -- load recording ------------------------------------------------
    def _record_loads(self, metrics, counts: np.ndarray) -> None:
        if metrics is None:
            return
        for shard in np.flatnonzero(counts):
            metrics.count_shard_load(str(int(shard)),
                                     int(counts[shard]))

    def _loads_by_owner(self, partition, owners: np.ndarray) -> np.ndarray:
        return np.bincount(partition.shard_of(owners),
                           minlength=self._num_shards)

    # -- gathers -------------------------------------------------------
    def gather_out(self, graph, vertices, metrics, count=True):
        return self._gather_sparse(graph, vertices, metrics, count,
                                   graph.out_edges_of, owner_axis=0)

    def gather_in(self, graph, vertices, metrics, count=True):
        # Pull gathers are owned by the *target* (the vertex whose
        # input set is being rebuilt), axis 1 of (src, dst, weight).
        return self._gather_sparse(graph, vertices, metrics, count,
                                   graph.in_edges_of, owner_axis=1)

    def _gather_sparse(self, graph, vertices, metrics, count, gather,
                       owner_axis):
        vertices = np.asarray(vertices, dtype=np.int64)
        partition = self.partition(graph)
        if vertices.size and np.any(np.diff(vertices) < 0):
            # Order-preserving fallback for unsorted vertex sets (none of
            # the engines produce one today): a single gather keeps the
            # serial edge order exactly; loads are still attributed to
            # the owning shards.
            arrays = gather(vertices)
            if metrics is not None and count:
                metrics.count_edges(arrays[0].size)
            self._record_loads(
                metrics,
                self._loads_by_owner(partition, arrays[owner_axis]),
            )
            return arrays
        cuts = partition.split_sorted(vertices)
        pieces = [
            gather(vertices[cuts[k]:cuts[k + 1]])
            for k in range(self._num_shards)
            if cuts[k + 1] > cuts[k]
        ]
        if not pieces:
            pieces = [gather(vertices)]
        counts = np.zeros(self._num_shards, dtype=np.int64)
        counts[np.flatnonzero(np.diff(cuts))] = [
            piece[0].size for piece in pieces
        ]
        self._record_loads(metrics, counts)
        total = int(counts.sum())
        if metrics is not None and count:
            metrics.count_edges(total)
        if len(pieces) == 1:
            return pieces[0]
        return tuple(
            np.concatenate([piece[axis] for piece in pieces])
            for axis in range(3)
        )

    def gather_all(self, graph, metrics, count=True):
        partition = self.partition(graph)
        # CSR rows are in vertex order, so each shard's edge block is
        # the contiguous slice between its boundary offsets;
        # concatenation in shard order *is* the serial edge order.
        edge_cuts = graph.out_offsets[partition.boundaries]
        src, dst, weight = graph.all_edges()
        self._record_loads(metrics, np.diff(edge_cuts))
        if metrics is not None and count:
            metrics.count_edges(src.size)
        return src, dst, weight

    def _load_dense_sweep(self, graph, metrics) -> None:
        # In-edges are grouped by target, so the shard-local reduce
        # loads are the in-edge block sizes; a target's contributions
        # keep their order, so one reduction is the per-shard scatters.
        boundaries = self.partition(graph).boundaries
        self._record_loads(metrics, np.diff(graph.out_offsets[boundaries]))
        self._record_loads(metrics, np.diff(graph.in_offsets[boundaries]))

    # -- scatters ------------------------------------------------------
    def _shard_slices(self, partition, dst):
        """Stable partition of scatter targets by owning shard.

        Returns ``(order, bounds)``: a stable permutation grouping the
        positions by destination shard and the group boundaries.  Every
        destination vertex falls in exactly one shard and the stable
        sort preserves each destination's contribution order, so
        applying ``scatter*`` per group equals one serial scatter
        bit for bit.
        """
        owners = partition.shard_of(dst)
        order = np.argsort(owners, kind="stable")
        bounds = np.searchsorted(
            owners[order], np.arange(self._num_shards + 1, dtype=np.int64)
        )
        return order, bounds

    def _scatter_by_shard(self, graph, dst, metrics, apply_slice) -> None:
        dst = np.asarray(dst, dtype=np.int64)
        if dst.size == 0:
            return
        partition = self.partition(graph)
        order, bounds = self._shard_slices(partition, dst)
        counts = np.diff(bounds)
        for shard in np.flatnonzero(counts):
            apply_slice(order[bounds[shard]:bounds[shard + 1]])
        self._record_loads(metrics, counts)

    def scatter(self, graph, aggregation, aggregate, dst, contributions,
                metrics) -> None:
        self._scatter_by_shard(
            graph, dst, metrics,
            lambda sel: aggregation.scatter(
                aggregate, dst[sel], contributions[sel]
            ),
        )

    def scatter_retract(self, graph, aggregation, aggregate, dst,
                        contributions, metrics) -> None:
        self._scatter_by_shard(
            graph, dst, metrics,
            lambda sel: aggregation.scatter_retract(
                aggregate, dst[sel], contributions[sel]
            ),
        )

    def scatter_delta(self, graph, aggregation, aggregate, dst,
                      new_contributions, old_contributions,
                      metrics) -> None:
        self._scatter_by_shard(
            graph, dst, metrics,
            lambda sel: aggregation.scatter_delta(
                aggregate, dst[sel], new_contributions[sel],
                old_contributions[sel],
            ),
        )

    # -- vertex work ---------------------------------------------------
    def count_vertices(self, graph, vertices, metrics) -> None:
        if metrics is None:
            return
        partition = self.partition(graph)
        if isinstance(vertices, int):
            metrics.count_vertices(vertices)
            if vertices == graph.num_vertices:
                counts = partition.shard_sizes()
            else:
                counts = np.zeros(self._num_shards, dtype=np.int64)
                counts[0] = vertices
            self._record_loads(metrics, counts)
            return
        vertices = np.asarray(vertices, dtype=np.int64)
        metrics.count_vertices(vertices.size)
        if vertices.size:
            self._record_loads(
                metrics, self._loads_by_owner(partition, vertices)
            )


# ----------------------------------------------------------------------
# Global selection
# ----------------------------------------------------------------------
_active_backend: Optional[ExecutionBackend] = None


def backend_from_env() -> ExecutionBackend:
    """Build the backend named by ``REPRO_EXEC_BACKEND``.

    ``serial`` (default) or ``sharded``; the shard count comes from a
    ``sharded:P`` suffix or ``REPRO_EXEC_SHARDS``.
    """
    spec = os.environ.get("REPRO_EXEC_BACKEND", "serial").strip().lower()
    name, _, suffix = spec.partition(":")
    if name in ("", "serial"):
        return SerialBackend()
    if name == "sharded":
        if suffix:
            shards = int(suffix)
        else:
            shards = int(os.environ.get("REPRO_EXEC_SHARDS",
                                        DEFAULT_NUM_SHARDS))
        return ShardedBackend(shards)
    raise ValueError(
        f"unknown REPRO_EXEC_BACKEND {spec!r}; "
        f"use 'serial', 'sharded', or 'sharded:P'"
    )


def get_backend() -> ExecutionBackend:
    """The process-wide backend (initialised from the environment)."""
    global _active_backend
    if _active_backend is None:
        _active_backend = backend_from_env()
    return _active_backend


def set_backend(backend: Optional[ExecutionBackend]) -> None:
    """Install a process-wide backend (None re-reads the environment)."""
    global _active_backend
    _active_backend = backend


@contextmanager
def use_backend(backend: ExecutionBackend):
    """Scoped backend override (tests, benchmarks)."""
    global _active_backend
    previous = _active_backend
    _active_backend = backend
    try:
        yield backend
    finally:
        _active_backend = previous


def resolve_backend(
    backend: Optional[ExecutionBackend],
) -> ExecutionBackend:
    """An explicit backend, or the process-wide one."""
    return backend if backend is not None else get_backend()
