"""Immutable CSR/CSC graph snapshots.

A :class:`CSRGraph` stores a directed, weighted graph in both compressed
sparse row (out-edges) and compressed sparse column (in-edges) form, the
layout GraphBolt uses so that both push-style (``gather_out`` over out-edges)
and pull-style (re-evaluation over in-edges) traversals are O(1)-indexable
(paper section 4.1).

Within each row and column the neighbour arrays are sorted by the opposite
endpoint, which makes targeted deletions a binary search instead of a
scan.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.graph.pairs import pair_order

__all__ = ["CSRGraph"]


class CSRGraph:
    """An immutable directed weighted graph in CSR + CSC form.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0 .. num_vertices - 1``.
    src, dst:
        Integer arrays of equal length giving the edge endpoints.
    weight:
        Optional float array of edge weights; defaults to all ones.

    The constructor copies and re-sorts the input, so callers may mutate
    their arrays afterwards.  :meth:`from_canonical` skips sorting and
    copying entirely for arrays already in canonical form (store loads,
    checkpoint restores).
    """

    def __init__(
        self,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weight: Optional[np.ndarray] = None,
    ) -> None:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same shape")
        if src.size and num_vertices > 0:
            hi = max(int(src.max()), int(dst.max()))
            if hi >= num_vertices:
                raise ValueError(
                    f"edge endpoint {hi} out of range for {num_vertices} vertices"
                )
            lo = min(int(src.min()), int(dst.min()))
            if lo < 0:
                raise ValueError(
                    f"vertex ids must be non-negative, got {lo}"
                )
        if src.size and num_vertices <= 0:
            raise ValueError("graph with edges must have vertices")
        if weight is None:
            weight = np.ones(src.size, dtype=np.float64)
        else:
            weight = np.asarray(weight, dtype=np.float64)
            if weight.shape != src.shape:
                raise ValueError("weight must match edge arrays")
            if weight.size and not np.isfinite(weight).all():
                raise ValueError("edge weights must be finite")

        self._num_vertices = int(num_vertices)
        #: Owning :class:`~repro.graph.storage.SnapshotStore` (None for
        #: plain heap graphs) and the store's id for this snapshot.
        self.store = None
        self.snapshot_id = None

        # CSR (out-edges), rows sorted by (src, dst).  Fancy indexing
        # copies, so the caller's arrays are never aliased.
        order = pair_order(src, dst, self._num_vertices)
        self._out_targets = dst[order]
        self._out_weights = weight[order]
        self._out_offsets = self._build_offsets(src[order])

        # CSC (in-edges), columns sorted by (dst, src).
        order = pair_order(dst, src, self._num_vertices)
        self._in_sources = src[order]
        self._in_weights = weight[order]
        self._in_offsets = self._build_offsets(dst[order])

    def _build_offsets(self, sorted_keys: np.ndarray) -> np.ndarray:
        counts = np.bincount(sorted_keys, minlength=self._num_vertices)
        offsets = np.zeros(self._num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return offsets

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return int(self._out_targets.size)

    @property
    def nbytes(self) -> int:
        """Bytes of the CSR + CSC structure (memory accounting)."""
        return int(
            self._out_offsets.nbytes + self._out_targets.nbytes
            + self._out_weights.nbytes + self._in_offsets.nbytes
            + self._in_sources.nbytes + self._in_weights.nbytes
        )

    @property
    def out_offsets(self) -> np.ndarray:
        return self._out_offsets

    @property
    def out_targets(self) -> np.ndarray:
        return self._out_targets

    @property
    def out_weights(self) -> np.ndarray:
        return self._out_weights

    @property
    def in_offsets(self) -> np.ndarray:
        return self._in_offsets

    @property
    def in_sources(self) -> np.ndarray:
        return self._in_sources

    @property
    def in_weights(self) -> np.ndarray:
        return self._in_weights

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex, shape ``(V,)`` (cached)."""
        if not hasattr(self, "_out_degrees"):
            self._out_degrees = np.diff(self._out_offsets)
        return self._out_degrees

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex, shape ``(V,)`` (cached)."""
        if not hasattr(self, "_in_degrees"):
            self._in_degrees = np.diff(self._in_offsets)
        return self._in_degrees

    def in_weight_sums(self) -> np.ndarray:
        """Sum of incoming edge weights per vertex (CoEM's normaliser,
        cached)."""
        if not hasattr(self, "_in_weight_sums"):
            sums = np.zeros(self._num_vertices, dtype=np.float64)
            dst = self._edge_dst_from_in()
            np.add.at(sums, dst, self._in_weights)
            self._in_weight_sums = sums
        return self._in_weight_sums

    def out_weight_sums(self) -> np.ndarray:
        """Sum of outgoing edge weights per vertex (weighted PageRank's
        normaliser, cached)."""
        if not hasattr(self, "_out_weight_sums"):
            sums = np.zeros(self._num_vertices, dtype=np.float64)
            src = np.repeat(
                np.arange(self._num_vertices, dtype=np.int64),
                self.out_degrees(),
            )
            np.add.at(sums, src, self._out_weights)
            self._out_weight_sums = sums
        return self._out_weight_sums

    def _edge_dst_from_in(self) -> np.ndarray:
        return np.repeat(
            np.arange(self._num_vertices, dtype=np.int64), self.in_degrees()
        )

    # ------------------------------------------------------------------
    # Neighbourhood access
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        """Targets of ``v``'s out-edges, sorted ascending."""
        return self._out_targets[self._out_offsets[v] : self._out_offsets[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of ``v``'s in-edges, sorted ascending."""
        return self._in_sources[self._in_offsets[v] : self._in_offsets[v + 1]]

    # ------------------------------------------------------------------
    # Vectorised gathers (used by the kernels of repro.runtime.exec)
    # ------------------------------------------------------------------
    def all_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(src, dst, weight)`` arrays for every edge (CSR order)."""
        src = np.repeat(
            np.arange(self._num_vertices, dtype=np.int64), self.out_degrees()
        )
        return src, self._out_targets, self._out_weights

    def out_edges_of(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather out-edges of ``vertices`` as ``(src, dst, weight)``.

        ``vertices`` must be an integer array; sources are repeated per
        out-edge so the three result arrays are parallel.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self._out_offsets[vertices]
        stops = self._out_offsets[vertices + 1]
        idx = _ranges(starts, stops)
        src = np.repeat(vertices, stops - starts)
        return src, self._out_targets[idx], self._out_weights[idx]

    def out_edge_slots(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather out-edges of ``vertices`` as ``(src, slot)`` pairs.

        ``slot`` indexes the global CSR edge arrays, so callers can both
        read ``out_targets[slot]`` / ``out_weights[slot]`` and correlate
        edges with per-slot side arrays (e.g. the refinement's
        newly-added-edge mask).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self._out_offsets[vertices]
        stops = self._out_offsets[vertices + 1]
        slots = _ranges(starts, stops)
        src = np.repeat(vertices, stops - starts)
        return src, slots

    def in_edges_of(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather in-edges of ``vertices`` as ``(src, dst, weight)``."""
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self._in_offsets[vertices]
        stops = self._in_offsets[vertices + 1]
        idx = _ranges(starts, stops)
        dst = np.repeat(vertices, stops - starts)
        return self._in_sources[idx], dst, self._in_weights[idx]

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_canonical(
        cls,
        num_vertices: int,
        out_offsets: np.ndarray,
        out_targets: np.ndarray,
        out_weights: np.ndarray,
        in_offsets: np.ndarray,
        in_sources: np.ndarray,
        in_weights: np.ndarray,
        store=None,
        snapshot_id: Optional[str] = None,
    ) -> "CSRGraph":
        """Adopt already-canonical CSR+CSC arrays with zero sorts/copies.

        The construct-from-store path: snapshot loads and checkpoint
        restores hand over the six arrays exactly as a constructor run
        would have produced them (``np.memmap`` views work unchanged),
        so only O(V) structural checks run here -- no O(E log E)
        re-sort, no per-array copy.
        """
        num_vertices = int(num_vertices)
        num_edges = int(out_targets.size)
        for name, offsets in (("out_offsets", out_offsets),
                              ("in_offsets", in_offsets)):
            if offsets.size != num_vertices + 1:
                raise ValueError(
                    f"{name} has {offsets.size} entries, expected "
                    f"{num_vertices + 1}"
                )
            if offsets.size and (int(offsets[0]) != 0
                                 or int(offsets[-1]) != num_edges):
                raise ValueError(f"{name} endpoints disagree with edges")
            if np.any(np.diff(offsets) < 0):
                raise ValueError(f"{name} is not monotone")
        if (out_weights.size != num_edges or in_sources.size != num_edges
                or in_weights.size != num_edges):
            raise ValueError("canonical edge arrays disagree in length")
        graph = cls.__new__(cls)
        graph._num_vertices = num_vertices
        graph.store = store
        graph.snapshot_id = snapshot_id
        graph._out_offsets = out_offsets
        graph._out_targets = out_targets
        graph._out_weights = out_weights
        graph._in_offsets = in_offsets
        graph._in_sources = in_sources
        graph._in_weights = in_weights
        return graph

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        num_vertices: Optional[int] = None,
        weights: Optional[Iterable[float]] = None,
    ) -> "CSRGraph":
        """Build a graph from an iterable of ``(src, dst)`` pairs."""
        edge_list = list(edges)
        if edge_list:
            src = np.array([e[0] for e in edge_list], dtype=np.int64)
            dst = np.array([e[1] for e in edge_list], dtype=np.int64)
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        if num_vertices is None:
            num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
        weight = None
        if weights is not None:
            weight = np.asarray(list(weights), dtype=np.float64)
        return cls(num_vertices, src, dst, weight)

    def __repr__(self) -> str:
        return f"CSRGraph(V={self.num_vertices}, E={self.num_edges})"


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], stops[i])`` for all i, vectorised."""
    lengths = stops - starts
    nonzero = lengths > 0
    starts = starts[nonzero]
    lengths = lengths[nonzero]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Classic cumsum trick: an array of +1 increments whose value at each
    # segment head is adjusted so the running sum restarts at that segment's
    # start index.
    increments = np.ones(total, dtype=np.int64)
    heads = np.zeros(len(starts), dtype=np.int64)
    np.cumsum(lengths[:-1], out=heads[1:])
    increments[heads] = starts
    increments[heads[1:]] -= starts[:-1] + lengths[:-1] - 1
    return np.cumsum(increments)
