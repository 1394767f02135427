"""STINGER-inspired dynamic graph structure.

The paper adjusts its CSR/CSC structure with two full passes per batch
and notes (section 4.1) that "faster dynamic graph data-structures like
STINGER can be incorporated to improve the time taken to adjust the
graph structure".  This module provides that incorporation:
:class:`DynamicGraph` keeps per-vertex *edge blocks with slack* -- each
row owns capacity beyond its current degree -- so a mutation batch
touches only the affected rows.  When a row overflows it is *relocated*
to the structure's tail with fresh slack (amortised-doubling tail
growth), leaving its old block behind as a tombstone; once tombstoned
slots cross a fraction of the structure, a segment-wise compaction
rewrites dirty vertex ranges one bounded range at a time.  A mutation
batch therefore never materializes the full ``(key, other, weight)``
edge list in heap and never runs an O(E log E) argsort -- the two
costs the old whole-structure repack paid on every overflow.

:class:`DynamicGraph` duck-types the read interface of
:class:`~repro.graph.csr.CSRGraph` (degrees, neighbour slices, gathers,
``all_edges``), with one documented divergence: rows are *unsorted*
(membership is a short vectorised scan), whereas CSR rows are sorted.
All engines in this repository only require the gather interface.

:class:`DynamicStreamingGraph` mirrors
:class:`~repro.graph.mutable.StreamingGraph` over this structure.  Since
updates are in place, the pre-mutation snapshot cannot be retained;
instead the result carries a :class:`FrozenGraphParams` -- the old
degree/weight-sum arrays, which is everything dependency-driven
refinement evaluates old contribution functions against.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, _ranges
from repro.graph.mutable import changed_vertices
from repro.graph.mutation import MutationBatch

__all__ = ["DynamicGraph", "DynamicStreamingGraph", "FrozenGraphParams"]

#: Extra slots reserved per row at (re)pack time.
SLACK_FACTOR = 1.5
SLACK_MINIMUM = 2

#: Tombstoned-slot fraction of the structure that triggers a
#: segment-wise compaction (checked opportunistically after batches).
COMPACT_DEAD_FRACTION = 0.25
#: Floor on tombstoned slots before compaction is worth running.
COMPACT_DEAD_MINIMUM = 64

#: Edge budget per compaction segment: bounds the gather working set
#: of one dirty vertex range during a rewrite.
SEGMENT_EDGE_BUDGET = 1 << 20


class _Direction:
    """One adjacency direction (out or in) as slack-bearing edge blocks."""

    def __init__(self, num_vertices: int, keys: np.ndarray,
                 others: np.ndarray, weights: np.ndarray) -> None:
        self.num_vertices = 0
        self.starts = np.empty(0, dtype=np.int64)
        self.lengths = np.empty(0, dtype=np.int64)
        self.others = np.empty(0, dtype=np.int64)
        self.weights = np.empty(0, dtype=np.float64)
        #: First unallocated slot; rows relocated out of their block
        #: land here.  ``others.size - tail`` is reserve capacity.
        self.tail = 0
        #: Tombstoned slots (capacity of relocated rows' old blocks).
        self.dead = 0
        self._pack(num_vertices, keys, others, weights)

    # ------------------------------------------------------------------
    def _pack(self, num_vertices, keys, others, weights) -> None:
        """Initial contiguous layout with fresh slack."""
        order = np.argsort(keys, kind="stable")
        keys, others, weights = keys[order], others[order], weights[order]
        degrees = np.bincount(keys, minlength=num_vertices)
        capacities = np.maximum(
            (degrees * SLACK_FACTOR).astype(np.int64),
            degrees + SLACK_MINIMUM,
        )
        starts = np.zeros(num_vertices, dtype=np.int64)
        np.cumsum(capacities[:-1], out=starts[1:])
        total = int(capacities.sum())
        new_others = np.full(total, -1, dtype=np.int64)
        new_weights = np.zeros(total, dtype=np.float64)
        slots = _ranges(starts, starts + degrees)
        new_others[slots] = others
        new_weights[slots] = weights
        self.num_vertices = num_vertices
        self.starts = starts
        self.lengths = degrees.astype(np.int64)
        self.capacities = capacities
        self.others = new_others
        self.weights = new_weights
        self.tail = total
        self.dead = 0

    # ------------------------------------------------------------------
    # Tail allocation + row relocation (the segment-wise overflow path)
    # ------------------------------------------------------------------
    def _ensure_tail(self, needed: int) -> None:
        """Amortised-doubling growth of the backing arrays."""
        size = int(self.others.size)
        if self.tail + needed <= size:
            return
        new_size = max(size * 2, self.tail + needed, 16)
        grown_others = np.full(new_size, -1, dtype=np.int64)
        grown_others[:self.tail] = self.others[:self.tail]
        grown_weights = np.zeros(new_size, dtype=np.float64)
        grown_weights[:self.tail] = self.weights[:self.tail]
        self.others = grown_others
        self.weights = grown_weights

    def relocate_row(self, key: int, min_capacity: int) -> None:
        """Move one overflowing row to the tail with fresh slack,
        tombstoning its old block.  O(row), not O(E)."""
        length = int(self.lengths[key])
        new_capacity = max(
            int(min_capacity),
            int(length * SLACK_FACTOR),
            length + SLACK_MINIMUM,
        )
        self._ensure_tail(new_capacity)
        start = int(self.starts[key])
        new_start = self.tail
        self.others[new_start:new_start + length] = \
            self.others[start:start + length]
        self.weights[new_start:new_start + length] = \
            self.weights[start:start + length]
        self.others[start:start + length] = -1
        self.dead += int(self.capacities[key])
        self.starts[key] = new_start
        self.capacities[key] = new_capacity
        self.tail += new_capacity

    def maybe_compact(self) -> bool:
        """Compact when tombstones cross the configured fraction."""
        threshold = max(int(self.tail * COMPACT_DEAD_FRACTION),
                        COMPACT_DEAD_MINIMUM)
        if self.dead < threshold:
            return False
        self.compact()
        return True

    def compact(self) -> None:
        """Segment-wise rewrite dropping tombstoned blocks.

        Rows are copied one bounded vertex range at a time (per-range
        gather via ``_ranges``), so the working set is the segment
        budget -- never the full edge list, and no argsort runs.
        """
        degrees = self.lengths
        capacities = np.maximum(
            (degrees * SLACK_FACTOR).astype(np.int64),
            degrees + SLACK_MINIMUM,
        )
        new_starts = np.zeros(self.num_vertices, dtype=np.int64)
        if self.num_vertices:
            np.cumsum(capacities[:-1], out=new_starts[1:])
        total = int(capacities.sum())
        new_others = np.full(total, -1, dtype=np.int64)
        new_weights = np.zeros(total, dtype=np.float64)
        cumulative = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=cumulative[1:])
        start_v = 0
        while start_v < self.num_vertices:
            budget_end = int(cumulative[start_v]) + SEGMENT_EDGE_BUDGET
            stop_v = int(np.searchsorted(cumulative, budget_end,
                                         side="right")) - 1
            stop_v = min(max(stop_v, start_v + 1), self.num_vertices)
            seg_deg = degrees[start_v:stop_v]
            old_slots = _ranges(self.starts[start_v:stop_v],
                                self.starts[start_v:stop_v] + seg_deg)
            slots = _ranges(new_starts[start_v:stop_v],
                            new_starts[start_v:stop_v] + seg_deg)
            new_others[slots] = self.others[old_slots]
            new_weights[slots] = self.weights[old_slots]
            start_v = stop_v
        self.starts = new_starts
        self.capacities = capacities
        self.others = new_others
        self.weights = new_weights
        self.tail = total
        self.dead = 0

    # ------------------------------------------------------------------
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live edges as ``(key, other, weight)`` arrays."""
        slots = _ranges(self.starts, self.starts + self.lengths)
        keys = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                         self.lengths)
        return keys, self.others[slots], self.weights[slots]

    def row(self, vertex: int) -> np.ndarray:
        start = self.starts[vertex]
        return self.others[start : start + self.lengths[vertex]]

    def row_weights(self, vertex: int) -> np.ndarray:
        start = self.starts[vertex]
        return self.weights[start : start + self.lengths[vertex]]

    def find(self, key: int, other: int) -> int:
        """Slot of edge (key -> other), or -1."""
        start = self.starts[key]
        row = self.others[start : start + self.lengths[key]]
        hits = np.flatnonzero(row == other)
        if hits.size == 0:
            return -1
        return int(start + hits[0])

    def insert(self, key: int, other: int, weight: float) -> bool:
        """Append an edge; returns False when the row is out of slack."""
        length = self.lengths[key]
        if length >= self.capacities[key]:
            return False
        slot = self.starts[key] + length
        self.others[slot] = other
        self.weights[slot] = weight
        self.lengths[key] += 1
        return True

    def delete_slot(self, key: int, slot: int) -> None:
        """Remove the edge at ``slot`` by swapping in the row's last."""
        last = self.starts[key] + self.lengths[key] - 1
        self.others[slot] = self.others[last]
        self.weights[slot] = self.weights[last]
        self.others[last] = -1
        self.lengths[key] -= 1

    def grow_vertices(self, num_vertices: int) -> None:
        if num_vertices <= self.num_vertices:
            return
        fresh = num_vertices - self.num_vertices
        needed = fresh * SLACK_MINIMUM
        self._ensure_tail(needed)
        base = self.tail
        self.starts = np.concatenate([
            self.starts,
            base + SLACK_MINIMUM * np.arange(fresh, dtype=np.int64),
        ])
        self.lengths = np.concatenate([
            self.lengths, np.zeros(fresh, dtype=np.int64),
        ])
        self.capacities = np.concatenate([
            self.capacities,
            np.full(fresh, SLACK_MINIMUM, dtype=np.int64),
        ])
        self.tail += needed
        self.num_vertices = num_vertices

    @property
    def nbytes(self) -> int:
        return int(
            self.starts.nbytes + self.lengths.nbytes
            + self.capacities.nbytes + self.others.nbytes
            + self.weights.nbytes
        )


class DynamicGraph:
    """A mutable directed weighted graph with slack-bearing edge blocks."""

    def __init__(self, num_vertices: int, src: np.ndarray, dst: np.ndarray,
                 weight: Optional[np.ndarray] = None) -> None:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if weight is None:
            weight = np.ones(src.size, dtype=np.float64)
        else:
            weight = np.asarray(weight, dtype=np.float64)
        self._out = _Direction(num_vertices, src, dst, weight)
        self._in = _Direction(num_vertices, dst, src, weight)
        self._num_edges = int(src.size)
        #: Row relocations (old whole-structure repacks are gone; an
        #: overflowing row moves to the tail with fresh slack).
        self.repacks = 0
        #: Segment-wise compactions of tombstoned blocks.
        self.compactions = 0
        #: Bumped on every mutation; invalidates derived-array caches.
        self.version = 0
        self._cache = {}

    @classmethod
    def from_csr(cls, graph: CSRGraph) -> "DynamicGraph":
        src, dst, weight = graph.all_edges()
        return cls(graph.num_vertices, src, dst, weight)

    # ------------------------------------------------------------------
    # CSRGraph-compatible read interface
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._out.num_vertices

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def nbytes(self) -> int:
        return self._out.nbytes + self._in.nbytes

    @property
    def out_targets(self) -> np.ndarray:
        """Backing target array; index only with slots from
        :meth:`out_edge_slots` (holes carry -1)."""
        return self._out.others

    @property
    def out_weights(self) -> np.ndarray:
        return self._out.weights

    def out_degrees(self) -> np.ndarray:
        return self._out.lengths

    def in_degrees(self) -> np.ndarray:
        return self._in.lengths

    def out_degree(self, v: int) -> int:
        return int(self._out.lengths[v])

    def in_degree(self, v: int) -> int:
        return int(self._in.lengths[v])

    def out_neighbors(self, v: int) -> np.ndarray:
        """Targets of v's out-edges (unsorted, unlike CSRGraph)."""
        return self._out.row(v)

    def out_neighbor_weights(self, v: int) -> np.ndarray:
        return self._out.row_weights(v)

    def in_neighbors(self, v: int) -> np.ndarray:
        return self._in.row(v)

    def in_neighbor_weights(self, v: int) -> np.ndarray:
        return self._in.row_weights(v)

    def _cached(self, name, compute):
        entry = self._cache.get(name)
        if entry is not None and entry[0] == self.version:
            return entry[1]
        value = compute()
        self._cache[name] = (self.version, value)
        return value

    def in_weight_sums(self) -> np.ndarray:
        def compute():
            sums = np.zeros(self.num_vertices, dtype=np.float64)
            _, dst, weight = self.all_edges()
            np.add.at(sums, dst, weight)
            return sums

        return self._cached("in_weight_sums", compute)

    def out_weight_sums(self) -> np.ndarray:
        def compute():
            sums = np.zeros(self.num_vertices, dtype=np.float64)
            src, _, weight = self.all_edges()
            np.add.at(sums, src, weight)
            return sums

        return self._cached("out_weight_sums", compute)

    def has_edge(self, u: int, v: int) -> bool:
        return self._out.find(u, v) >= 0

    def edge_weight(self, u: int, v: int) -> float:
        slot = self._out.find(u, v)
        if slot < 0:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        return float(self._out.weights[slot])

    def all_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._out.edge_arrays()

    def out_edges_of(self, vertices) -> Tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self._out.starts[vertices]
        lengths = self._out.lengths[vertices]
        slots = _ranges(starts, starts + lengths)
        src = np.repeat(vertices, lengths)
        return src, self._out.others[slots], self._out.weights[slots]

    def out_edge_slots(self, vertices) -> Tuple[np.ndarray, np.ndarray]:
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self._out.starts[vertices]
        lengths = self._out.lengths[vertices]
        slots = _ranges(starts, starts + lengths)
        return np.repeat(vertices, lengths), slots

    def in_edges_of(self, vertices) -> Tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self._in.starts[vertices]
        lengths = self._in.lengths[vertices]
        slots = _ranges(starts, starts + lengths)
        dst = np.repeat(vertices, lengths)
        return self._in.others[slots], dst, self._in.weights[slots]

    def edge_set(self) -> set:
        src, dst, _ = self.all_edges()
        return set(zip(src.tolist(), dst.tolist()))

    def to_csr(self) -> CSRGraph:
        src, dst, weight = self.all_edges()
        return CSRGraph(self.num_vertices, src, dst, weight)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def grow_vertices(self, num_vertices: int) -> None:
        self._out.grow_vertices(num_vertices)
        self._in.grow_vertices(num_vertices)
        self.version += 1

    def delete_edge(self, u: int, v: int) -> Optional[float]:
        """Delete (u, v); returns its weight, or None when absent."""
        out_slot = self._out.find(u, v)
        if out_slot < 0:
            return None
        weight = float(self._out.weights[out_slot])
        self._out.delete_slot(u, out_slot)
        in_slot = self._in.find(v, u)
        self._in.delete_slot(v, in_slot)
        self._num_edges -= 1
        self.version += 1
        return weight

    def insert_edge(self, u: int, v: int, weight: float) -> bool:
        """Insert (u, v); returns False when it already exists."""
        if self._out.find(u, v) >= 0:
            return False
        if not self._out.insert(u, v, weight):
            self._out.relocate_row(u, int(self._out.lengths[u]) + 1)
            self.repacks += 1
            self._out.insert(u, v, weight)
        if not self._in.insert(v, u, weight):
            self._in.relocate_row(v, int(self._in.lengths[v]) + 1)
            self.repacks += 1
            self._in.insert(v, u, weight)
        self._num_edges += 1
        self.version += 1
        return True

    def maybe_compact(self) -> bool:
        """Opportunistic (post-batch) segment-wise compaction of
        tombstoned blocks; returns True when either direction ran."""
        ran = self._out.maybe_compact()
        ran = self._in.maybe_compact() or ran
        if ran:
            self.compactions += 1
        return ran

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(V={self.num_vertices}, E={self.num_edges}, "
            f"repacks={self.repacks})"
        )


class FrozenGraphParams:
    """The pre-mutation contribution parameters refinement needs.

    In-place structures cannot retain the whole previous snapshot; they
    retain exactly what old contribution/apply functions read: vertex
    counts, degree arrays, and weight sums.  Structure *traversal* during
    refinement always happens on the new snapshot (retained edges and
    explicit deletion lists), so no old adjacency is required.
    """

    def __init__(self, graph) -> None:
        self.num_vertices = graph.num_vertices
        self.num_edges = graph.num_edges
        self._out_degrees = np.asarray(graph.out_degrees()).copy()
        self._in_degrees = np.asarray(graph.in_degrees()).copy()
        self._in_weight_sums = graph.in_weight_sums().copy()
        if hasattr(graph, "out_weight_sums"):
            self._out_weight_sums = graph.out_weight_sums().copy()
        else:
            sums = np.zeros(self.num_vertices, dtype=np.float64)
            src, _, weight = graph.all_edges()
            np.add.at(sums, src, weight)
            self._out_weight_sums = sums

    def out_degrees(self) -> np.ndarray:
        return self._out_degrees

    def in_degrees(self) -> np.ndarray:
        return self._in_degrees

    def in_weight_sums(self) -> np.ndarray:
        return self._in_weight_sums

    def out_weight_sums(self) -> np.ndarray:
        return self._out_weight_sums


class DynamicStreamingGraph:
    """StreamingGraph-compatible adapter over :class:`DynamicGraph`."""

    def __init__(self, initial) -> None:
        if isinstance(initial, DynamicGraph):
            self._graph = initial
        else:
            self._graph = DynamicGraph.from_csr(initial)
        self.batches_applied = 0

    @property
    def graph(self) -> DynamicGraph:
        return self._graph

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self._graph.num_edges

    def apply_batch(self, batch: MutationBatch) -> "DynamicMutationResult":
        graph = self._graph
        old_params = FrozenGraphParams(graph)
        old_num_vertices = graph.num_vertices
        target = max(graph.num_vertices, batch.max_vertex() + 1)
        if target > graph.num_vertices:
            graph.grow_vertices(target)

        del_src, del_dst, del_weight = [], [], []
        skipped_deletions = 0
        for u, v in batch.deletions():
            weight = graph.delete_edge(u, v)
            if weight is None:
                skipped_deletions += 1
            else:
                del_src.append(u)
                del_dst.append(v)
                del_weight.append(weight)

        add_src, add_dst, add_weight = [], [], []
        skipped_additions = 0
        for u, v, w in batch.additions():
            if graph.insert_edge(u, v, w):
                add_src.append(u)
                add_dst.append(v)
                add_weight.append(w)
            else:
                skipped_additions += 1

        self.batches_applied += 1
        # Background-style compaction: deferred off the mutation path,
        # run between batches once tombstones cross the threshold.
        graph.maybe_compact()
        return DynamicMutationResult(
            old_graph=old_params,
            new_graph=graph,
            old_num_vertices=old_num_vertices,
            add_src=np.array(add_src, dtype=np.int64),
            add_dst=np.array(add_dst, dtype=np.int64),
            add_weight=np.array(add_weight, dtype=np.float64),
            del_src=np.array(del_src, dtype=np.int64),
            del_dst=np.array(del_dst, dtype=np.int64),
            del_weight=np.array(del_weight, dtype=np.float64),
            skipped_additions=skipped_additions,
            skipped_deletions=skipped_deletions,
        )

    def __repr__(self) -> str:
        return (
            f"DynamicStreamingGraph(V={self.num_vertices}, "
            f"E={self.num_edges}, batches={self.batches_applied})"
        )


class DynamicMutationResult:
    """MutationResult duck-type for the in-place structure."""

    def __init__(self, old_graph, new_graph, old_num_vertices,
                 add_src, add_dst, add_weight,
                 del_src, del_dst, del_weight,
                 skipped_additions, skipped_deletions) -> None:
        self.old_graph = old_graph
        self.new_graph = new_graph
        self._old_num_vertices = old_num_vertices
        self.add_src = add_src
        self.add_dst = add_dst
        self.add_weight = add_weight
        self.del_src = del_src
        self.del_dst = del_dst
        self.del_weight = del_weight
        self.skipped_additions = skipped_additions
        self.skipped_deletions = skipped_deletions

    @property
    def num_applied(self) -> int:
        return int(self.add_src.size + self.del_src.size)

    def grew(self) -> bool:
        return self.new_graph.num_vertices > self._old_num_vertices

    def out_changed_vertices(self) -> np.ndarray:
        return changed_vertices(self._old_num_vertices,
                                self.new_graph.num_vertices,
                                self.add_src, self.del_src)

    def in_changed_vertices(self) -> np.ndarray:
        return changed_vertices(self._old_num_vertices,
                                self.new_graph.num_vertices,
                                self.add_dst, self.del_dst)

    def added_edge_mask(self) -> np.ndarray:
        mask = np.zeros(self.new_graph.out_targets.size, dtype=bool)
        for u, v in zip(self.add_src.tolist(), self.add_dst.tolist()):
            slot = self.new_graph._out.find(u, v)
            if slot >= 0:
                mask[slot] = True
        return mask
