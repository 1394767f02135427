"""Structure adjustment as a range splice over the canonical arrays.

A mutation batch touches a handful of slots of a CSR+CSC snapshot; the
rest of the post-batch snapshot is the old one, shifted.  This module
is the single adjustment core under every snapshot store (paper
section 4.1: one offset pass, one edge-shift pass), in three parts:

- :func:`row_search` -- a vectorised per-row binary search, the one
  primitive that turns ``(vertex, neighbour)`` pairs into edge slots;
- a per-direction *plan* -- the sorted slots the batch deletes and, for
  the additions, the slot each is inserted before;
- an *emit* step that hands a heap writer
  (:meth:`~repro.graph.storage.HeapStore.writer`, whatever store the
  snapshot belongs to) each edge array as a few chunks, one ``append``
  each: the untouched runs ``old[a:b]`` of a window of
  :data:`CHUNK_ELEMENTS` old slots with the sorted additions between
  them, joined by one ``np.concatenate``.

A snapshot's in-edge (CSC) neighbour and weight arrays may be
*deferred* (:class:`InEdges`): kept as the last ones built plus the
batches applied since, and spliced when something first reads them.
Its offsets never are: :func:`spliced_offsets` is O(V).

**Ordering contract.**  The spliced arrays equal, byte for byte, what
the :class:`~repro.graph.csr.CSRGraph` constructor builds from
``survivors ++ additions``: its stable pair sort keeps surviving edges
ahead of additions with the same ``(key, other)`` pair and keeps such
additions in batch order.  The plan reproduces that by ordering the
additions with a stable sort and inserting each at the *right* end of
any run of equal neighbours in its row.

Cost is O(k log d) array steps for the plan (k mutations, d the
largest probed degree), O(V) for the offsets and one copy of the edge
arrays for the emit -- no sort over E, no per-edge key or mask, and
O(k + E / CHUNK_ELEMENTS) Python steps and writer calls.
"""

from __future__ import annotations

import mmap
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.graph.mutation import pair_disjoint_runs
from repro.graph.pairs import pair_order
from repro.obs import trace

__all__ = [
    "CHUNK_ELEMENTS",
    "AppliedBatch",
    "InEdges",
    "locate",
    "row_search",
    "splice",
    "spliced_offsets",
]

#: Old slots per emitted chunk (8 MB of int64): beyond the O(V) offsets,
#: an adjustment holds one chunk per edge array in heap.
CHUNK_ELEMENTS = 1 << 20


def row_search(offsets: np.ndarray, others: np.ndarray, keys: np.ndarray,
               values: np.ndarray, side: str = "left") -> np.ndarray:
    """``np.searchsorted(row(keys[i]), values[i], side)`` for every i at
    once, as absolute slots into ``others``.

    ``row(v)`` is ``others[offsets[v]:offsets[v + 1]]``, sorted
    ascending.  Every probe halves its own ``[lo, hi)`` interval per
    step, so only slots in or right after the probed rows are read -- a
    memmap stays on disk apart from those pages.
    """
    lo = offsets[keys]
    hi = offsets[keys + 1]
    goes_right = np.less if side == "left" else np.less_equal
    last = others.size - 1
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        # A closed interval (lo == hi) stays put: mid == hi there, and
        # the clip only keeps its dead probe inside the array.
        right = (lo < hi) & goes_right(others[np.minimum(mid, last)], values)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo


def locate(offsets: np.ndarray, others: np.ndarray, keys: np.ndarray,
           values: np.ndarray) -> np.ndarray:
    """Leftmost slot of each ``(key, value)`` pair, -1 where row ``key``
    does not hold ``value``.  Keys must address existing rows."""
    slots = row_search(offsets, others, keys, values, "left")
    hit = slots < offsets[keys + 1]
    hit[hit] = others[slots[hit]] == values[hit]
    return np.where(hit, slots, -1)


def _drop_resident(array: np.ndarray, start: int, stop: int) -> None:
    """Drop the resident pages behind ``array[start:stop]`` of a whole
    ``np.memmap`` (clean pages of a read-only map: a later touch
    refetches them), so emitting an old generation never drags all of
    it resident.  Both ends round down: a shared page goes with the
    later window."""
    mapping = getattr(array, "_mmap", None)
    if mapping is None or array.base is not mapping:
        return
    first = array.offset % mmap.ALLOCATIONGRANULARITY  # element 0's byte
    lo = (first + start * array.itemsize) // mmap.PAGESIZE * mmap.PAGESIZE
    hi = (len(mapping) if stop == array.size else
          (first + stop * array.itemsize) // mmap.PAGESIZE * mmap.PAGESIZE)
    if hi > lo:
        try:
            mapping.madvise(mmap.MADV_DONTNEED, lo, hi - lo)
        except (AttributeError, ValueError, OSError):
            pass


def spliced_offsets(offsets: np.ndarray, num_vertices: int,
                    add_key: np.ndarray, del_key: np.ndarray) -> np.ndarray:
    """One direction's offsets after a batch: the old ones padded for
    growth (new rows start out empty at the end) plus the running sum
    of each vertex's degree change."""
    new_offsets = _padded(offsets, num_vertices)
    new_offsets[1:] += np.cumsum(
        np.bincount(add_key, minlength=num_vertices)
        - np.bincount(del_key, minlength=num_vertices)
    )
    return new_offsets


def _padded(offsets: np.ndarray, num_vertices: int) -> np.ndarray:
    padded = np.full(num_vertices + 1, offsets[-1], dtype=np.int64)
    padded[:offsets.size] = offsets
    return padded


def splice(writer, names: Tuple[str, str, str], num_vertices: int,
           offsets: np.ndarray, others: np.ndarray, weights: np.ndarray,
           add_key: np.ndarray, add_other: np.ndarray,
           add_weight: np.ndarray,
           del_key: np.ndarray, del_other: np.ndarray) -> np.ndarray:
    """Write one direction (CSR or CSC) of the post-batch snapshot.

    ``names`` are the writer's array names for this direction's
    offsets, neighbours and weights.  Deletions must be present in the
    old arrays; additions are inserted unconditionally.  Returns the
    slot of every addition in the *new* neighbour array, aligned with
    ``add_key``.
    """
    offsets_name, others_name, weights_name = names
    num_edges = int(others.size)
    writer.append(offsets_name,
                  spliced_offsets(offsets, num_vertices, add_key, del_key))

    # Plan, deletions: the sorted slots that vanish.
    del_slots = locate(offsets, others, del_key, del_other)
    if del_slots.size and del_slots.min() < 0:
        # Imported here: repro.graph.storage imports this module.
        from repro.graph.storage import StoreError

        lost = int(np.argmin(del_slots))
        raise StoreError(
            f"edge ({del_key[lost]}, {del_other[lost]}) vanished "
            "between resolution and adjustment"
        )
    del_slots.sort()

    # Plan, additions: stable (key, other) order, each inserted before
    # the slot at the right end of its equal run.
    order = pair_order(add_key, add_other, num_vertices)
    add_other = add_other[order]
    add_weight = add_weight[order]
    ins_slots = row_search(_padded(offsets, num_vertices), others,
                           add_key[order], add_other, "right")
    added_slots = np.empty(order.size, dtype=np.int64)
    added_slots[order] = (ins_slots + np.arange(order.size)
                          - np.searchsorted(del_slots, ins_slots))

    # Cuts through the old arrays, in walk order: one before each
    # distinct insertion slot (its additions follow the run ending
    # there), one at each deleted slot, one at every chunk boundary.  At
    # a shared slot the additions land first; the deletion then skips.
    slots = ins_slots[np.diff(ins_slots, prepend=-1) > 0]  # sorted already
    bounds = np.arange(CHUNK_ELEMENTS, num_edges, CHUNK_ELEMENTS)
    cut = np.concatenate([slots, del_slots, bounds])
    kind = np.repeat([0, 1, 2], [slots.size, del_slots.size, bounds.size])
    lo = np.zeros(cut.size, dtype=np.int64)
    hi = lo.copy()
    lo[:slots.size] = np.searchsorted(ins_slots, slots, "left")
    hi[:slots.size] = np.searchsorted(ins_slots, slots, "right")
    walk = pair_order(cut, kind == 1, 2)
    cut, kind = cut[walk], kind[walk]
    # Run k is old[starts[k]:stops[k]], then additions[lo[k]:hi[k]]; a
    # chunk closes with the run that ends at a boundary.
    starts = np.concatenate([[0], cut + (kind == 1)]).tolist()
    stops = np.concatenate([cut, [num_edges]]).tolist()
    lo, hi = lo[walk].tolist(), hi[walk].tolist()
    ends = (2 * np.flatnonzero(kind == 2) + 1).tolist() + [2 * cut.size + 1]

    # Emit: per array, each chunk's pieces joined and written at once.
    for name, old, additions in ((others_name, others, add_other),
                                 (weights_name, weights, add_weight)):
        source = np.asarray(old)  # a plain view slices faster than a memmap
        pieces = [None] * (2 * cut.size + 1)
        pieces[0::2] = [source[a:b] for a, b in zip(starts, stops)]
        pieces[1::2] = [additions[a:b] for a, b in zip(lo, hi)]
        begin = 0
        for chunk, end in enumerate(ends):
            writer.append(name, np.concatenate(pieces[begin:end]))
            _drop_resident(old, chunk * CHUNK_ELEMENTS,
                           min((chunk + 1) * CHUNK_ELEMENTS, num_edges))
            begin = end
    return added_slots


class AppliedBatch(NamedTuple):
    """The edges one batch actually added and deleted (after its
    skipped mutations were dropped), and the vertex count after it."""

    num_vertices: int
    add_src: np.ndarray
    add_dst: np.ndarray
    add_weight: np.ndarray
    del_src: np.ndarray
    del_dst: np.ndarray


def _joined(run: List[AppliedBatch]) -> AppliedBatch:
    """A pair-disjoint run as one batch: its arrays concatenated."""
    return AppliedBatch(run[-1].num_vertices, *(
        np.concatenate(parts) for parts in zip(*(batch[1:] for batch in run))
    ))


class InEdges:
    """A snapshot's in-edge neighbour and weight arrays, built or
    deferred.

    A deferred one is the batches applied since its *base*, the nearest
    predecessor whose arrays were built, one batch per link of a
    ``previous`` chain, so each adjustment adds O(1).  The first
    :meth:`arrays` splices the backlog into heap arrays, one
    :func:`splice` per maximal run of pair-disjoint batches
    (:func:`pair_disjoint_runs`, so the bytes are those one splice per
    batch writes); a seal writes the last run's like any other array.

    ``read`` records that the graph's in-edge accessors were used;
    :meth:`~repro.graph.storage.SnapshotStore.adjust` then splices the
    next snapshot's arrays at once.
    """

    __slots__ = ("offsets", "read", "mutations", "base_edges",
                 "_arrays", "_previous", "_batch")

    def __init__(self, offsets: np.ndarray, sources: np.ndarray,
                 weights: np.ndarray) -> None:
        self.offsets: Optional[np.ndarray] = offsets
        self.read = False
        #: Mutations deferred since the base (0 once built), and the
        #: base's edge count.
        self.mutations = 0
        self.base_edges = int(sources.size)
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = (
            sources, weights)
        self._previous: Optional[InEdges] = None
        self._batch: Optional[AppliedBatch] = None

    def then(self, batch: AppliedBatch) -> "InEdges":
        """The deferred in-direction of the snapshot ``batch`` makes
        of this one."""
        after = InEdges.__new__(InEdges)
        after.offsets, after.read = None, False
        after._arrays, after._previous, after._batch = None, self, batch
        after.mutations = (self.mutations + batch.add_src.size
                           + batch.del_src.size)
        after.base_edges = self.base_edges
        return after

    def due(self) -> bool:
        """True once the backlog holds as many mutations as its base
        has edges: the deferred batches may not outweigh the arrays
        they stand in for."""
        return self.mutations >= self.base_edges

    def pending(self) -> bool:
        return self._arrays is None

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(in_sources, in_weights)``, spliced first if deferred."""
        if self._arrays is None:
            # Imported here: repro.graph.storage imports this module.
            from repro.graph.storage import HeapStore

            backlog, node = [], self
            while node._arrays is None:
                backlog.append(node._batch)
                node = node._previous
            backlog.reverse()
            offsets, (sources, weights) = node.offsets, node._arrays
            runs = pair_disjoint_runs(backlog)
            with trace.span("adjust_structure",
                            deferred_batches=len(backlog)):
                for batch in map(_joined, runs):
                    writer = HeapStore().writer()
                    splice(writer, ("in_offsets", "in_sources", "in_weights"),
                           batch.num_vertices, offsets, sources, weights,
                           batch.add_dst, batch.add_src, batch.add_weight,
                           batch.del_dst, batch.del_src)
                    offsets, sources, weights = writer.in_edges()
            self.offsets, self._arrays = offsets, (sources, weights)
            self._previous = self._batch = None
            self.mutations, self.base_edges = 0, int(sources.size)
        return self._arrays
