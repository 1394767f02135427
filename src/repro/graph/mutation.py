"""Edge mutation batches.

A :class:`MutationBatch` carries the edge additions and deletions that
transform one graph snapshot into the next (the paper's ``E_a`` and
``E_d`` in section 3.3).  Batches are validated and de-duplicated at
construction so downstream engines can assume:

- no duplicate additions, no duplicate deletions;
- no self-loops (simple-digraph invariant);
- endpoint ids are non-negative.

Within a batch, deletions apply before additions: an edge that is both
deleted and added is *replaced* (its weight updated) if it existed, and
simply added if it did not.

Consecutive batches compose: :meth:`MutationBatch.merge` folds a
follow-up batch into this one, producing a single batch whose
application to any base graph without a repeated ``(src, dst)`` pair
matches applying the two in sequence (the admission controller's
``coalesce`` policy relies on this, and :func:`coalesce_batches` is the
n-ary fold).  On a base with repeated pairs the fold is exact only over
batches whose touched pairs are disjoint (:func:`pair_disjoint_runs`),
where it is concatenation.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.pairs import first_pairs

__all__ = ["MutationBatch", "coalesce_batches", "pair_disjoint_runs"]


class MutationBatch:
    """A batch of edge additions and deletions.

    Parameters
    ----------
    add_src, add_dst:
        Endpoints of edges to insert.
    add_weight:
        Weights of inserted edges (defaults to ones).
    del_src, del_dst:
        Endpoints of edges to delete.
    grow_to:
        Optional explicit new vertex count (vertex additions).  The graph
        also grows implicitly if an added edge references a vertex beyond
        the current count.
    """

    def __init__(
        self,
        add_src: Optional[Sequence[int]] = None,
        add_dst: Optional[Sequence[int]] = None,
        add_weight: Optional[Sequence[float]] = None,
        del_src: Optional[Sequence[int]] = None,
        del_dst: Optional[Sequence[int]] = None,
        grow_to: Optional[int] = None,
    ) -> None:
        self.add_src = _as_index_array(add_src)
        self.add_dst = _as_index_array(add_dst)
        if self.add_src.shape != self.add_dst.shape:
            raise ValueError("addition endpoint arrays must match")
        if add_weight is None:
            self.add_weight = np.ones(self.add_src.size, dtype=np.float64)
        else:
            self.add_weight = np.asarray(add_weight, dtype=np.float64)
            if self.add_weight.shape != self.add_src.shape:
                raise ValueError("addition weights must match endpoints")
            if self.add_weight.size and not np.isfinite(self.add_weight).all():
                raise ValueError(
                    "edge weights must be finite (a NaN or infinite weight "
                    "would poison every aggregation it ever touched)"
                )
        self.del_src = _as_index_array(del_src)
        self.del_dst = _as_index_array(del_dst)
        if self.del_src.shape != self.del_dst.shape:
            raise ValueError("deletion endpoint arrays must match")
        if grow_to is not None:
            if isinstance(grow_to, float) and not float(grow_to).is_integer():
                raise ValueError(
                    f"grow_to must be an integer vertex count, "
                    f"got {grow_to!r}"
                )
            grow_to = int(grow_to)
            if grow_to < 0:
                raise ValueError(
                    f"grow_to must be non-negative, got {grow_to}"
                )
        self.grow_to = grow_to
        self.dropped_self_loops = 0
        self._drop_self_loops()
        self._dedup()

    def _drop_self_loops(self) -> None:
        """Enforce the simple-digraph invariant: no (v, v) edges.

        Update feeds routinely carry degenerate records; dropping them
        here keeps every downstream engine (and triangle counting's
        cycle arithmetic in particular) free of self-loop special cases.
        """
        keep_add = self.add_src != self.add_dst
        keep_del = self.del_src != self.del_dst
        self.dropped_self_loops = int(
            (~keep_add).sum() + (~keep_del).sum()
        )
        if self.dropped_self_loops:
            self.add_src = self.add_src[keep_add]
            self.add_dst = self.add_dst[keep_add]
            self.add_weight = self.add_weight[keep_add]
            self.del_src = self.del_src[keep_del]
            self.del_dst = self.del_dst[keep_del]

    # ------------------------------------------------------------------
    def _dedup(self) -> None:
        """Keep the first of each repeated pair, in batch order."""
        if self.add_src.size:
            first = _first_in_order(self.add_src, self.add_dst)
            self.add_src = self.add_src[first]
            self.add_dst = self.add_dst[first]
            self.add_weight = self.add_weight[first]
        if self.del_src.size:
            first = _first_in_order(self.del_src, self.del_dst)
            self.del_src = self.del_src[first]
            self.del_dst = self.del_dst[first]

    # ------------------------------------------------------------------
    @property
    def num_additions(self) -> int:
        return int(self.add_src.size)

    @property
    def num_deletions(self) -> int:
        return int(self.del_src.size)

    def __len__(self) -> int:
        return self.num_additions + self.num_deletions

    def __bool__(self) -> bool:
        return len(self) > 0 or self.grow_to is not None

    def max_vertex(self) -> int:
        """Largest vertex id referenced by the batch (-1 if empty)."""
        hi = -1
        for arr in (self.add_src, self.add_dst, self.del_src, self.del_dst):
            if arr.size:
                hi = max(hi, int(arr.max()))
        if self.grow_to is not None:
            hi = max(hi, self.grow_to - 1)
        return hi

    def num_vertices_after(self, num_vertices: int) -> int:
        """Vertex count of a ``num_vertices``-vertex graph after this
        batch: addition endpoints and ``grow_to`` grow it, a deletion
        never does (an endpoint outside the graph names no edge)."""
        ends = [int(arr.max()) + 1 for arr in (self.add_src, self.add_dst)
                if arr.size]
        return max([num_vertices, self.grow_to or 0, *ends])

    def validate(self, num_vertices: int,
                 max_growth: Optional[int] = None) -> None:
        """Boundary check against a concrete graph (the ingest boundary).

        Construction cannot know the target graph, so range errors used
        to surface deep inside CSR adjustment -- or worse, a deletion at
        a bogus huge vertex id silently *grew* the graph to cover it.
        Serving calls this before admitting a batch:

        - deletion endpoints must address existing vertices (an edge at
          a vertex that does not exist cannot be live, so such a record
          is malformed, not merely stale);
        - the implied new vertex count (addition endpoints / ``grow_to``)
          must not exceed ``num_vertices + max_growth`` when a growth
          budget is given.
        """
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        for name, arr in (("del_src", self.del_src),
                          ("del_dst", self.del_dst)):
            if arr.size and arr.max() >= num_vertices:
                bad = int(arr.max())
                raise ValueError(
                    f"deletion endpoint out of range: {name} contains "
                    f"vertex {bad} but the graph has {num_vertices} "
                    f"vertices (no such edge can exist)"
                )
        if max_growth is not None:
            implied = self.max_vertex() + 1
            if implied > num_vertices + max_growth:
                raise ValueError(
                    f"batch grows the graph to {implied} vertices, "
                    f"beyond the admission growth budget of "
                    f"{num_vertices} + {max_growth}"
                )

    # ------------------------------------------------------------------
    def merge(self, later: "MutationBatch") -> "MutationBatch":
        """Fold ``later`` into this batch (self applies first).

        The merged batch applies to any base graph *without a repeated
        ``(src, dst)`` pair* exactly as the sequence ``self; later``
        would, under the stream semantics that re-adding a present edge
        is skipped and deleting an absent edge is skipped.  Per edge
        (deletions before additions within each batch):

        - anything then delete      -> delete;
        - delete then add           -> delete + add (replacement);
        - add then add              -> the first add wins (the second
          would have been skipped as a re-addition);
        - ``grow_to``               -> the maximum of the two.

        On a multigraph base "delete then add" is not a replacement: the
        sequence deletes one copy of a repeated pair and skips the
        re-add (another copy is still present); the merge deletes one
        and adds one.  When the two batches touch disjoint pairs no edge
        has a history to fold, and the merge is exact on any base
        (:func:`pair_disjoint_runs`).

        The fold is associative, so a queue of batches coalesces left to
        right (:func:`coalesce_batches`).
        """
        deleted = {}
        pending_add = {}
        for batch in (self, later):
            for edge in batch.deletions():
                pending_add.pop(edge, None)
                deleted[edge] = True
            for s, d, w in batch.additions():
                if (s, d) not in pending_add:
                    pending_add[(s, d)] = w
        grow_to = self.grow_to
        if later.grow_to is not None:
            grow_to = (later.grow_to if grow_to is None
                       else max(grow_to, later.grow_to))
        add_edges = list(pending_add)
        return MutationBatch.from_edges(
            additions=add_edges,
            deletions=list(deleted),
            add_weights=[pending_add[e] for e in add_edges],
            grow_to=grow_to,
        )

    # ------------------------------------------------------------------
    def additions(self) -> Iterable[Tuple[int, int, float]]:
        return zip(
            self.add_src.tolist(), self.add_dst.tolist(), self.add_weight.tolist()
        )

    def deletions(self) -> Iterable[Tuple[int, int]]:
        return zip(self.del_src.tolist(), self.del_dst.tolist())

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        additions: Iterable[Tuple[int, int]] = (),
        deletions: Iterable[Tuple[int, int]] = (),
        add_weights: Optional[Iterable[float]] = None,
        grow_to: Optional[int] = None,
    ) -> "MutationBatch":
        """Build a batch from iterables of ``(src, dst)`` pairs."""
        adds = list(additions)
        dels = list(deletions)
        weights = None if add_weights is None else list(add_weights)
        return cls(
            add_src=[e[0] for e in adds],
            add_dst=[e[1] for e in adds],
            add_weight=weights,
            del_src=[e[0] for e in dels],
            del_dst=[e[1] for e in dels],
            grow_to=grow_to,
        )

    @classmethod
    def empty(cls) -> "MutationBatch":
        return cls()

    def __repr__(self) -> str:
        return (
            f"MutationBatch(+{self.num_additions}, -{self.num_deletions}"
            + (f", grow_to={self.grow_to}" if self.grow_to is not None else "")
            + ")"
        )


def coalesce_batches(batches: Iterable[MutationBatch]) -> MutationBatch:
    """Merge consecutive batches into a single equivalent batch.

    The n-ary fold of :meth:`MutationBatch.merge` (which holds the
    edge-level state machine, its semantics and its precondition): the
    result applies to any base graph without a repeated ``(src, dst)``
    pair exactly as the sequence would, and to any base at all when the
    batches touch disjoint pairs.
    """
    merged: Optional[MutationBatch] = None
    for batch in batches:
        merged = batch if merged is None else merged.merge(batch)
    return merged if merged is not None else MutationBatch.empty()


def pair_disjoint_runs(batches: Sequence) -> List[list]:
    """Split ``batches`` into maximal consecutive runs in which no
    ``(src, dst)`` pair is touched (added or deleted) by two batches.

    Coalescing such a run is concatenation, so one splice of
    :func:`coalesce_batches` over it equals applying its batches one by
    one, byte for byte, on any base graph -- repeated pairs included.
    A batch is anything with ``add_src`` / ``add_dst`` / ``del_src`` /
    ``del_dst`` arrays: a :class:`MutationBatch`, or the applied part
    of one (:class:`~repro.graph.splice.AppliedBatch`).
    """
    if len(batches) < 2:
        return [list(batches)] if batches else []
    runs: List[list] = []
    seen: set = set()
    for batch in batches:
        pairs = set(zip(batch.add_src.tolist(), batch.add_dst.tolist()))
        pairs.update(zip(batch.del_src.tolist(), batch.del_dst.tolist()))
        if not runs or not seen.isdisjoint(pairs):
            runs.append([])
            seen = set()
        runs[-1].append(batch)
        seen |= pairs
    return runs


def _first_in_order(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Index of each pair's first occurrence, in batch order."""
    stride = max(int(src.max()), int(dst.max())) + 1
    first = first_pairs(src, dst, stride)
    first.sort()
    return first


def _as_index_array(values: Optional[Sequence[int]]) -> np.ndarray:
    if values is None:
        return np.empty(0, dtype=np.int64)
    raw = np.asarray(values)
    if raw.size == 0:
        # An empty list materialises as float64; it carries no ids to
        # mis-type, so it is always acceptable.
        return np.empty(0, dtype=np.int64)
    if raw.dtype.kind not in "iu":
        # np.asarray(..., dtype=int64) would silently truncate floats
        # (1.7 -> 1) or raise an opaque cast error on strings; reject
        # both at the boundary with the actual offending dtype.
        raise ValueError(
            f"vertex id arrays must have an integer dtype, got "
            f"{raw.dtype} (a float id is a malformed stream record, "
            f"not a truncatable one)"
        )
    arr = raw.astype(np.int64, copy=False)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size and arr.min() < 0:
        raise ValueError(
            f"vertex ids must be non-negative, got {int(arr.min())}"
        )
    return arr
