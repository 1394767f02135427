"""The dynamic streaming graph.

:class:`StreamingGraph` owns the current :class:`~repro.graph.csr.CSRGraph`
snapshot and applies :class:`~repro.graph.mutation.MutationBatch` objects,
standing in for the paper's structure-adjustment scheme (section 4.1)
with one range splice per direction (:mod:`repro.graph.splice`): the
batch's deletions and additions are located by per-row binary search and
the next snapshot is emitted in one pass that copies the untouched runs
between them.  Each batch's :class:`MutationResult` carries both the
previous and the new snapshot, because dependency-driven refinement
must evaluate *old* contribution functions (old values, old degrees)
against the old structure and new contributions against the new one;
the stream itself keeps only the new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.mutation import MutationBatch
from repro.graph.splice import locate
from repro.graph.storage import HeapStore

__all__ = ["MutationResult", "StreamingGraph"]


@dataclass
class MutationResult:
    """Everything an incremental engine needs to know about one batch.

    The ``add_*``/``del_*`` arrays contain only mutations that actually
    changed the structure: additions of already-present edges and deletions
    of absent edges are dropped (and reported via ``skipped_additions`` /
    ``skipped_deletions``).  ``added_slots`` holds the CSR slot of each
    applied addition in ``new_graph``, aligned with ``add_src``.
    """

    old_graph: CSRGraph
    new_graph: CSRGraph
    add_src: np.ndarray
    add_dst: np.ndarray
    add_weight: np.ndarray
    del_src: np.ndarray
    del_dst: np.ndarray
    del_weight: np.ndarray
    added_slots: np.ndarray
    skipped_additions: int = 0
    skipped_deletions: int = 0
    _out_changed: Optional[np.ndarray] = field(default=None, repr=False)
    _in_changed: Optional[np.ndarray] = field(default=None, repr=False)
    _added_mask: Optional[np.ndarray] = field(default=None, repr=False)

    def out_changed_vertices(self) -> np.ndarray:
        """Vertices whose out-edge set changed (sorted, unique).

        These are exactly the vertices whose contribution *parameters*
        (e.g. out-degree in PageRank) may have changed, plus any brand-new
        vertices in the grown id range.
        """
        if self._out_changed is None:
            self._out_changed = self._changed(self.add_src, self.del_src)
        return self._out_changed

    def in_changed_vertices(self) -> np.ndarray:
        """Vertices whose in-edge set changed (sorted, unique)."""
        if self._in_changed is None:
            self._in_changed = self._changed(self.add_dst, self.del_dst)
        return self._in_changed

    def _changed(self, added: np.ndarray, deleted: np.ndarray) -> np.ndarray:
        """Sorted unique endpoints of the applied edges on one side, plus
        the brand-new vertices of the grown id range."""
        # Imported here: repro.ligra's engines import this module.
        from repro.ligra.frontier import union_ids

        new_ids = np.arange(self.old_graph.num_vertices,
                            self.new_graph.num_vertices, dtype=np.int64)
        return union_ids(self.new_graph.num_vertices, added, deleted, new_ids)

    def grew(self) -> bool:
        return self.new_graph.num_vertices > self.old_graph.num_vertices

    def added_edge_mask(self) -> np.ndarray:
        """Boolean mask over the *new* graph's CSR edge slots marking the
        edges this batch added.

        Dependency-driven refinement uses this to exclude newly-added
        edges from the transitive ⋃△ pass (they have no old contribution
        to retract; their whole contribution was already added by the
        direct-impact ⊎ pass).
        """
        if self._added_mask is None:
            mask = np.zeros(self.new_graph.num_edges, dtype=bool)
            mask[self.added_slots] = True
            self._added_mask = mask
        return self._added_mask


class StreamingGraph:
    """A dynamic graph mutated by a stream of mutation batches."""

    def __init__(self, initial: CSRGraph) -> None:
        self._graph = initial
        self.batches_applied = 0

    @property
    def graph(self) -> CSRGraph:
        """The latest snapshot."""
        return self._graph

    # ------------------------------------------------------------------
    def apply_batch(self, batch: MutationBatch) -> MutationResult:
        """Apply one mutation batch and return the applied delta.

        The batch is resolved against the current snapshot, then one
        splice per direction emits the next one.  Deletion of an absent
        edge or re-addition of a present edge is skipped, not an error,
        matching the stream semantics of real systems where update feeds
        can carry stale operations.
        """
        old = self._graph
        num_vertices = batch.num_vertices_after(old.num_vertices)

        del_src, del_dst, del_weight, skipped_del = self._resolve_deletions(
            old, batch.del_src, batch.del_dst
        )
        add_src, add_dst, add_weight, skipped_add = self._resolve_additions(
            old, batch.add_src, batch.add_dst, batch.add_weight,
            del_src, del_dst,
        )

        # One splice per direction, written through the snapshot's own
        # store (see SnapshotStore.adjust); plain graphs live on heap.
        new_graph, added_slots = (old.store or HeapStore()).adjust(
            old, num_vertices, add_src, add_dst, add_weight, del_src, del_dst
        )

        self._graph = new_graph
        self.batches_applied += 1
        if old.store is not None:
            # Only the result reads the old snapshot now: dropping the
            # stream's live reference lets the store tombstone and
            # compact its generation (open memmap views stay valid).
            old.store.release(old)
        return MutationResult(
            old_graph=old,
            new_graph=new_graph,
            add_src=add_src,
            add_dst=add_dst,
            add_weight=add_weight,
            del_src=del_src,
            del_dst=del_dst,
            del_weight=del_weight,
            added_slots=added_slots,
            skipped_additions=skipped_add,
            skipped_deletions=skipped_del,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _edge_positions(
        graph: CSRGraph, src: np.ndarray, dst: np.ndarray
    ) -> np.ndarray:
        """CSR slot of each (src, dst) pair, or -1 where the edge is absent.

        One vectorised binary search per queried row (heap arrays and
        memmaps alike; see :func:`repro.graph.splice.row_search`).
        Pairs with either endpoint outside the vertex range are
        reported absent up front.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        positions = np.full(src.size, -1, dtype=np.int64)
        num_vertices = graph.num_vertices
        valid = np.flatnonzero(
            (src >= 0) & (src < num_vertices)
            & (dst >= 0) & (dst < num_vertices)
        )
        positions[valid] = locate(
            graph.out_offsets, graph.out_targets, src[valid], dst[valid]
        )
        return positions

    def _resolve_deletions(self, old, del_src, del_dst):
        positions = self._edge_positions(old, del_src, del_dst)
        present = positions >= 0
        skipped = int((~present).sum())
        del_weight = old.out_weights[positions[present]]
        return del_src[present], del_dst[present], del_weight, skipped

    def _resolve_additions(self, old, add_src, add_dst, add_weight,
                           del_src, del_dst):
        positions = self._edge_positions(old, add_src, add_dst)
        absent = positions < 0
        # An edge being deleted in the same batch may be re-added with a new
        # weight; MutationBatch already cancelled exact add/delete pairs, so
        # here "present and also deleted" means replace (delete then add).
        if del_src.size:
            # Scalar keys are exact for pairs inside the old vertex range;
            # an addition outside it is absent already, so a key collision
            # there changes nothing.
            stride = np.int64(old.num_vertices)
            deleted = np.sort(del_src * stride + del_dst)
            probe = add_src * stride + add_dst
            slots = np.minimum(np.searchsorted(deleted, probe),
                               deleted.size - 1)
            absent = absent | (deleted[slots] == probe)
        skipped = int((~absent).sum())
        return add_src[absent], add_dst[absent], add_weight[absent], skipped

    def __repr__(self) -> str:
        return (
            f"StreamingGraph(V={self._graph.num_vertices}, "
            f"E={self._graph.num_edges}, "
            f"batches={self.batches_applied})"
        )
