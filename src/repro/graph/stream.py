"""Buffered mutation streams.

The paper (section 4.1) specifies that mutations arriving while a
refinement step is in flight are buffered to protect the latency of the
ongoing step, and applied immediately after it finishes.
:class:`MutationStream` models exactly that protocol: producers ``push``
batches at any time; the consumer ``take`` s either one batch or, when it
has fallen behind, all buffered batches coalesced into one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Iterator, List, Optional

from repro.graph.mutation import MutationBatch

__all__ = ["MutationStream", "coalesce_batches"]


def coalesce_batches(batches: Iterable[MutationBatch]) -> MutationBatch:
    """Merge consecutive batches into a single equivalent batch.

    The n-ary fold of :meth:`~repro.graph.mutation.MutationBatch.merge`
    (which holds the edge-level state machine and its semantics): the
    result applies to *any* base graph exactly as the sequence would,
    accounting for the stream semantics that a re-addition of a present
    edge is skipped and a deletion of an absent edge is skipped.
    """
    merged: Optional[MutationBatch] = None
    for batch in batches:
        merged = batch if merged is None else merged.merge(batch)
    return merged if merged is not None else MutationBatch.empty()


class MutationStream:
    """A FIFO of mutation batches with refinement-aware buffering."""

    def __init__(self, batches: Iterable[MutationBatch] = ()) -> None:
        self._queue: Deque[MutationBatch] = deque(batches)
        self._refining = False
        self.pushed = len(self._queue)
        self.taken = 0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def push(self, batch: MutationBatch) -> None:
        """Enqueue a batch; always legal, even mid-refinement."""
        self._queue.append(batch)
        self.pushed += 1

    def push_edges(self, additions=(), deletions=()) -> None:
        self.push(MutationBatch.from_edges(additions, deletions))

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def begin_refinement(self) -> None:
        """Mark the start of a refinement step (buffer-only mode)."""
        self._refining = True

    def end_refinement(self) -> None:
        self._refining = False

    @property
    def refining(self) -> bool:
        return self._refining

    def take(self) -> Optional[MutationBatch]:
        """Dequeue the next batch, or None when empty or mid-refinement."""
        if self._refining or not self._queue:
            return None
        self.taken += 1
        return self._queue.popleft()

    def take_all(self) -> Optional[MutationBatch]:
        """Dequeue *all* buffered batches coalesced into one."""
        if self._refining or not self._queue:
            return None
        batches: List[MutationBatch] = list(self._queue)
        self._queue.clear()
        self.taken += len(batches)
        if len(batches) == 1:
            return batches[0]
        return coalesce_batches(batches)

    def __iter__(self) -> Iterator[MutationBatch]:
        while True:
            batch = self.take()
            if batch is None:
                return
            yield batch
