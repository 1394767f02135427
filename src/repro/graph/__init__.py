"""Streaming graph substrate.

This subpackage provides the graph structures GraphBolt computes over:

- :class:`~repro.graph.csr.CSRGraph` -- an immutable compressed sparse
  row/column snapshot with NumPy-backed adjacency.
- :class:`~repro.graph.mutable.StreamingGraph` -- a dynamic graph that
  applies :class:`~repro.graph.mutation.MutationBatch` objects with one
  range splice per direction (:mod:`~repro.graph.splice`, standing in for
  the paper's two-pass structure adjustment); each batch's result
  carries the previous snapshot so old contribution functions can
  still be evaluated during refinement.
- :mod:`~repro.graph.generators` -- synthetic graph generators (RMAT,
  Erdos-Renyi, ...) standing in for the paper's web/social datasets.
"""

from repro.graph.csr import CSRGraph
from repro.graph.mutable import MutationResult, StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.graph.window import SlidingWindowStream

# Imported last: storage pulls in repro.testing (failpoints), whose
# engine imports resolve names from this partially-initialized package.
from repro.graph.storage import (  # noqa: E402
    HeapStore,
    MmapStore,
    SnapshotStore,
    store_from_spec,
)

__all__ = [
    "CSRGraph",
    "HeapStore",
    "MmapStore",
    "MutationBatch",
    "MutationResult",
    "SlidingWindowStream",
    "SnapshotStore",
    "StreamingGraph",
    "store_from_spec",
]
