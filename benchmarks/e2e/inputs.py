"""Seeded input generation: the load generator's half of the benchmark.

Paper section 5.1: an RMAT graph, 50% of its edges loaded, the rest
streamed in as additions; each batch mixes 30% deletions of loaded edges
with the additions.  This is the methodology of
``repro.bench.workloads.mixed_stream`` written with array operations:
``mixed_stream`` keeps a Python dict of live edges and lists its keys
once per batch (4 s for one scale-16 stream), which would spend a tenth
of the benchmark's time budget generating inputs.  Deletions here are
drawn without replacement from the *initially loaded* edges, so no
liveness bookkeeping is needed; every mutation is effective (no skipped
additions or deletions), which is what makes the work counters exact.

The program under test receives only what :class:`Inputs` holds: edge
arrays for ``CSRGraph`` and a list of ``MutationBatch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.graph.generators import rmat
from repro.graph.mutation import MutationBatch

LOAD_FRACTION = 0.5
DELETE_FRACTION = 0.3
EDGE_FACTOR = 16


@dataclass
class Inputs:
    num_vertices: int
    src: np.ndarray          # loaded edges, shuffled order
    dst: np.ndarray
    weight: np.ndarray
    batches: List[MutationBatch]

    @property
    def mutations(self) -> int:
        return sum(len(batch) for batch in self.batches)


def generate(scale: int, batch_size: int, num_batches: int,
             seed: int) -> Inputs:
    """The same ``seed`` gives the same graph and the same stream."""
    graph = rmat(scale, edge_factor=EDGE_FACTOR, weighted=True, seed=seed)
    src, dst, weight = graph.all_edges()
    rng = np.random.default_rng([seed, scale, batch_size])
    order = rng.permutation(src.size)
    cut = int(src.size * LOAD_FRACTION)
    loaded, pending = order[:cut], order[cut:]

    deletes = int(batch_size * DELETE_FRACTION)
    adds = batch_size - deletes
    if num_batches * adds > pending.size or num_batches * deletes > cut:
        raise ValueError(
            f"scale {scale} cannot feed {num_batches} batches of "
            f"{batch_size} mutations"
        )
    # rmat edges are unique, so pending edges are absent from the loaded
    # graph and distinct loaded edges are present until deleted once.
    doomed = loaded[rng.permutation(cut)[: num_batches * deletes]]
    batches = []
    for index in range(num_batches):
        add = pending[index * adds: (index + 1) * adds]
        gone = doomed[index * deletes: (index + 1) * deletes]
        batches.append(MutationBatch(
            add_src=src[add], add_dst=dst[add], add_weight=weight[add],
            del_src=src[gone], del_dst=dst[gone],
        ))
    return Inputs(graph.num_vertices, src[loaded], dst[loaded],
                  weight[loaded], batches)
