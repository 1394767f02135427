"""Bit-for-bit equivalence of heap and mmap snapshot storage.

The storage contract (repro.graph.storage module docstring) is that
:class:`MmapStore` is invisible above the :class:`CSRGraph` slice API:
every engine family -- Ligra-style full recompute, delta/tag-reset,
GraphBolt refinement, KickStarter, and the mini differential-dataflow
comparator -- must produce *exactly* the float bit patterns it produces
over plain heap arrays, for the same workloads the sharded-equivalence
suite pins, including batches that grow the vertex space (which force
the segment-wise :meth:`MmapStore.adjust` to extend offsets).  The
owner accounting's :class:`PartitionedCSR` also cuts its blocks
directly over the memmapped arrays, so the cross product
(storage x shard count) is pinned too, load vector included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.mutation import MutationBatch
from repro.graph.storage import MmapStore
from repro.runtime.exec import PartitionedCSR
from repro.testing.oracle import available_engines, build_runner
from repro.testing.workloads import Workload, generate_workload

#: Seeds chosen to cover sparse and dense frontiers, deletions, and
#: empty batches across the fuzz algorithm roster (mirrors the
#: sharded-equivalence sweep).
SWEEP_SEEDS = (3, 11, 29, 47)


def _snapshots(workload: Workload, engine: str, store, num_shards) -> list:
    """All value snapshots (initial + per batch) for one engine run
    over one snapshot store, then the run's shard load vector."""
    runner = build_runner(engine, workload.profile, num_shards=num_shards)
    graph = workload.build_graph()
    if store is not None:
        graph = store.publish(graph)
    snaps = [np.array(runner.setup(graph), dtype=np.float64, copy=True)]
    for batch in workload.schedule:
        snaps.append(np.array(runner.apply(batch), dtype=np.float64,
                              copy=True))
    return snaps, runner.metrics.shard_loads


def _assert_identical(workload: Workload, engine: str, store,
                      num_shards: int = 1) -> None:
    heap, heap_loads = _snapshots(workload, engine, None, num_shards)
    mmapped, mmap_loads = _snapshots(workload, engine, store, num_shards)
    assert heap_loads == mmap_loads and len(heap_loads) <= num_shards
    assert len(heap) == len(mmapped)
    for index, (expect, got) in enumerate(zip(heap, mmapped)):
        assert expect.shape == got.shape, (engine, index)
        assert expect.tobytes() == got.tobytes(), (
            f"{engine} over mmap storage diverged at snapshot {index} "
            f"on {workload.describe()}"
        )


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_fuzz_workloads_bit_identical_across_stores(seed, tmp_path):
    """Every applicable engine family agrees bit-for-bit between heap
    and mmap storage."""
    workload = generate_workload(seed)
    engines = available_engines(workload.profile, workload.num_vertices)
    for index, engine in enumerate(engines):
        store = MmapStore(str(tmp_path / f"{seed}-{index}"))
        _assert_identical(workload, engine, store)


def _growth_workload() -> Workload:
    return Workload(
        seed=0,
        algorithm="sssp",
        num_vertices=9,
        edges=[(0, 1, 1.5), (0, 2, 0.5), (1, 3, 2.0), (2, 3, 1.0),
               (3, 4, 0.25), (4, 5, 1.0), (5, 6, 3.0), (2, 7, 4.0),
               (7, 8, 0.75)],
        schedule=[
            MutationBatch.from_edges(additions=[(6, 9), (8, 10)],
                                     grow_to=11),
            MutationBatch.from_edges(deletions=[(3, 4)],
                                     additions=[(1, 4)]),
            MutationBatch.from_edges(grow_to=14),
            MutationBatch.empty(),
        ],
        kinds=["grow", "uniform", "isolated", "empty"],
    )


def test_vertex_growth_bit_identical_across_stores(tmp_path):
    """Growing batches extend the memmapped offsets segment-wise; the
    path-style engines (kickstarter/dataflow) must agree too."""
    workload = _growth_workload()
    engines = available_engines(workload.profile, workload.num_vertices)
    assert "kickstarter" in engines and "dataflow" in engines
    for index, engine in enumerate(engines):
        store = MmapStore(str(tmp_path / f"grow-{index}"))
        _assert_identical(workload, engine, store)


@pytest.mark.parametrize("num_shards", (2, 7))
def test_partitioned_csr_over_memmapped_arrays(num_shards, tmp_path):
    """PartitionedCSR cuts the same owner blocks over memmapped arrays:
    values and the load vector over mmap equal those over the heap."""
    workload = generate_workload(11, algorithms=["pagerank"])
    store = MmapStore(str(tmp_path))
    _assert_identical(workload, "graphbolt", store, num_shards)


def test_shard_edge_blocks_alias_memmap_pages(tmp_path):
    """Each shard's out-edge block is a contiguous *slice* of the CSR
    arrays (PartitionedCSR docstring), so over an MmapStore snapshot
    the shard views must alias the memmapped buffers, not copy them."""
    workload = generate_workload(3, algorithms=["pagerank"])
    store = MmapStore(str(tmp_path))
    graph = store.publish(workload.build_graph())
    assert isinstance(graph.out_targets, np.memmap)
    partition = PartitionedCSR.for_graph(graph, 3)
    offsets = graph.out_offsets
    for shard in range(partition.num_shards):
        lo = int(offsets[partition.boundaries[shard]])
        hi = int(offsets[partition.boundaries[shard + 1]])
        block = graph.out_targets[lo:hi]
        if block.size:
            assert np.shares_memory(block, graph.out_targets)
