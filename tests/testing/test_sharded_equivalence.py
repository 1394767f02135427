"""Bit-for-bit equivalence of the sharded and serial backends.

The sharded backend's contract (repro.runtime.exec module docstring) is
that shard-by-shard gathers and shard-local scatters touch every array
element in the same order the serial backend does, so the float results
are *exactly* equal -- not merely within tolerance.  This suite pins
that contract across every engine family at several shard counts,
including workloads that grow the vertex space mid-stream (which
re-partitions by extending the last shard).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.core.tagreset import TagResetEngine
from repro.graph.mutation import MutationBatch
from repro.runtime.exec import SerialBackend, ShardedBackend
from repro.testing.oracle import available_engines, build_runner
from repro.testing.workloads import Workload, generate_workload

SHARD_COUNTS = (1, 2, 7)

#: Seeds chosen so the sweep includes sparse and dense frontiers,
#: deletions, and empty batches across the fuzz algorithm roster.
SWEEP_SEEDS = (3, 11, 29, 47)


def _snapshots(workload: Workload, engine: str, backend) -> list:
    """All value snapshots (initial + per batch) for one engine run."""
    runner = build_runner(engine, workload.profile, backend=backend)
    graph = workload.build_graph()
    snaps = [np.array(runner.setup(graph), dtype=np.float64, copy=True)]
    for batch in workload.schedule:
        snaps.append(np.array(runner.apply(batch), dtype=np.float64,
                              copy=True))
    return snaps


def _assert_identical(workload: Workload, engine: str,
                      num_shards: int) -> None:
    serial = _snapshots(workload, engine, SerialBackend())
    sharded = _snapshots(workload, engine, ShardedBackend(num_shards))
    assert len(serial) == len(sharded)
    for index, (expect, got) in enumerate(zip(serial, sharded)):
        assert expect.shape == got.shape, (engine, index)
        # tobytes() compares the exact bit patterns, so even a
        # least-significant-bit float reordering fails loudly.
        assert expect.tobytes() == got.tobytes(), (
            f"{engine} diverged at snapshot {index} with "
            f"{num_shards} shards on {workload.describe()}"
        )


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_fuzz_workloads_bit_identical(seed, num_shards):
    """Every applicable engine agrees bit-for-bit across backends."""
    workload = generate_workload(seed)
    engines = available_engines(workload.profile, workload.num_vertices)
    for engine in engines:
        _assert_identical(workload, engine, num_shards)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_vertex_growth_bit_identical(num_shards):
    """Mutation batches that grow the vertex space (forcing the last
    shard to extend) stay bit-for-bit identical, for the path-style
    engines (kickstarter/dataflow) as well as the BSP ones."""
    workload = Workload(
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
    engines = available_engines(workload.profile, workload.num_vertices)
    assert "kickstarter" in engines and "dataflow" in engines
    for engine in engines:
        _assert_identical(workload, engine, num_shards)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_tagreset_bit_identical(num_shards):
    """The tag-and-recompute corrector also rides the backend layer."""
    workload = generate_workload(5, algorithms=["pagerank"])
    batches = list(workload.schedule) or [MutationBatch.empty()]

    def run(backend):
        engine = TagResetEngine(PageRank(tolerance=1e-9),
                                num_iterations=6, backend=backend)
        snaps = [engine.run(workload.build_graph()).copy()]
        for batch in batches:
            snaps.append(engine.apply_mutations(batch).copy())
        return snaps

    serial = run(SerialBackend())
    sharded = run(ShardedBackend(num_shards))
    for expect, got in zip(serial, sharded):
        assert expect.tobytes() == got.tobytes()


def test_sharded_records_shard_loads():
    """The sharded sweep is measured: multi-shard runs populate a
    per-shard load vector spanning more than one shard."""
    workload = generate_workload(3, algorithms=["pagerank"])
    runner = build_runner("graphbolt", workload.profile,
                          backend=ShardedBackend(4))
    runner.setup(workload.build_graph())
    for batch in workload.schedule:
        runner.apply(batch)
    loads = runner.metrics.shard_loads
    assert loads and all(v > 0 for v in loads.values())
    assert len(loads) > 1
