"""The owner accounting, pinned against the sharded backend it replaced.

The kernels of :mod:`repro.runtime.exec` execute serially and charge
each gathered edge, scattered contribution and applied vertex to its
owner block.  Every digest below was recorded at the commit before this
accounting existed, from the execution backend that ran the same
workloads shard by shard with ``P`` shards (the serial one for P = 1),
and covers, per engine, the ``shard_loads`` vector, ``edge_`` /
``vertex_computations`` and a CRC of every value snapshot -- across all
engine families, several shard counts and workloads that grow the
vertex space mid-stream (which extends the last owner block).

The SSSP / BFS pins (seeds 11 and 29, the growth workload) were
re-recorded when refinement's sparse/dense switch became priced per
edge: GraphBolt's refine iterations on those min/max streams now run
dense, so its counters move.  Under the earlier fixed 0.3 E switch the
current accounting still reproduces the backend's digests, and no other
engine's report moves.

They moved again, with the growth pins for two and seven shards, when
GB-Reset's step became the one propagation step refinement takes: its
sparse/dense switch is priced per edge, not a fixed E / 20 (on these
min/max streams it goes dense sooner), a dense min/max step is the one
sweep rather than a pull over every in-edge (the same edges, but each
gather is charged at its source's owner), and a sparse pull finds its
targets uncharged, as refinement's always did.  GB-Reset's and
GraphBolt's tracked initial run's counters and loads move; every
engine's ``values_crc`` is unchanged, and so is every other digest.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.core.tagreset import TagResetEngine
from repro.graph.mutation import MutationBatch
from repro.runtime.metrics import EngineMetrics
from repro.testing.oracle import available_engines
from repro.testing.workloads import Workload, generate_workload
from tests.conftest import sharded_runner

SHARD_COUNTS = (1, 2, 7)

#: Seeds chosen so the sweep includes sparse and dense frontiers,
#: deletions, and empty batches across the fuzz algorithm roster.
SWEEP_SEEDS = (3, 11, 29, 47)

FUZZ_PINS = {
    (3, 1): 0x7B0F7904, (3, 2): 0x0B3A4799, (3, 7): 0x751FEA73,
    (11, 1): 0x7172B8EE, (11, 2): 0x8B41614F, (11, 7): 0xD29B7D8F,
    (29, 1): 0x8BA39B17, (29, 2): 0x353DA753, (29, 7): 0xE35D06F7,
    (47, 1): 0x3DB9041F, (47, 2): 0xC800EC1A, (47, 7): 0x24E29376,
}
GROWTH_PINS = {1: 0x55E10E54, 2: 0xD6D2CF58, 7: 0x1A33B6AD}
TAGRESET_PINS = {1: 0x5936FDF0, 2: 0x8B3545A6, 7: 0xDBA2498F}


def _crc(values, crc: int = 0) -> int:
    """Running CRC of value snapshots (exact bit patterns)."""
    return zlib.crc32(np.array(values, dtype=np.float64).tobytes(), crc)


def _account(metrics: EngineMetrics, crc: int) -> dict:
    return {"loads": dict(metrics.shard_loads),
            "edges": metrics.edge_computations,
            "vertices": metrics.vertex_computations, "values_crc": crc}


def _digest(report: dict) -> int:
    return zlib.crc32(json.dumps(report, sort_keys=True).encode())


def _run_engines(workload: Workload, num_shards: int) -> dict:
    """Every applicable engine's account of one workload."""
    report = {}
    for engine in available_engines(workload.profile, workload.num_vertices):
        runner = sharded_runner(engine, workload.profile, num_shards)
        crc = _crc(runner.setup(workload.build_graph()))
        for batch in workload.schedule:
            crc = _crc(runner.apply(batch), crc)
        report[engine] = _account(runner.metrics, crc)
        if num_shards == 1:
            assert set(runner.metrics.shard_loads) <= {"0"}
    return report


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_fuzz_workloads_bit_identical(seed, num_shards):
    report = _run_engines(generate_workload(seed), num_shards)
    assert _digest(report) == FUZZ_PINS[seed, num_shards], report


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_vertex_growth_bit_identical(num_shards):
    """Mutation batches that grow the vertex space (forcing the last
    block to extend), for the path-style engines (kickstarter/dataflow)
    as well as the BSP ones."""
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
    report = _run_engines(workload, num_shards)
    assert "kickstarter" in report and "dataflow" in report
    assert _digest(report) == GROWTH_PINS[num_shards], report


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_tagreset_bit_identical(num_shards):
    """The tag-and-recompute corrector also rides the kernel layer."""
    workload = generate_workload(5, algorithms=["pagerank"])
    engine = TagResetEngine(PageRank(tolerance=1e-9), num_iterations=6)
    engine.metrics.num_shards = num_shards
    crc = _crc(engine.run(workload.build_graph()))
    for batch in list(workload.schedule) or [MutationBatch.empty()]:
        crc = _crc(engine.apply_mutations(batch), crc)
    report = _account(engine.metrics, crc)
    assert _digest(report) == TAGRESET_PINS[num_shards], report


def test_sharded_records_shard_loads():
    """Multi-shard runs populate a load vector spanning more than one
    shard."""
    workload = generate_workload(3, algorithms=["pagerank"])
    runner = sharded_runner("graphbolt", workload.profile, 4)
    runner.setup(workload.build_graph())
    for batch in workload.schedule:
        runner.apply(batch)
    loads = runner.metrics.shard_loads
    assert loads and all(v > 0 for v in loads.values())
    assert len(loads) > 1
