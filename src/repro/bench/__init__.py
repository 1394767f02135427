"""Benchmark harness: workloads, streaming runners, reporting.

Engine grids are YAML run tables executed by :mod:`repro.bench.matrix`
(``python -m repro experiment``); :mod:`repro.bench.experiments` holds
their reducers and the bespoke drivers for everything that is not an
engine run (``python -m repro.bench``).  ``benchmarks/test_bench_*.py``
are the pytest-benchmark entry points.
"""

from repro.bench.harness import (
    DeltaRunner,
    GraphBoltRunner,
    LigraRunner,
    StreamingRunner,
    run_stream,
)
from repro.bench.workloads import (
    mixed_stream,
    split_initial_graph,
    targeted_batch,
    uniform_batch,
)

__all__ = [
    "DeltaRunner",
    "GraphBoltRunner",
    "LigraRunner",
    "StreamingRunner",
    "mixed_stream",
    "run_stream",
    "split_initial_graph",
    "targeted_batch",
    "uniform_batch",
]
