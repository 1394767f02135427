"""Measured-makespan parallel cost model.

The paper's Table 6 runs the same experiments on 32 and 96 cores and makes
one architectural point: GraphBolt's speedup over GB-Reset *shrinks* as
cores increase, because GB-Reset has far more (parallelisable) work and so
benefits more from extra cores, while GraphBolt's small refinement work is
bounded by its span (the iteration-by-iteration dependency chain).

Python's GIL makes real shared-memory parallel vertex processing
counterproductive (this is the ``repro_why`` gate for this paper), so we
reproduce the *effect* by scheduling the per-shard load vector the
kernels of :mod:`repro.runtime.exec` *measured* for each engine onto
``p`` cores (LPT list scheduling) and charging the per-iteration BSP
barrier span on top::

    T_p = (LPT-makespan(shard loads, p) + S) * unit_cost

with the per-unit cost calibrated from the measured single-threaded
wall clock.  Where Brent's ``(W - S)/p + S`` assumes work splits
perfectly, skew that concentrates work in a few shards shows here as a
scaling floor -- the partition effect GBBS identifies.  This is a
*simulation substitute*, clearly labelled as such in DESIGN.md; it is
used only by the Table 6 reducer.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

import numpy as np

__all__ = ["lpt_makespan", "project"]

#: Span units charged per BSP iteration (the barrier).
PER_ITERATION_SPAN = 2048.0


def lpt_makespan(loads: Sequence[float], cores: int) -> float:
    """Makespan of scheduling ``loads`` onto ``cores`` with LPT greedy.

    Longest-processing-time list scheduling (a 4/3-approximation of the
    optimum): shards sorted by decreasing load, each assigned to the
    currently least-loaded core.  With one core the makespan is the
    total load; with at least as many cores as shards it is the largest
    shard -- the ``max(shard loads)`` floor no core count can beat.
    """
    if cores < 1:
        raise ValueError("core count must be >= 1")
    work = [float(load) for load in loads if load > 0]
    if not work:
        return 0.0
    if cores == 1:
        return sum(work)
    if cores >= len(work):
        return max(work)
    bins: List[float] = [0.0] * cores
    heapq.heapify(bins)
    for load in sorted(work, reverse=True):
        heapq.heappush(bins, heapq.heappop(bins) + load)
    return max(bins)


def project(loads: Sequence[float], iterations: int, seconds: float,
            cores: int) -> float:
    """Projected wall clock on ``cores`` cores of a run that charged
    ``loads`` (one entry per owner block) over ``iterations`` BSP
    iterations in a measured ``seconds``: the LPT makespan of the loads
    plus one barrier span per iteration, at the unit cost that makes one
    core reproduce the measurement."""
    loads = np.asarray(loads, dtype=np.float64)
    total = float(loads.sum())
    if total <= 0:
        return seconds
    span = max(iterations, 1) * PER_ITERATION_SPAN
    return (lpt_makespan(loads, cores) + span) * (seconds / (total + span))
