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
wall clock.  This is a *simulation substitute*, clearly labelled as such
in DESIGN.md; it is used only by the Table 6 scaling benchmark.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.runtime.exec import load_imbalance
from repro.runtime.metrics import EngineMetrics

__all__ = [
    "MakespanBreakdown",
    "MakespanModel",
    "lpt_makespan",
]


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


@dataclass
class MakespanBreakdown:
    """Per-shard decomposition of one measured engine run."""

    shard_loads: np.ndarray
    span_units: float
    measured_seconds: float

    @property
    def total_work(self) -> float:
        return float(self.shard_loads.sum())

    @property
    def unit_cost(self) -> float:
        """Seconds per work unit implied by the serial measurement
        (which executed the whole load vector plus the span)."""
        units = self.total_work + self.span_units
        if units <= 0:
            return 0.0
        return self.measured_seconds / units

    @property
    def imbalance(self) -> float:
        """Max-over-mean shard load (1.0 = perfectly balanced)."""
        return load_imbalance(self.shard_loads)


class MakespanModel:
    """Projects measured per-shard load vectors onto a core count.

    Where Brent's ``(W - S)/p + S`` divides one aggregate work number
    by ``p`` (assuming work splits perfectly), this model schedules the
    *measured* shard loads charged by the kernels of
    :mod:`repro.runtime.exec` onto ``p`` cores and
    takes the resulting makespan -- so skew that concentrates work in a
    few shards is visible as a scaling floor, exactly the partition
    effect GBBS and the distributed-systems literature identify.  The
    per-iteration span (BSP barriers) is charged on top, and the unit
    cost is calibrated so one core reproduces the measurement.
    """

    #: Span units charged per BSP iteration (the barrier).
    PER_ITERATION_SPAN = 2048.0

    def breakdown(
        self, metrics: EngineMetrics, measured_seconds: float
    ) -> MakespanBreakdown:
        if metrics.shard_loads:
            keys = sorted(metrics.shard_loads, key=_shard_order)
            loads = np.array(
                [metrics.shard_loads[key] for key in keys],
                dtype=np.float64,
            )
        else:
            # No load vector recorded (metrics built by hand): the
            # aggregate work is one undecomposed shard.
            loads = np.array(
                [float(metrics.edge_computations
                       + metrics.vertex_computations)],
                dtype=np.float64,
            )
        iterations = max(
            metrics.iterations + metrics.refinement_iterations, 1
        )
        span = iterations * self.PER_ITERATION_SPAN
        return MakespanBreakdown(loads, span, measured_seconds)

    def project(
        self,
        metrics: EngineMetrics,
        measured_seconds: float,
        cores: int,
    ) -> float:
        """Projected wall-clock on ``cores`` cores: calibrated
        ``LPT-makespan(shard loads, p) + span``."""
        cost = self.breakdown(metrics, measured_seconds)
        if cost.total_work <= 0:
            return measured_seconds
        makespan = lpt_makespan(cost.shard_loads, cores)
        return (makespan + cost.span_units) * cost.unit_cost

    def imbalance(self, metrics: EngineMetrics) -> float:
        """Load-imbalance factor of the recorded shard vector."""
        return self.breakdown(metrics, 0.0).imbalance


def _shard_order(key: str):
    return (0, int(key)) if key.isdigit() else (1, key)
