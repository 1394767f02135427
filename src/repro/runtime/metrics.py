"""Execution metrics.

The paper reports three machine-facing measurements alongside wall-clock:

- **edge computations** -- how many edges each engine actually processed
  (Figure 6, Table 7).  This is the machine-independent signal that
  dependency-driven refinement eliminates redundant work, and it is the
  primary quantity our counters track.
- **vertex computations** -- vertex apply invocations.
- **tracked memory** -- bytes of dependency information GraphBolt keeps
  beyond what GB-Reset keeps (Table 9).

Every engine in this repository threads an :class:`EngineMetrics` through
its kernels; counting happens at the vectorised gather sites so it adds
one integer addition per kernel call, not per edge.
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass, field, fields
from typing import Dict, Optional

__all__ = ["EngineMetrics", "MemoryReport", "Timer"]


@dataclass
class EngineMetrics:
    """Work counters for one engine run or one mutation batch."""

    edge_computations: int = 0
    vertex_computations: int = 0
    iterations: int = 0
    refinement_iterations: int = 0
    hybrid_iterations: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Measured work per owner block (keyed by shard index as a string),
    #: charged by the kernels of :mod:`repro.runtime.exec`; the makespan
    #: scaling model consumes this vector directly.
    shard_loads: Dict[str, float] = field(default_factory=dict)
    #: How many owner blocks ``shard_loads`` is charged over.  A setting
    #: of the run, not a counter: an ``InitVar`` stays out of ``fields``
    #: and so out of merge / snapshot / delta arithmetic.
    num_shards: InitVar[int] = 1

    def __post_init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = int(num_shards)

    def count_edges(self, n: int) -> None:
        self.edge_computations += int(n)

    def count_vertices(self, n: int) -> None:
        self.vertex_computations += int(n)

    def count_shard_load(self, shard: str, n: float) -> None:
        self.shard_loads[shard] = self.shard_loads.get(shard, 0.0) + n

    def add_phase_time(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    # Every method below iterates ``dataclasses.fields`` instead of
    # naming fields, so adding a counter (here or in a subclass) can
    # never silently drop it from snapshots, deltas, or merges.
    # Numeric fields add/subtract; dict fields (phase_seconds, or any
    # future str->number map) combine per key.
    def merge(self, other: "EngineMetrics") -> None:
        for spec in fields(self):
            value = getattr(other, spec.name)
            if isinstance(value, dict):
                mine = getattr(self, spec.name)
                for key, amount in value.items():
                    mine[key] = mine.get(key, 0.0) + amount
            else:
                setattr(self, spec.name, getattr(self, spec.name) + value)

    def snapshot(self) -> "EngineMetrics":
        copy = type(self)()
        for spec in fields(self):
            value = getattr(self, spec.name)
            setattr(copy, spec.name,
                    dict(value) if isinstance(value, dict) else value)
        return copy

    def delta_since(self, earlier: "EngineMetrics") -> "EngineMetrics":
        """Metrics accumulated since an earlier :meth:`snapshot`."""
        delta = type(self)()
        for spec in fields(self):
            value = getattr(self, spec.name)
            before = getattr(earlier, spec.name)
            if isinstance(value, dict):
                setattr(delta, spec.name, {
                    key: amount - before.get(key, 0.0)
                    for key, amount in value.items()
                })
            else:
                setattr(delta, spec.name, value - before)
        return delta

    def reset(self) -> None:
        blank = type(self)()
        for spec in fields(self):
            current = getattr(self, spec.name)
            if isinstance(current, dict):
                current.clear()
            else:
                setattr(self, spec.name, getattr(blank, spec.name))


@dataclass
class MemoryReport:
    """Byte accounting of engine state (paper Table 9)."""

    baseline_bytes: int
    dependency_bytes: int

    @property
    def overhead_fraction(self) -> float:
        """Extra memory as a fraction of the baseline (0.13 == +13%)."""
        if self.baseline_bytes == 0:
            return 0.0 if self.dependency_bytes == 0 else float("inf")
        return self.dependency_bytes / self.baseline_bytes

    @property
    def overhead_percent(self) -> float:
        return 100.0 * self.overhead_fraction


class Timer:
    """Context-manager stopwatch feeding :class:`EngineMetrics` phases.

    >>> metrics = EngineMetrics()
    >>> with Timer(metrics, "refine"):
    ...     pass
    >>> "refine" in metrics.phase_seconds
    True
    """

    def __init__(self, metrics: Optional[EngineMetrics], phase: str) -> None:
        self._metrics = metrics
        self._phase = phase
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._start
        if self._metrics is not None:
            self._metrics.add_phase_time(self._phase, self.elapsed)
