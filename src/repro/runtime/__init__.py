"""Shared runtime services: metrics, the kernel layer, cost models."""

from repro.runtime.exec import PartitionedCSR, load_imbalance
from repro.runtime.metrics import EngineMetrics, MemoryReport, Timer
from repro.runtime.parallel import lpt_makespan, project

__all__ = [
    "EngineMetrics",
    "MemoryReport",
    "PartitionedCSR",
    "Timer",
    "load_imbalance",
    "lpt_makespan",
    "project",
]
