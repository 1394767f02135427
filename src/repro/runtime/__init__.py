"""Shared runtime services: metrics, execution backends, cost models."""

from repro.runtime.exec import (
    ExecutionBackend,
    PartitionedCSR,
    SerialBackend,
    ShardedBackend,
    get_backend,
    load_imbalance,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.runtime.metrics import EngineMetrics, MemoryReport, Timer
from repro.runtime.parallel import (
    MakespanModel,
    lpt_makespan,
)

__all__ = [
    "EngineMetrics",
    "ExecutionBackend",
    "MakespanModel",
    "MemoryReport",
    "PartitionedCSR",
    "SerialBackend",
    "ShardedBackend",
    "Timer",
    "get_backend",
    "load_imbalance",
    "lpt_makespan",
    "resolve_backend",
    "set_backend",
    "use_backend",
]
