"""GraphBolt's core: dependency-driven incremental processing.

The modules here implement the paper's primary contribution:

- :mod:`~repro.core.aggregation` -- the aggregation algebra with the three
  incremental operators (add new contributions, remove old contributions,
  update changed contributions) for decomposable aggregations, and the
  pull-based re-evaluation strategy for non-decomposable ones.
- :mod:`~repro.core.model` -- the generalized incremental programming
  model (:class:`IncrementalAlgorithm`): vertex programs decompose their
  computation into per-edge contributions, an aggregation, and an apply
  step, from which the engine derives incremental versions automatically.
- :mod:`~repro.core.history` -- O(V)-per-iteration dependency tracking as
  aggregation values residing on vertices; vertical pruning is its
  storage format (changed rows, or the whole array when that is
  smaller), horizontal pruning the engine's ``horizon``.
- :mod:`~repro.core.refinement` -- iteration-by-iteration dependency-driven
  value refinement.
- :mod:`~repro.core.engine` -- :class:`GraphBoltEngine`, the streaming
  engine tying the above together; past the pruning horizon it continues
  with computation-aware hybrid execution, the GB-Reset loop
  (:meth:`repro.ligra.delta.DeltaEngine.forward`).
"""

from repro.core.aggregation import (
    Aggregation,
    LogProductAggregation,
    MaxAggregation,
    MinAggregation,
    ProductAggregation,
    SumAggregation,
)
from repro.core.engine import GraphBoltEngine
from repro.core.history import DependencyHistory
from repro.core.model import IncrementalAlgorithm
from repro.core.tagreset import TagResetEngine

__all__ = [
    "Aggregation",
    "DependencyHistory",
    "GraphBoltEngine",
    "IncrementalAlgorithm",
    "LogProductAggregation",
    "MaxAggregation",
    "MinAggregation",
    "ProductAggregation",
    "SumAggregation",
    "TagResetEngine",
]
