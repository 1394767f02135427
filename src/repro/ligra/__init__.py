"""Ligra-style synchronous graph processing substrate.

GraphBolt is built over Ligra's processing architecture (paper section 4):
a frontier abstraction (:class:`VertexSubset`) with sparse/dense duality,
the gather/scatter kernels of :mod:`repro.runtime.exec` (its ``edgeMap``
counterparts), and two baseline engines:

- :class:`LigraEngine` -- full synchronous recomputation each iteration,
  restarted from scratch on every mutation (the paper's "Ligra" baseline);
- :class:`DeltaEngine` -- selective scheduling via delta propagation
  (PageRankDelta-style), restarted on mutation (the paper's "GB-Reset"
  baseline) and also the execution core GraphBolt itself uses for its
  initial run and hybrid forward phase.
"""

from repro.ligra.delta import DeltaEngine
from repro.ligra.engine import LigraEngine
from repro.ligra.frontier import VertexSubset

__all__ = ["DeltaEngine", "LigraEngine", "VertexSubset"]
