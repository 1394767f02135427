"""Ligra-style synchronous graph processing substrate.

GraphBolt is built over Ligra's processing architecture (paper section 4):
frontiers as sorted ids or masks (:mod:`repro.ligra.frontier`), the
gather/scatter kernels of :mod:`repro.runtime.exec`, one propagation
step -- Ligra's direction-optimising ``edgeMap`` -- that every engine
iterates with (:func:`repro.ligra.delta.propagate`, sparse or dense by one
measured cost model), and two baseline engines:

- :class:`LigraEngine` -- full synchronous recomputation each iteration,
  restarted from scratch on every mutation (the paper's "Ligra" baseline);
- :class:`DeltaEngine` -- selective scheduling via delta propagation
  (PageRankDelta-style), restarted on mutation (the paper's "GB-Reset"
  baseline) and also the execution core GraphBolt itself uses for its
  initial run and hybrid forward phase.
"""

from repro.ligra.delta import DeltaEngine
from repro.ligra.engine import LigraEngine

__all__ = ["DeltaEngine", "LigraEngine"]
