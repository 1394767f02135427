"""A fixed computation timed beside every batch: the machine's speed.

This box's speed drifts by 10-30% in spells of seconds and in regimes
of minutes (other tenants of the host), which scales every timing of a
run alike.  The kernel below is the engines' operation mix on a graph of
their size -- gather along edges, edge function, segmented aggregation,
vertex update -- written in plain numpy with nothing from ``src/``, so
no change to the program moves it; only the machine does.
"""

from __future__ import annotations

import time

import numpy as np

_VERTICES = 1 << 15
_EDGES = 1 << 18
_SWEEPS = 6

_rng = np.random.default_rng(0)
_src = _rng.integers(0, _VERTICES, _EDGES)
_dst = np.sort(_rng.integers(0, _VERTICES, _EDGES))
_weight = _rng.random(_EDGES)
_values = np.full(_VERTICES, 1.0 / _VERTICES)
_along = np.empty(_EDGES)


def reference_s() -> float:
    """Wall of ``_SWEEPS`` PageRank-like sweeps over the fixed graph."""
    start = time.perf_counter()
    for _ in range(_SWEEPS):
        np.take(_values, _src, out=_along)
        np.multiply(_along, _weight, out=_along)
        total = np.bincount(_dst, weights=_along, minlength=_VERTICES)
        np.multiply(total, 0.85 / total.sum(), out=_values)
        np.add(_values, 0.15 / _VERTICES, out=_values)
    return time.perf_counter() - start
