"""Deterministic per-vertex pseudo-randomness.

Seed selection, priors and initial latent vectors must be deterministic
functions of the vertex *id*, never of the vertex count or insertion
order: when the streaming graph grows, existing vertices must keep their
parameters bit-for-bit, otherwise a vertex addition would perturb the
whole computation and break refinement-versus-from-scratch equivalence.

We use a Knuth/Wang-style integer mix vectorised over id arrays.
Constants a step reads for every vertex it applies or edge it sweeps
(LP's and CoEM's seed clamp, BP's priors) are derived once per id by
:class:`SeedTable`, not once per step.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["SeedTable", "hash_ids", "uniform_from_ids"]


def hash_ids(ids: np.ndarray, salt: int = 0) -> np.ndarray:
    """64-bit mix of vertex ids; uniform-ish, deterministic, vectorised
    (uint64 arithmetic wraps modulo 2**64)."""
    salt_mix = np.uint64((salt * 0x9E3779B97F4A7C15 + 1) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        x = np.asarray(ids, dtype=np.uint64) + salt_mix
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x


def uniform_from_ids(ids: np.ndarray, salt: int = 0) -> np.ndarray:
    """Deterministic floats in [0, 1) per vertex id."""
    return hash_ids(ids, salt).astype(np.float64) / 2.0**64


class SeedTable:
    """Per-id constants (a seed flag and seed value, or a row of
    priors) of every vertex id in ``[0, n)``, each derived once.
    ``derive(ids)`` returns a tuple of arrays, one row per id, for a
    run of ids; a larger ``n`` derives only the ids past the prefix,
    which never changes (they are functions of the id alone)."""

    def __init__(self, derive: Callable[[np.ndarray],
                                        Tuple[np.ndarray, ...]]):
        self._derive = derive
        self._arrays: Optional[Tuple[np.ndarray, ...]] = None

    def covering(self, graph, vertices: Optional[np.ndarray] = None
                 ) -> Tuple[np.ndarray, ...]:
        """The arrays over at least every id of ``graph`` (may be
        ``None``) and of ``vertices``; index their rows by id."""
        bound = 0 if graph is None else graph.num_vertices
        if vertices is not None and vertices.size:
            bound = max(bound, int(vertices.max()) + 1)
        # One read and one write of the tuple: a concurrent extension
        # derives the same ids and stores equal arrays.
        arrays = self._arrays
        size = 0 if arrays is None else arrays[0].shape[0]
        if arrays is None or bound > size:
            more = self._derive(np.arange(size, bound, dtype=np.int64))
            arrays = self._arrays = more if arrays is None else tuple(
                np.concatenate(pair) for pair in zip(arrays, more))
        return arrays
