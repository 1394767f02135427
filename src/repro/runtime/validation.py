"""Result validation helpers.

The paper validates every incremental run by comparing against a
from-scratch synchronous execution on the mutated graph (section 5.1:
"we validated correctness for each run by comparing final results").
These helpers implement that comparison and the relative-error census of
Table 1.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "relative_errors",
    "count_exceeding",
    "assert_same_results",
]

ArrayLike = Union[np.ndarray, list]


def relative_errors(actual: ArrayLike, expected: ArrayLike) -> np.ndarray:
    """Element-wise ``|actual - expected| / |expected|`` (vector values are
    reduced with the max error over components).

    ``expected`` must be finite: a NaN or infinity in the reference
    silently poisons every error it touches (``inf/inf`` is NaN, and a
    NaN never trips a ``>`` threshold), so it is rejected up front.
    Callers comparing algorithms with legitimate infinities (unreachable
    distances) must mask them first -- see
    :func:`repro.testing.oracle.compare_snapshots`.
    """
    actual_arr = np.asarray(actual, dtype=np.float64)
    expected_arr = np.asarray(expected, dtype=np.float64)
    if actual_arr.shape != expected_arr.shape:
        raise ValueError(
            f"shape mismatch: {actual_arr.shape} vs {expected_arr.shape}"
        )
    finite = np.isfinite(np.atleast_1d(expected_arr))
    if expected_arr.size and not finite.all():
        per_vertex = finite.reshape(finite.shape[0], -1).all(axis=1)
        bad = int(np.flatnonzero(~per_vertex)[0])
        raise ValueError(
            f"expected values must be finite (vertex {bad} is "
            f"NaN/inf); mask non-finite entries before comparing"
        )
    denom = np.abs(expected_arr)
    tiny = denom < 1e-300
    denom = np.where(tiny, 1.0, denom)
    err = np.abs(actual_arr - expected_arr) / denom
    err = np.where(tiny, np.abs(actual_arr - expected_arr), err)
    while err.ndim > 1:
        err = err.max(axis=-1)
    return err


def count_exceeding(actual: ArrayLike, expected: ArrayLike,
                    threshold: float) -> int:
    """Number of vertices whose relative error is >= ``threshold``.

    This is the Table 1 census ("No. of vertices with incorrect results,
    relative error >= 10% and >= 1%").
    """
    return int((relative_errors(actual, expected) >= threshold).sum())


def assert_same_results(actual: ArrayLike, expected: ArrayLike,
                        tolerance: float = 1e-7, context: str = "") -> None:
    """Raise ``AssertionError`` when results diverge beyond ``tolerance``.

    ``tolerance`` is a relative error bound; refinement replays float
    additions in a different order than a from-scratch run, so bit-exact
    equality is not expected (matching the C++ system, which uses atomic
    float adds with non-deterministic ordering).
    """
    err = relative_errors(actual, expected)
    worst = float(err.max()) if err.size else 0.0
    if worst > tolerance:
        idx = int(np.argmax(err))
        raise AssertionError(
            f"results diverge{' (' + context + ')' if context else ''}: "
            f"max relative error {worst:.3e} at vertex {idx} "
            f"exceeds tolerance {tolerance:.1e}"
        )
