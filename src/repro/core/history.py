"""Dependency information as per-vertex aggregation value history.

The paper's key memory insight (section 3.2): instead of recording every
value that flowed along every edge -- O(|E| * iterations) -- record only
the *aggregated* values g_i(v) residing on vertices, because the structure
of dependencies (which value impacts which) is recoverable from the input
graph itself.  This brings tracking down to O(|V| * iterations), and
vertical pruning reduces it further by storing a vertex's value for an
iteration only when it changed in that iteration.

:class:`DependencyHistory` stores, per iteration, the sparse set of
vertices whose aggregation value and/or vertex value changed, together
with the new values.  The contiguity invariant from section 4.1 holds by
construction: a vertex's value at iteration i is the value stored at the
*latest* iteration <= i that recorded it, so "holes" never need explicit
representation.  :class:`RollingState` replays the history forward,
materialising dense g_i / c_i arrays one iteration at a time -- exactly
the access pattern of dependency-driven refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = ["DependencyHistory", "IterationRecord", "RollingState"]


@dataclass
class IterationRecord:
    """Sparse per-iteration dependency information.

    ``g_idx``/``g_values``: vertices whose aggregation value changed in
    this iteration relative to the previous one, with the new values.
    ``c_idx``/``c_values``: likewise for vertex values; ``c_idx`` doubles
    as the iteration's changed-vertex frontier (the bit-vector of paper
    section 4.2's hybrid execution).
    """

    g_idx: np.ndarray
    g_values: np.ndarray
    c_idx: np.ndarray
    c_values: np.ndarray

    @property
    def nbytes(self) -> int:
        return (
            self.g_idx.nbytes
            + self.g_values.nbytes
            + self.c_idx.nbytes
            + self.c_values.nbytes
        )


class DependencyHistory:
    """Aggregation-value dependency information for one tracked run.

    The two bases are held, not copied, and read-only by contract like
    the records: a refined run's history shares its predecessor's while
    the vertex count holds, so a caller with live arrays passes copies.
    """

    def __init__(self, initial_values: np.ndarray,
                 identity_aggregate: np.ndarray) -> None:
        if initial_values.shape[0] != identity_aggregate.shape[0]:
            raise ValueError("initial values and aggregate must align")
        self.initial_values = initial_values
        self.identity_aggregate = identity_aggregate
        self.records: List[IterationRecord] = []

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return int(self.initial_values.shape[0])

    @property
    def horizon(self) -> int:
        """Number of iterations with tracked dependency information."""
        return len(self.records)

    @property
    def nbytes(self) -> int:
        """Bytes of *tracked dependency information* (Table 9 accounting).

        The initial values and identity template are state every engine
        (including GB-Reset) holds, so only the per-iteration records
        count as dependency overhead.
        """
        return sum(record.nbytes for record in self.records)

    def record(self, g_idx: np.ndarray, g_values: np.ndarray,
               c_idx: np.ndarray, c_values: np.ndarray) -> None:
        """Append one iteration's sparse changes (values are copied)."""
        self.append(
            IterationRecord(
                g_idx=np.asarray(g_idx, dtype=np.int64).copy(),
                g_values=np.asarray(g_values, dtype=np.float64).copy(),
                c_idx=np.asarray(c_idx, dtype=np.int64).copy(),
                c_values=np.asarray(c_values, dtype=np.float64).copy(),
            )
        )

    def append(self, record: IterationRecord) -> None:
        """Append one iteration's record, taking ownership of its arrays
        (int64 ids, float64 values): for a caller whose arrays are
        already private copies, such as the result of a fancy gather."""
        self.records.append(record)

    def rolling(self, extended_initial: Optional[np.ndarray] = None,
                extended_identity: Optional[np.ndarray] = None) -> "RollingState":
        """A replay cursor over this history.

        When the graph grew, pass value/aggregate arrays already extended
        to the new vertex count; new vertices replay as never-changing
        (they did not exist in the recorded run).
        """
        return RollingState(self, extended_initial, extended_identity)

    def __repr__(self) -> str:
        return (
            f"DependencyHistory(V={self.num_vertices}, "
            f"horizon={self.horizon}, bytes={self.nbytes})"
        )


class RollingState:
    """Forward replay of a :class:`DependencyHistory`.

    Maintains dense ``g`` (aggregation) and ``c`` (vertex value) arrays
    for the current iteration; :meth:`advance` overlays the next
    iteration's sparse record.  The previous iteration's vertex values
    remain available as :attr:`c_prev`, which is what contribution
    retraction evaluates against.  ``g`` and ``c_prev`` are overlaid on
    first read: only sparse refinement iterations look at them, and a
    run of dense ones would otherwise scatter every ``g`` record and copy
    ``c`` for nothing.  Until a record is overlaid they *are* the base
    arrays, copied by the first overlay, so both are read-only to
    callers.
    """

    def __init__(self, history: DependencyHistory,
                 extended_initial: Optional[np.ndarray] = None,
                 extended_identity: Optional[np.ndarray] = None) -> None:
        self._history = history
        base_c = (history.initial_values if extended_initial is None
                  else extended_initial)
        base_g = (history.identity_aggregate if extended_identity is None
                  else extended_identity)
        if base_c.shape[0] < history.num_vertices:
            raise ValueError("extended arrays must not shrink the run")
        self.c = base_c.copy()
        self._base_c = base_c
        self._c_prev = base_c
        self._c_prev_iteration = 0  # records already overlaid on ``_c_prev``
        self._base_g = base_g
        self._g = base_g
        self._g_iteration = 0      # records already overlaid on ``_g``
        self.iteration = 0

    @property
    def horizon(self) -> int:
        return self._history.horizon

    @property
    def g(self) -> np.ndarray:
        """The aggregation values of the current iteration."""
        pending = self._history.records[self._g_iteration:self.iteration]
        for record in pending:
            if record.g_idx.size:
                if self._g is self._base_g:
                    self._g = self._g.copy()
                self._g[record.g_idx] = record.g_values
        self._g_iteration = self.iteration
        return self._g

    @property
    def c_prev(self) -> np.ndarray:
        """The vertex values of the previous iteration."""
        previous = max(self.iteration - 1, 0)
        pending = self._history.records[self._c_prev_iteration:previous]
        for record in pending:
            if record.c_idx.size:
                if self._c_prev is self._base_c:
                    self._c_prev = self._c_prev.copy()
                self._c_prev[record.c_idx] = record.c_values
        self._c_prev_iteration = previous
        return self._c_prev

    def advance(self) -> IterationRecord:
        """Move to the next iteration, overlaying its record; returns it."""
        if self.iteration >= self._history.horizon:
            raise IndexError("advanced past the tracked horizon")
        record = self._history.records[self.iteration]
        if record.c_idx.size:
            self.c[record.c_idx] = record.c_values
        self.iteration += 1
        return record
