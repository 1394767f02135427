"""Dependency information as per-vertex aggregation value history.

The paper's key memory insight (section 3.2): instead of recording every
value that flowed along every edge -- O(|E| * iterations) -- record only
the *aggregated* values g_i(v) residing on vertices, because the structure
of dependencies (which value impacts which) is recoverable from the input
graph itself.  This brings tracking down to O(|V| * iterations), and
vertical pruning reduces it further by storing a vertex's value for an
iteration only when it changed in that iteration.

:class:`DependencyHistory` stores, per iteration, the aggregation values
and the vertex values as two *halves*, each in whichever form is fewer
bytes (:func:`record_half`): the rows that changed with their new values
(sparse), or the iteration's whole array by reference (dense) -- Ligra's
``vertexSubset`` rule applied to a record.  A densely refined iteration
computed every row, so its halves are its arrays with no compare.  The
contiguity invariant from section 4.1 holds by construction: a vertex's
value at iteration i is the value stored at the *latest* iteration <= i
that recorded it, so "holes" never need explicit representation.
:class:`RollingState` replays the history forward, materialising dense
g_i / c_i arrays one iteration at a time -- exactly the access pattern
of dependency-driven refinement -- and releases each record once it has
passed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["DependencyHistory", "IterationRecord", "RollingState",
           "record_half"]


@dataclass
class IterationRecord:
    """Per-iteration dependency information, in two halves.

    ``g_idx``/``g_values``: vertices whose aggregation value changed in
    this iteration relative to the previous one, with the new values.
    ``c_idx``/``c_values``: likewise for vertex values.  A half whose
    index is ``None`` is dense: its values are the iteration's whole
    array, held by reference and read-only (:func:`record_half`).
    """

    g_idx: Optional[np.ndarray]
    g_values: np.ndarray
    c_idx: Optional[np.ndarray]
    c_values: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in (
            self.g_idx, self.g_values, self.c_idx, self.c_values)
            if array is not None)

    @property
    def forms(self) -> Dict[str, str]:
        """Each half's form, as the ``iteration`` span tags it."""
        return {"g_half": "dense" if self.g_idx is None else "sparse",
                "c_half": "dense" if self.c_idx is None else "sparse"}


def record_half(values: np.ndarray, changed: np.ndarray,
                rows: Optional[np.ndarray]
                ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """One half of an :class:`IterationRecord` for ``values``, an
    iteration's whole array, which nothing writes after this call.

    ``changed`` flags the rows that changed: a mask over ``rows`` (the
    ids an iteration touched), or over every row when ``rows`` is
    ``None``.  With ``k`` rows changed, each ``w`` bytes, the changed
    rows are kept as ``(ids, values)`` while ``k * (8 + w)`` is below
    the array's ``V * w`` bytes; otherwise the half is ``(None,
    values)``: the array itself, made read-only, with no gather.
    """
    row_bytes = values.itemsize * math.prod(values.shape[1:])
    count = int(np.count_nonzero(changed))
    if count * (8 + row_bytes) < values.nbytes:
        idx = np.flatnonzero(changed) if rows is None else rows[changed]
        return idx, np.take(values, idx, axis=0)
    values.flags.writeable = False
    return None, values


class _Replayed:
    """One replayed array, overlaid on first read: ``array`` plus the
    halves pushed since.  A dense half supersedes every earlier half, so
    pushing one drops them, and ``array`` too unless the graph grew since
    (its rows then overlay a prefix: new vertices keep their base
    values).  An overlay first copies an array the replay does not own
    (a base, or a dense half)."""

    def __init__(self, base: np.ndarray) -> None:
        self.array, self.owned, self.pending = base, False, []

    def push(self, idx: Optional[np.ndarray], values: np.ndarray) -> None:
        if idx is None:
            if values.shape[0] == self.array.shape[0]:
                self.array, self.owned, self.pending = values, False, []
                return
            idx, self.pending = slice(0, values.shape[0]), []
        self.pending.append((idx, values))

    def read(self) -> np.ndarray:
        for rows, values in self.pending:
            if values.shape[0]:
                if not self.owned:
                    self.array, self.owned = self.array.copy(), True
                self.array[rows] = values
        self.pending = []
        return self.array


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
        count as dependency overhead; a dense half counts as its array.
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
        already private, such as :func:`record_half`'s."""
        self.records.append(record)

    def __repr__(self) -> str:
        return (
            f"DependencyHistory(V={self.num_vertices}, "
            f"horizon={self.horizon}, bytes={self.nbytes})"
        )


class RollingState:
    """Forward replay of a :class:`DependencyHistory`, which it consumes
    (it takes the records, leaving the history empty: a caller that
    replays one history twice replays a copy).  When the graph grew,
    pass value and aggregate bases already extended to the new vertex
    count: new vertices replay as never-changing.

    Maintains dense ``c`` (vertex value) and ``g`` (aggregation) arrays
    for the current iteration; :meth:`advance` moves to the next
    iteration's record.  The previous iteration's vertex values remain
    available as :attr:`c_prev`, which is what contribution retraction
    evaluates against.  All three are overlaid on first read: only
    sparse refinement iterations look at ``g`` and ``c_prev``, and a run
    of dense ones would otherwise scatter every ``g`` record and copy
    ``c`` for nothing.  A dense half replaces the array by reference,
    and a sparse one is overlaid on a copy unless the replay already
    owns the array, so all three may *be* a base array or a record's,
    and are read-only to callers.

    The replay takes the history's records and releases each half once
    nothing ahead can read it: a ``g`` half when a later dense ``g``
    half supersedes it or ``g`` is read, a ``c`` half when ``c_prev``
    has moved past it and been read, or a later dense ``c`` half
    reached ``c_prev`` -- so a refine never holds two whole histories.
    """

    def __init__(self, history: DependencyHistory,
                 extended_initial: Optional[np.ndarray] = None,
                 extended_identity: Optional[np.ndarray] = None) -> None:
        base_c = (history.initial_values if extended_initial is None
                  else extended_initial)
        base_g = (history.identity_aggregate if extended_identity is None
                  else extended_identity)
        if base_c.shape[0] < history.num_vertices:
            raise ValueError("extended arrays must not shrink the run")
        self._records, history.records = history.records, []
        self._c = _Replayed(base_c)
        self._c_prev = _Replayed(base_c)
        self._c_half: Optional[tuple] = None  # c_prev's next half
        self._g = _Replayed(base_g)
        self.iteration = 0

    @property
    def horizon(self) -> int:
        return len(self._records)

    @property
    def c(self) -> np.ndarray:
        """The vertex values of the current iteration."""
        return self._c.read()

    @property
    def g(self) -> np.ndarray:
        """The aggregation values of the current iteration."""
        return self._g.read()

    @property
    def c_prev(self) -> np.ndarray:
        """The vertex values of the previous iteration."""
        return self._c_prev.read()

    def advance(self) -> IterationRecord:
        """Move to the next iteration, replaying its ``c`` half; returns
        the record, which the replay no longer holds."""
        if self.iteration >= self.horizon:
            raise IndexError("advanced past the tracked horizon")
        record = self._records[self.iteration]
        self._records[self.iteration] = None
        if self._c_half is not None:
            self._c_prev.push(*self._c_half)
        self._c_half = (record.c_idx, record.c_values)
        self._c.push(*self._c_half)
        self._g.push(record.g_idx, record.g_values)
        self.iteration += 1
        return record
