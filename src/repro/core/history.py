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
``vertexSubset`` rule applied to a record.  The contiguity invariant from
section 4.1 holds by construction: a vertex's value at iteration i is
the value stored at the *latest* iteration <= i that recorded it, so
"holes" never need explicit representation.  :class:`RollingState`
replays the history forward, materialising dense g_i / c_i arrays one
iteration at a time -- exactly the access pattern of dependency-driven
refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


def _overlay(array: np.ndarray, owned: bool, halves: Sequence[tuple]):
    """``(array, owned)`` after replaying ``halves`` -- ``(idx, values)``
    pairs in iteration order -- onto ``array``.  Nothing before the last
    dense half matters, and that half *is* the array unless the graph
    grew since (its rows then overlay a prefix: new vertices keep their
    base values).  An overlay first copies an array the replay does not
    own (a base, or a dense half)."""
    dense = [i for i, (idx, _) in enumerate(halves) if idx is None]
    if dense:
        values = halves[dense[-1]][1]
        halves = halves[dense[-1] + 1:]
        if values.shape[0] == array.shape[0]:
            array, owned = values, False
        else:
            halves = [(slice(0, values.shape[0]), values)] + halves
    for idx, values in halves:
        if values.shape[0]:
            if not owned:
                array, owned = array.copy(), True
            array[idx] = values
    return array, owned


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

    Maintains dense ``c`` (vertex value) and ``g`` (aggregation) arrays
    for the current iteration; :meth:`advance` moves to the next
    iteration's record.  The previous iteration's vertex values remain
    available as :attr:`c_prev`, which is what contribution retraction
    evaluates against.  ``g`` and ``c_prev`` are overlaid on first read:
    only sparse refinement iterations look at them, and a run of dense
    ones would otherwise scatter every ``g`` record and copy ``c`` for
    nothing.  A dense half replaces the array by reference, and a sparse
    one is overlaid on a copy unless the replay already owns the array,
    so all three may *be* a base array or a record's, and are read-only
    to callers.
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
        self.c, self._c_owned = base_c, False
        self._c_prev, self._c_prev_owned = base_c, False
        self._c_prev_iteration = 0  # records already overlaid on ``_c_prev``
        self._g, self._g_owned = base_g, False
        self._g_iteration = 0      # records already overlaid on ``_g``
        self.iteration = 0

    @property
    def horizon(self) -> int:
        return self._history.horizon

    @property
    def g(self) -> np.ndarray:
        """The aggregation values of the current iteration."""
        pending = self._history.records[self._g_iteration:self.iteration]
        self._g, self._g_owned = _overlay(
            self._g, self._g_owned,
            [(record.g_idx, record.g_values) for record in pending])
        self._g_iteration = self.iteration
        return self._g

    @property
    def c_prev(self) -> np.ndarray:
        """The vertex values of the previous iteration."""
        previous = max(self.iteration - 1, 0)
        pending = self._history.records[self._c_prev_iteration:previous]
        self._c_prev, self._c_prev_owned = _overlay(
            self._c_prev, self._c_prev_owned,
            [(record.c_idx, record.c_values) for record in pending])
        self._c_prev_iteration = previous
        return self._c_prev

    def advance(self) -> IterationRecord:
        """Move to the next iteration, replaying its ``c`` half; returns
        the record."""
        if self.iteration >= self._history.horizon:
            raise IndexError("advanced past the tracked horizon")
        record = self._history.records[self.iteration]
        self.c, self._c_owned = _overlay(
            self.c, self._c_owned, [(record.c_idx, record.c_values)])
        self.iteration += 1
        return record
