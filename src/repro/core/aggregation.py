"""The aggregation algebra.

GraphBolt models a synchronous vertex computation as::

    c_i(v) = apply( (+)_{(u,v) in E} contribution(c_{i-1}(u), u, v, w) )

where ``(+)`` is a commutative, associative aggregation operator (paper
section 3.2).  Incremental processing needs three additional operators
(section 3.3):

- ``scatter``        -- add new contributions        (the paper's  ⊎ )
- ``scatter_retract``-- remove old contributions      (the paper's  ⋃– )
- ``scatter_delta``  -- update changed contributions  (the paper's  ⋃△ ),
  fused as a single pass when the aggregation admits a direct "change in
  contribution" (e.g. sums), or expressed as retract followed by scatter
  otherwise.

**Decomposable** aggregations (sum, count, product) can incorporate the
impact of a change from a single edge into the final aggregate value, so
all three operators work on the stored aggregate alone.  **Non-
decomposable** aggregations (min, max) cannot undo a contribution from
the final value only; the engine handles them with the paper's
re-evaluation strategy, pulling the full updated input set from incoming
neighbours (section 3.3, "Aggregation Properties & Extensions").

All operators are vectorised: ``dst`` is an int64 index array and
``contributions`` a parallel array (possibly 2-D for vector-valued
algorithms).  The incremental operators update a *live* aggregate, so
they scatter with NumPy's unbuffered ``ufunc.at``, the sequential
stand-in for the paper's atomic read-modify-write updates, one 1-D
call per component column: numpy's fast ``ufunc.at`` path is 1-D only
(one 2-D call costs ~3x five column calls), and the bits are the same
up to a NaN's sign.  A dense sweep rebuilds the aggregate from the
identity with the same :meth:`Aggregation.scatter`.
A plain sum of ``edge_weighted`` contributions (LP, Adsorption, CoEM)
never gets here: :func:`repro.runtime.exec.aggregate_all` runs it as
one sparse product over the in-edge arrays, in CSC order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple, Union

import numpy as np

__all__ = [
    "Aggregation",
    "SumAggregation",
    "ProductAggregation",
    "LogProductAggregation",
    "MinAggregation",
    "MaxAggregation",
]

Shape = Union[int, Tuple[int, ...]]


def _at(ufunc: np.ufunc, aggregate: np.ndarray, dst: np.ndarray,
        contributions: np.ndarray) -> None:
    """``ufunc.at(aggregate, dst, contributions)``, one component column
    at a time (see the module docstring)."""
    if contributions.ndim == 1:
        ufunc.at(aggregate, dst, contributions)
        return
    for component in np.ndindex(aggregate.shape[1:]):
        column = (slice(None), *component)
        ufunc.at(aggregate[column], dst, contributions[column])


class Aggregation(ABC):
    """A commutative, associative aggregation with incremental operators."""

    #: Whether single-edge changes can be incorporated into the stored
    #: aggregate (paper's decomposable/non-decomposable classification).
    decomposable: bool = True

    @abstractmethod
    def identity_value(self) -> float:
        """The identity element of the operator."""

    def identity(self, num_vertices: int, value_shape: Tuple[int, ...] = ()) -> np.ndarray:
        """A fresh dense aggregate array filled with the identity."""
        return np.full((num_vertices, *value_shape), self.identity_value(),
                       dtype=np.float64)

    @abstractmethod
    def scatter(self, aggregate: np.ndarray, dst: np.ndarray,
                contributions: np.ndarray) -> None:
        """``aggregate[dst] (+)= contributions`` in place (the ⊎ operator)."""

    @abstractmethod
    def scatter_retract(self, aggregate: np.ndarray, dst: np.ndarray,
                        contributions: np.ndarray) -> None:
        """Remove previously-made contributions in place (the ⋃– operator)."""

    def scatter_delta(self, aggregate: np.ndarray, dst: np.ndarray,
                      new_contributions: np.ndarray,
                      old_contributions: np.ndarray) -> None:
        """Replace old contributions with new ones (the ⋃△ operator).

        The default fuses both directions into one pass using
        :meth:`delta`; subclasses without a direct delta fall back to
        retract + scatter.
        """
        self.scatter(aggregate, dst,
                     self.delta(new_contributions, old_contributions))

    @abstractmethod
    def delta(self, new_contributions: np.ndarray,
              old_contributions: np.ndarray) -> np.ndarray:
        """The per-edge change in contribution for a fused ⋃△ pass."""

    @property
    def name(self) -> str:
        return type(self).__name__.replace("Aggregation", "").lower()


class SumAggregation(Aggregation):
    """Addition; the aggregation of PR, LP, CoEM and (component-wise) CF."""

    decomposable = True

    def identity_value(self) -> float:
        return 0.0

    def scatter(self, aggregate, dst, contributions) -> None:
        _at(np.add, aggregate, dst, contributions)

    def scatter_retract(self, aggregate, dst, contributions) -> None:
        _at(np.subtract, aggregate, dst, contributions)

    def delta(self, new_contributions, old_contributions) -> np.ndarray:
        return new_contributions - old_contributions


class ProductAggregation(Aggregation):
    """Multiplication; the aggregation of Belief Propagation.

    Retraction divides out old contributions (the paper's
    ``atomicDivide``), which requires contributions to be non-zero -- BP's
    potentials and normalised messages are strictly positive, satisfying
    this.  For deep products over high-degree vertices prefer
    :class:`LogProductAggregation`, which is the same operator computed in
    log space.
    """

    decomposable = True

    def identity_value(self) -> float:
        return 1.0

    def scatter(self, aggregate, dst, contributions) -> None:
        _at(np.multiply, aggregate, dst, contributions)

    def scatter_retract(self, aggregate, dst, contributions) -> None:
        _at(np.divide, aggregate, dst, contributions)

    def delta(self, new_contributions, old_contributions) -> np.ndarray:
        return new_contributions / old_contributions


class LogProductAggregation(SumAggregation):
    """Product aggregation computed in log space for numerical stability.

    Semantically identical to :class:`ProductAggregation` (the aggregate
    stores ``log`` of the product); algorithms using it must exponentiate
    in their ``apply``.  Contributions passed to the operators are the
    *logs* of the multiplicative contributions, so ⊎ is addition, ⋃–
    subtraction and the identity 0.0 is ``log 1``: every operator is
    :class:`SumAggregation`'s.
    """


class _SelectionAggregation(Aggregation):
    """Shared base for min/max: monotone insert, no retraction."""

    decomposable = False

    def scatter_retract(self, aggregate, dst, contributions) -> None:
        raise NotImplementedError(
            f"{self.name} is non-decomposable: a contribution cannot be "
            "removed from the final aggregate alone (paper section 3.3); "
            "the engine re-evaluates by pulling from incoming neighbours"
        )

    def delta(self, new_contributions, old_contributions) -> np.ndarray:
        raise NotImplementedError(
            f"{self.name} has no direct change-in-contribution form"
        )


class MinAggregation(_SelectionAggregation):
    """Minimum; the aggregation of SSSP/BFS.  Non-decomposable."""

    def identity_value(self) -> float:
        return np.inf

    def scatter(self, aggregate, dst, contributions) -> None:
        _at(np.minimum, aggregate, dst, contributions)


class MaxAggregation(_SelectionAggregation):
    """Maximum (e.g. widest-path style algorithms).  Non-decomposable."""

    def identity_value(self) -> float:
        return -np.inf

    def scatter(self, aggregate, dst, contributions) -> None:
        _at(np.maximum, aggregate, dst, contributions)
