"""Timestamps for the mini differential dataflow.

A :class:`Timestamp` is the pair ``(epoch, step)``: ``epoch`` counts
input rounds (graph mutation batches), ``step`` is the inner-iteration
coordinate of Naiad's product lattice (the programs here unroll their
loops into stages, so they only ever advance the epoch).  We order
timestamps lexicographically -- a *total* order, which is the documented
simplification relative to Naiad's partially-ordered product lattice,
under which the lattice ``join`` (least upper bound) is simply max.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

__all__ = ["Timestamp"]


@total_ordering
@dataclass(frozen=True)
class Timestamp:
    epoch: int
    step: int = 0

    def __lt__(self, other: "Timestamp") -> bool:
        return (self.epoch, self.step) < (other.epoch, other.step)

    def join(self, other: "Timestamp") -> "Timestamp":
        """Least upper bound (== max under the total order)."""
        return max(self, other)

    def next_epoch(self) -> "Timestamp":
        return Timestamp(self.epoch + 1, 0)

    def __repr__(self) -> str:
        return f"({self.epoch}, {self.step})"
