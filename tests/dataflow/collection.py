"""Static multiset collections: the batch calculus of diffs.

A :class:`Collection` is an immutable weighted multiset of records --
the value a differential stream accumulates to at one timestamp.  The
methods here are the *reference semantics* (a test oracle, not model
code) for the streaming operators in :mod:`repro.dataflow.operators`:
``test_operators.py`` asserts that running diffs through the dataflow
and accumulating equals applying the batch calculus to the accumulated
inputs.

Records must be hashable; keyed operations expect ``(key, value)``
2-tuples, as in Differential Dataflow.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, List, Tuple

__all__ = ["Collection"]

Record = Tuple
Diff = Tuple[Record, int]


class Collection:
    """An immutable multiset of records with integer multiplicities."""

    def __init__(self, diffs: Iterable[Diff] = ()) -> None:
        weights: Counter = Counter()
        for record, multiplicity in diffs:
            weights[record] += multiplicity
        self._weights = {
            record: mult for record, mult in weights.items() if mult != 0
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[Record]) -> "Collection":
        return cls((record, 1) for record in records)

    def diffs(self) -> List[Diff]:
        """Consolidated (record, multiplicity) pairs, deterministic order."""
        return sorted(self._weights.items(), key=lambda item: repr(item[0]))

    def multiplicity(self, record: Record) -> int:
        return self._weights.get(record, 0)

    def records(self) -> Dict[Record, int]:
        return dict(self._weights)

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Collection):
            return NotImplemented
        return self._weights == other._weights

    def __hash__(self):
        raise TypeError("collections are mutable-equality containers")

    def is_positive(self) -> bool:
        """True when every multiplicity is positive (a set-like state)."""
        return all(mult > 0 for mult in self._weights.values())

    # ------------------------------------------------------------------
    # The operator calculus
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Record], Record]) -> "Collection":
        return Collection(
            (fn(record), mult) for record, mult in self._weights.items()
        )

    def filter(self, predicate: Callable[[Record], bool]) -> "Collection":
        return Collection(
            (record, mult)
            for record, mult in self._weights.items()
            if predicate(record)
        )

    def flat_map(self, fn: Callable[[Record], Iterable[Record]]) -> "Collection":
        return Collection(
            (output, mult)
            for record, mult in self._weights.items()
            for output in fn(record)
        )

    def concat(self, other: "Collection") -> "Collection":
        return Collection(
            list(self._weights.items()) + list(other._weights.items())
        )

    def negate(self) -> "Collection":
        return Collection(
            (record, -mult) for record, mult in self._weights.items()
        )

    def join(self, other: "Collection") -> "Collection":
        """Keyed join: ``(k, a) x (k, b) -> (k, (a, b))`` with
        multiplicity products."""
        by_key: Dict = {}
        for (key, value), mult in other._weights.items():
            by_key.setdefault(key, []).append((value, mult))
        out: List[Diff] = []
        for (key, value), mult in self._weights.items():
            for other_value, other_mult in by_key.get(key, ()):
                out.append(((key, (value, other_value)), mult * other_mult))
        return Collection(out)

    def reduce(self, fn: Callable[[Record, List[Record]], Iterable[Record]]
               ) -> "Collection":
        """Group by key and reduce each group's value multiset.

        ``fn(key, values)`` receives the group's values expanded by
        multiplicity (requires a positive collection) and returns the
        output *values* for that key.
        """
        if not self.is_positive():
            raise ValueError("reduce requires a positive collection")
        groups: Dict = {}
        for (key, value), mult in self._weights.items():
            groups.setdefault(key, []).extend([value] * mult)
        out: List[Diff] = []
        for key, values in groups.items():
            for output in fn(key, sorted(values, key=repr)):
                out.append(((key, output), 1))
        return Collection(out)

    def distinct(self) -> "Collection":
        if not self.is_positive():
            raise ValueError("distinct requires a positive collection")
        return Collection((record, 1) for record in self._weights)

    def count(self) -> "Collection":
        """Per-key value counts: ``(k, n)``."""
        return self.reduce(lambda key, values: [len(values)])

    def __repr__(self) -> str:
        return f"Collection({self.diffs()!r})"
