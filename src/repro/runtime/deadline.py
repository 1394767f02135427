"""Deadline budgets for bounded-latency queries.

A deadline is an object with one question -- :meth:`Deadline.expired` --
consulted by :meth:`repro.ligra.delta.DeltaEngine.advance` before each
synchronous iteration (iteration granularity: a started iteration always
completes, so the state handed back is a *valid* BSP state, merely a
shallower one).  Two implementations:

- :class:`WallClockDeadline` -- the production budget, seconds of
  ``time.perf_counter``;
- :class:`StepDeadline` -- expires after a fixed number of checks.
  Deterministic, which is what lets the test suite pin the acceptance
  property "deadline results are bit-for-bit a truncated run" without
  racing the clock.
"""

from __future__ import annotations

import time

__all__ = ["Deadline", "StepDeadline", "WallClockDeadline"]


class Deadline:
    """Interface: anything with ``expired() -> bool``; ``budget_s`` is
    its wall-clock budget, if it has one."""

    budget_s = None

    def expired(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class WallClockDeadline(Deadline):
    """Expires ``budget_s`` seconds after construction."""

    def __init__(self, budget_s: float) -> None:
        if budget_s < 0:
            raise ValueError("deadline budget must be non-negative")
        self.budget_s = float(budget_s)
        self._expires_at = time.perf_counter() + self.budget_s

    def expired(self) -> bool:
        return time.perf_counter() >= self._expires_at

    def remaining(self) -> float:
        return max(0.0, self._expires_at - time.perf_counter())

    def __repr__(self) -> str:
        return f"WallClockDeadline(budget_s={self.budget_s})"


class StepDeadline(Deadline):
    """Expires on the ``steps``-th expiry check (0 allows no iteration).

    The deterministic stand-in for tests: a query under
    ``StepDeadline(k)`` completes exactly ``min(k, full_window)``
    forward iterations, every time.
    """

    def __init__(self, steps: int) -> None:
        if steps < 0:
            raise ValueError("step budget must be non-negative")
        self.steps = int(steps)
        self.checks = 0

    def expired(self) -> bool:
        self.checks += 1
        return self.checks > self.steps

    def __repr__(self) -> str:
        return f"StepDeadline(steps={self.steps}, checks={self.checks})"
