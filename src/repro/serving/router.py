"""Lag-aware query routing over a replication cluster.

The router answers deadline-budgeted queries from read replicas and
hides individual replica failures behind **deadline-preserving
failover**: the budget is materialized as ONE
:class:`~repro.runtime.deadline.Deadline` object before the first
attempt and the *same* object rides along every retry, so a query that
fails over still answers within its original budget -- and comes back
``degraded`` only when that budget is truly exhausted, never because a
retry silently restarted the clock.

Consistency knobs:

- ``max_staleness_batches`` -- bounded-staleness reads: a replica
  lagging the writer by more than this many records is not a
  candidate;
- ``min_applied_batch`` -- read-your-writes: pass the token returned
  by :meth:`~repro.serving.replication.ReplicationCluster.submit` and
  the router only considers replicas that have applied at least that
  much, nudging the cluster to replicate once before giving up.

A replica that raises any ``OSError`` flavour mid-query (a dead
replica's :class:`~repro.serving.replication.ReplicaUnavailableError`,
an injected ``replica.query`` fault, a real connection error) is
marked unhealthy and skipped until a health probe restores it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs import trace
from repro.obs.registry import get_registry
from repro.runtime.deadline import Deadline, WallClockDeadline
from repro.serving.replication import ReplicationCluster
from repro.serving.server import QueryResult
from repro.serving.transport import ReplicationError

__all__ = [
    "NoReplicaAvailableError",
    "QueryRouter",
    "RoutedResult",
    "StalenessError",
]


class StalenessError(ReplicationError):
    """No replica satisfies the read-your-writes / staleness bound."""


class NoReplicaAvailableError(ReplicationError):
    """Every candidate replica failed and writer fallback is off."""


@dataclass
class RoutedResult:
    """A :class:`QueryResult` plus where and how it was served."""

    result: QueryResult
    served_by: str
    attempts: int
    failovers: int
    staleness_batches: int

    @property
    def degraded(self) -> bool:
        return self.result.degraded

    @property
    def values(self):
        return self.result.values


class QueryRouter:
    """Routes queries to the freshest healthy replica, then the writer.

    Candidates are the alive, bootstrapped, healthy replicas ordered by
    (lag, name) -- freshest first, name as the deterministic
    tie-breaker.  ``writer_fallback=True`` (the default) serves from
    the writer when no replica can answer: reads degrade to the primary
    rather than failing outright.
    """

    def __init__(
        self,
        cluster: ReplicationCluster,
        max_staleness_batches: Optional[int] = None,
        writer_fallback: bool = True,
    ) -> None:
        self.cluster = cluster
        self.max_staleness_batches = max_staleness_batches
        self.writer_fallback = writer_fallback
        self._unhealthy: Dict[str, str] = {}
        self.queries_routed = 0
        self.failovers = 0
        self.writer_fallbacks = 0

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def mark_unhealthy(self, name: str, reason: str) -> None:
        self._unhealthy[name] = reason
        get_registry().counter("router.marked_unhealthy").inc()

    def probe(self) -> List[str]:
        """Re-admit replicas that answer a zero-budget health probe.

        A transiently-failed replica (injected fault, brief outage)
        comes back; a dead or unbootstrapped one stays quarantined
        until it is restarted and catches up.
        """
        restored = []
        for name in sorted(self._unhealthy):
            replica = self.cluster.replicas.get(name)
            if replica is None:
                del self._unhealthy[name]
                continue
            if replica.alive and replica.server is not None:
                del self._unhealthy[name]
                restored.append(name)
        if restored:
            get_registry().counter("router.probes_restored").inc(
                len(restored)
            )
        return restored

    # ------------------------------------------------------------------
    # Candidate selection
    # ------------------------------------------------------------------
    def candidates(
        self, min_applied_batch: Optional[int] = None
    ) -> List[str]:
        writer_next = self.cluster.writer_node.next_seq
        ranked = []
        for name, replica in self.cluster.replicas.items():
            if name in self._unhealthy:
                continue
            if name in self.cluster.integrity_quarantine:
                # A scrub found damage in this replica's durable state;
                # it must not serve reads until a repair pass clears it.
                get_registry().counter("router.quarantine_skips").inc()
                continue
            if not replica.alive or replica.server is None:
                continue
            lag = replica.lag_behind(writer_next)
            if (self.max_staleness_batches is not None
                    and lag > self.max_staleness_batches):
                continue
            if (min_applied_batch is not None
                    and replica.next_seq < min_applied_batch):
                continue
            ranked.append((lag, name))
        ranked.sort()
        return [name for _, name in ranked]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def query(
        self,
        until_convergence: Optional[bool] = None,
        deadline_s: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        min_applied_batch: Optional[int] = None,
    ) -> RoutedResult:
        # The budget is materialized exactly once, before the first
        # attempt: every failover retry shares this object, so the
        # original deadline spans the whole routed query.
        if deadline is None and deadline_s is not None:
            deadline = WallClockDeadline(deadline_s)
        self.queries_routed += 1
        get_registry().counter("router.queries").inc()

        names = self.candidates(min_applied_batch)
        if not names and min_applied_batch is not None:
            # The token outruns every replica: replicate once -- the
            # writer may simply not have shipped yet -- and re-select.
            self.cluster.replicate()
            names = self.candidates(min_applied_batch)
            if not names and not self.writer_fallback:
                raise StalenessError(
                    f"no replica has applied batch {min_applied_batch} "
                    f"(writer is at "
                    f"{self.cluster.writer_node.next_seq})"
                )

        writer_next = self.cluster.writer_node.next_seq
        attempts = 0
        failovers = 0
        with trace.span("router.query",
                        candidates=len(names)) as span:
            for name in names:
                replica = self.cluster.replicas[name]
                lag = replica.lag_behind(writer_next)
                attempts += 1
                try:
                    result = replica.query(
                        until_convergence=until_convergence,
                        deadline=deadline,
                    )
                except OSError as exc:
                    # Dead replica, injected replica.query fault, or a
                    # real transport error: fail over within the SAME
                    # deadline object.
                    self.mark_unhealthy(name, str(exc))
                    failovers += 1
                    self.failovers += 1
                    get_registry().counter("router.failovers").inc()
                    continue
                span.tag(served_by=name, failovers=failovers)
                return RoutedResult(
                    result=result, served_by=name, attempts=attempts,
                    failovers=failovers, staleness_batches=lag,
                )
            if not self.writer_fallback:
                raise NoReplicaAvailableError(
                    f"all {attempts} candidate replica(s) failed and "
                    f"writer fallback is disabled"
                )
            attempts += 1
            self.writer_fallbacks += 1
            get_registry().counter("router.writer_fallbacks").inc()
            result = self.cluster.writer.query(
                until_convergence=until_convergence,
                deadline=deadline,
            )
            span.tag(served_by="writer", failovers=failovers)
        return RoutedResult(
            result=result, served_by="writer", attempts=attempts,
            failovers=failovers, staleness_batches=0,
        )

    def __repr__(self) -> str:
        return (
            f"QueryRouter(replicas={sorted(self.cluster.replicas)}, "
            f"unhealthy={sorted(self._unhealthy)}, "
            f"routed={self.queries_routed}, failovers={self.failovers})"
        )
