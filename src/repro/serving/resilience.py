"""Overload-resilient serving: admission, deadlines, circuit breaking.

PR 3 made the serving loop crash-safe; this layer makes it *load*-safe.
Three pressures threaten a streaming deployment and each gets a
first-class mechanism here:

- **Ingest bursts** -- an :class:`AdmissionController`-style bounded
  queue inside :class:`ResilientAnalyticsServer`.  Batches are
  validated, WAL-logged (durable servers), then queued; when the queue
  exceeds capacity a pluggable policy relieves the pressure: ``block``
  applies synchronously until the queue fits (backpressure), ``shed-
  oldest`` drops the oldest queued batches with a durable skip-mark so
  crash replay agrees with the live loop, and ``coalesce`` folds the
  whole queue into one semantically equivalent batch via
  :meth:`repro.graph.mutation.MutationBatch.merge` (lossless: the
  merged batch applies to the graph exactly as the sequence would, and
  refinement makes served values a function of the latest snapshot, not
  of batch granularity).

- **Slow queries** -- deadline budgets.  ``query(deadline_s=...)``
  threads a :class:`repro.runtime.deadline.Deadline` through
  ``hybrid_forward`` at iteration granularity; an expired budget
  returns the best-so-far BSP state tagged ``degraded=True`` (see
  :meth:`repro.serving.server.StreamingAnalyticsServer.query`).

- **Fault pressure** -- a :class:`CircuitBreaker` over the recovery
  path.  Consecutive quarantines (a flapping poison source) or ingest
  latency SLO violations trip the breaker OPEN: applies are deferred
  (queries keep serving from the last good state, reported as
  staleness), admission switches to the configured degraded policy,
  and after a cooldown the breaker goes HALF_OPEN and sends a single
  *probe* batch through the full path -- success restores full
  service, failure re-opens.  Restores are thereby bounded by the trip
  threshold plus one per probe, where the unprotected loop restores
  once per poison batch, without bound.

Every transition is traced and gauged through :mod:`repro.obs`, and
:meth:`ResilientAnalyticsServer.health` exposes the whole surface as
one snapshot for ``repro serve --status`` and the JSONL journal.

The state machine is deliberately *count*-based, never clock-based:
the same fault/latency sequence produces the same transition sequence,
which is what lets the breaker tests be property-style instead of
sleep-and-hope.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, List, Optional, Tuple

from repro.graph.mutation import MutationBatch, coalesce_batches
from repro.obs import trace
from repro.obs.registry import get_registry
from repro.runtime.deadline import Deadline
from repro.serving.server import QueryResult, StreamingAnalyticsServer
from repro.testing import faults

__all__ = [
    "ADMISSION_POLICIES",
    "BreakerConfig",
    "BreakerTransition",
    "CircuitBreaker",
    "HealthSnapshot",
    "ResilientAnalyticsServer",
]

#: The pluggable pressure policies of the admission controller.
ADMISSION_POLICIES = ("block", "shed-oldest", "coalesce")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Numeric encoding for the ``serving.breaker_state`` gauge.
_STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}


@dataclass
class BreakerConfig:
    """Tuning for the degradation circuit breaker.

    ``quarantine_threshold``
        consecutive quarantines that trip CLOSED -> OPEN.
    ``latency_slo_s`` / ``slo_threshold``
        optional ingest-latency SLO; that many *consecutive* violations
        also trip the breaker (``None`` disables the latency signal).
    ``cooldown_submits``
        deferred submissions the breaker sits OPEN before going
        HALF_OPEN (count-based, so transitions are deterministic).
    ``degraded_admission``
        admission policy substituted while the breaker is not CLOSED
        (the configured policy may be ``block``, which cannot apply
        backpressure when applies are suspended).
    ``degraded_approx_iterations``
        main-loop window used for probe applies while degraded;
        ``None`` keeps the full window.  Note that dependency-driven
        refinement still replays the tracked history, so this shrinks
        only the forward-extension work (see ``docs/operations.md``).
    ``enabled``
        ``False`` turns the breaker into a pass-through that never
        trips -- the regression-pinned "unbounded restores" posture.
    """

    quarantine_threshold: int = 3
    latency_slo_s: Optional[float] = None
    slo_threshold: int = 3
    cooldown_submits: int = 4
    degraded_admission: str = "coalesce"
    degraded_approx_iterations: Optional[int] = 1
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be >= 1")
        if self.slo_threshold < 1:
            raise ValueError("slo_threshold must be >= 1")
        if self.cooldown_submits < 1:
            raise ValueError("cooldown_submits must be >= 1")
        if self.degraded_admission not in ("shed-oldest", "coalesce"):
            raise ValueError(
                "degraded_admission must be 'shed-oldest' or 'coalesce' "
                "(block cannot backpressure while applies are suspended)"
            )
        if (self.degraded_approx_iterations is not None
                and self.degraded_approx_iterations < 1):
            raise ValueError("degraded window needs at least one iteration")


@dataclass(frozen=True)
class BreakerTransition:
    """One recorded state change, for post-mortem assertions."""

    from_state: str
    to_state: str
    reason: str


class CircuitBreaker:
    """Deterministic count-based closed/open/half-open state machine.

    Inputs are discrete events (:meth:`record_success`,
    :meth:`record_quarantine`, :meth:`record_latency`,
    :meth:`note_deferred`, probe outcomes); the resulting transition
    sequence is a pure function of the event sequence.
    """

    def __init__(self, config: Optional[BreakerConfig] = None) -> None:
        self.config = config if config is not None else BreakerConfig()
        self._state = CLOSED
        self._consecutive_quarantines = 0
        self._consecutive_slo_violations = 0
        self._deferred_since_open = 0
        self.transitions: List[BreakerTransition] = []
        self.probes_sent = 0
        self._publish_state()

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    @property
    def closed(self) -> bool:
        return self._state == CLOSED

    def allows_apply(self) -> bool:
        """May a non-probe batch flow through to the engine?"""
        return not self.config.enabled or self._state == CLOSED

    def wants_probe(self) -> bool:
        return self.config.enabled and self._state == HALF_OPEN

    # ------------------------------------------------------------------
    def _transition(self, to_state: str, reason: str) -> None:
        from_state = self._state
        if from_state == to_state:
            return
        self._state = to_state
        self.transitions.append(
            BreakerTransition(from_state, to_state, reason)
        )
        with trace.span("breaker.transition", from_state=from_state,
                        to_state=to_state, reason=reason):
            pass
        get_registry().counter("serving.breaker_transitions").inc()
        self._publish_state()

    def _publish_state(self) -> None:
        get_registry().gauge("serving.breaker_state").set(
            _STATE_CODES[self._state]
        )

    # ------------------------------------------------------------------
    # Event inputs
    # ------------------------------------------------------------------
    def record_success(self) -> None:
        """A batch applied cleanly within SLO."""
        self._consecutive_quarantines = 0
        self._consecutive_slo_violations = 0

    def record_quarantine(self) -> None:
        """A batch was quarantined (one restore happened)."""
        if not self.config.enabled:
            return
        self._consecutive_slo_violations = 0
        self._consecutive_quarantines += 1
        if (self._state == CLOSED and self._consecutive_quarantines
                >= self.config.quarantine_threshold):
            self.trip(
                f"{self._consecutive_quarantines} consecutive quarantines"
            )

    def record_latency(self, seconds: float) -> None:
        """An ingest latency observation (SLO signal, if configured)."""
        slo = self.config.latency_slo_s
        if not self.config.enabled or slo is None:
            return
        if seconds <= slo:
            self._consecutive_slo_violations = 0
            return
        self._consecutive_quarantines = 0
        self._consecutive_slo_violations += 1
        get_registry().counter("serving.slo_violations").inc()
        if (self._state == CLOSED and self._consecutive_slo_violations
                >= self.config.slo_threshold):
            self.trip(
                f"{self._consecutive_slo_violations} consecutive "
                f"ingest SLO violations (> {slo}s)"
            )

    def note_deferred(self) -> None:
        """A submission arrived while OPEN (cooldown progress)."""
        if self._state != OPEN:
            return
        self._deferred_since_open += 1
        if self._deferred_since_open >= self.config.cooldown_submits:
            self._transition(HALF_OPEN, "cooldown elapsed")

    def record_probe(self, ok: bool) -> None:
        """Outcome of a half-open trial batch."""
        self.probes_sent += 1
        if ok:
            self._consecutive_quarantines = 0
            self._consecutive_slo_violations = 0
            self._transition(CLOSED, "probe succeeded")
        else:
            self._deferred_since_open = 0
            self._transition(OPEN, "probe failed")

    def trip(self, reason: str = "manual trip") -> None:
        """Force OPEN (threshold crossing, or operator action)."""
        if not self.config.enabled:
            return
        self._deferred_since_open = 0
        self._transition(OPEN, reason)

    # ------------------------------------------------------------------
    def restore_budget(self, total_submits: int) -> int:
        """Upper bound on restore invocations over ``total_submits``
        all-poison submissions: the trip threshold, plus one per probe
        the cooldown cadence allows.  The flapping-poison test pins the
        unprotected loop above this bound and the protected loop under
        it.
        """
        cfg = self.config
        if not cfg.enabled:
            return total_submits
        remaining = max(0, total_submits - cfg.quarantine_threshold)
        # Each OPEN period absorbs cooldown_submits submissions, then
        # exactly one probe may restore.
        probes = remaining // cfg.cooldown_submits + 1
        return cfg.quarantine_threshold + probes

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self._state}, "
            f"quarantines={self._consecutive_quarantines}, "
            f"transitions={len(self.transitions)})"
        )


@dataclass
class HealthSnapshot:
    """One observation of the serving surface (``repro serve --status``).

    ``staleness_batches`` counts *submitted constituent batches* not yet
    reflected in served values (a queued coalesced batch counts every
    batch folded into it); ``queue_depth`` counts queue entries.  The
    two differ exactly when coalescing has merged entries.

    ``seq`` numbers snapshots 0, 1, 2, ... per server, so a journal of
    snapshots is checkable for holes: ``repro dash --from-journal``
    warns when journaled health ``seq`` values are non-contiguous
    (records lost, reordered, or snapshotted without journaling).
    """

    seq: int
    queue_depth: int
    staleness_batches: int
    breaker_state: str
    quarantine_count: int
    submitted: int
    applied: int
    shed: int
    coalesced: int
    deferred: int
    restores: int
    queries_served: int
    queries_degraded: int
    admission_policy: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class ResilientAnalyticsServer:
    """Admission control + circuit breaking around a streaming server.

    Wraps a :class:`~repro.serving.server.StreamingAnalyticsServer`
    (durable or not) and owns the ingest path: callers ``submit``
    batches instead of calling ``ingest`` directly, and ``query``
    passes deadline budgets through.

    ``submit(batch, pump=False)`` models asynchronous arrival -- the
    batch is admitted (validated, logged, queued) without applying, so
    bursts build real queue pressure; ``pump()``/``drain()`` then play
    the main loop.  The default ``pump=True`` applies synchronously,
    which is the ordinary serving posture.
    """

    def __init__(
        self,
        server: StreamingAnalyticsServer,
        queue_capacity: int = 8,
        admission: str = "block",
        breaker: Optional[BreakerConfig] = None,
        max_growth: Optional[int] = None,
        observer=None,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission must be one of {ADMISSION_POLICIES}, "
                f"got {admission!r}"
            )
        self.server = server
        self.queue_capacity = queue_capacity
        self.admission = admission
        self.max_growth = max_growth
        self.breaker = CircuitBreaker(breaker)
        # A ServingObserver (or anything with batch_applied /
        # query_served); None keeps the hot path at one `is None`
        # check per batch -- the disabled-overhead posture.
        self.observer = observer
        self._health_seq = 0
        # (wal_seq_or_None, batch, constituent_count)
        self._queue: Deque[Tuple[Optional[int], MutationBatch, int]] = (
            deque()
        )
        self.submitted = 0
        self.applied = 0
        self.shed = 0
        self.coalesced = 0
        self.deferred = 0
        self.rejected = 0
        self._resolved_constituents = 0

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        manager,
        algorithm_factory,
        *,
        queue_capacity: int = 8,
        admission: str = "block",
        breaker: Optional[BreakerConfig] = None,
        max_growth: Optional[int] = None,
        observer=None,
        **server_kwargs,
    ) -> "ResilientAnalyticsServer":
        """Restart from a state directory.

        WAL records that were queued-but-unapplied at crash time are
        replayed by the manager (they were logged at submit time), so
        the recovered state already reflects the whole admitted stream
        minus durably shed/superseded records -- the admission queue
        restarts empty with nothing lost.
        """
        server = manager.recover(algorithm_factory, **server_kwargs)
        return cls(
            server, queue_capacity=queue_capacity, admission=admission,
            breaker=breaker, max_growth=max_growth, observer=observer,
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, batch: MutationBatch, pump: bool = True) -> None:
        """Admit one batch: validate, WAL-log, queue, relieve pressure.

        Raises ``ValueError`` for malformed batches (out-of-range
        deletion endpoints, growth beyond ``max_growth``) *before*
        anything is logged -- a rejected batch leaves no trace in the
        WAL.
        """
        try:
            batch.validate(self.server.graph.num_vertices,
                           max_growth=self.max_growth)
        except ValueError:
            self.rejected += 1
            get_registry().counter("serving.batches_rejected").inc()
            raise
        recovery = self.server.recovery
        seq = None if recovery is None else recovery.log_batch(batch)
        faults.hit("admission.enqueue")
        self._queue.append((seq, batch, 1))
        self.submitted += 1
        if not self.breaker.allows_apply():
            self.deferred += 1
            self.breaker.note_deferred()
        self._relieve_pressure()
        self._publish_queue_gauges()
        if pump:
            self.pump()

    def _effective_policy(self) -> str:
        if self.breaker.config.enabled and not self.breaker.closed:
            return self.breaker.config.degraded_admission
        return self.admission

    def _relieve_pressure(self) -> None:
        if len(self._queue) <= self.queue_capacity:
            return
        policy = self._effective_policy()
        with trace.span("admission.pressure", policy=policy,
                        depth=len(self._queue)):
            if policy == "block":
                # Backpressure: the submitter pays by applying now.
                while (len(self._queue) > self.queue_capacity
                       and self.breaker.allows_apply()):
                    self._apply_head()
            elif policy == "shed-oldest":
                # The queue head is the designated HALF_OPEN probe
                # batch: shedding it spends the cooldown cycle the
                # breaker just paid for on nothing, and the restore
                # budget (one probe -- at most one restore -- per OPEN
                # period) stops matching reality when a fresher,
                # unvetted batch gets probed in its place.  Preserve
                # the head and shed the oldest non-probe entry instead
                # (over capacity implies at least two entries).
                preserve = 1 if self.breaker.wants_probe() else 0
                while len(self._queue) > self.queue_capacity:
                    self._shed_entry(preserve)
            else:  # coalesce
                self._coalesce_queue()

    def _shed_entry(self, position: int = 0) -> None:
        seq, _, constituents = self._queue[position]
        del self._queue[position]
        if seq is not None:
            self.server.recovery.shed(
                seq, f"queue over capacity {self.queue_capacity}"
            )
        self.shed += constituents
        self._resolved_constituents += constituents
        get_registry().counter("serving.batches_shed").inc(constituents)

    def _coalesce_queue(self) -> None:
        """Fold the whole queue into one equivalent batch.

        Durable servers log the merged batch as a fresh WAL record and
        durably mark every constituent superseded, so crash replay
        applies exactly what the live loop will: the merged record,
        once.
        """
        entries = list(self._queue)
        merged = coalesce_batches([entry[1] for entry in entries])
        constituents = sum(entry[2] for entry in entries)
        recovery = self.server.recovery
        merged_seq = None
        if recovery is not None:
            merged_seq = recovery.log_batch(merged)
            for seq, _, _ in entries:
                if seq is not None:
                    recovery.supersede(seq, merged_seq)
        self._queue.clear()
        self._queue.append((merged_seq, merged, constituents))
        self.coalesced += len(entries) - 1
        get_registry().counter("serving.batches_coalesced").inc(
            len(entries) - 1
        )

    # ------------------------------------------------------------------
    # The pump (the main loop's apply side)
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Apply queued batches as far as the breaker allows.

        Returns the number of queue entries applied.  CLOSED drains the
        queue; OPEN applies nothing; HALF_OPEN sends exactly one probe
        through the full path and then, on success, keeps draining.
        """
        applied = 0
        while self._queue:
            if self.breaker.wants_probe():
                faults.hit("breaker.probe")
                with trace.span("breaker.probe",
                                depth=len(self._queue)):
                    ok = self._apply_head(probe=True)
                self.breaker.record_probe(ok)
                applied += 1
                if not ok:
                    break
                continue
            if not self.breaker.allows_apply():
                break
            self._apply_head()
            applied += 1
        self._publish_queue_gauges()
        return applied

    def drain(self) -> int:
        """Pump until the queue is empty, probing through OPEN periods.

        For orderly shutdown and tests: repeatedly credits the breaker
        cooldown (as idle submissions would) so deferred batches are
        probed through rather than stranded.
        """
        applied = 0
        while self._queue:
            before = len(self._queue)
            applied += self.pump()
            if self._queue and len(self._queue) == before:
                # OPEN with nothing moving: advance the cooldown.
                self.deferred += 1
                self.breaker.note_deferred()
        self._publish_queue_gauges()
        return applied

    def _apply_head(self, probe: bool = False) -> bool:
        """Apply the queue head; returns False iff it was quarantined."""
        seq, batch, constituents = self._queue.popleft()
        server = self.server
        quarantines_before = server.batches_quarantined
        engine = server.engine
        degraded_window = self.breaker.config.degraded_approx_iterations
        saved_window = engine.num_iterations
        if (probe and degraded_window is not None
                and degraded_window < saved_window):
            engine.num_iterations = degraded_window
        # Mark the span-id sequence before applying so the observer can
        # pick this batch's slowest span as its trace exemplar.
        mark = trace.get_tracer().mark()
        start = time.perf_counter()
        try:
            server.ingest(batch, logged_seq=seq)
        finally:
            # The quarantine path may have replaced the engine object;
            # restore the window on whichever engine is now live.
            if probe and degraded_window is not None:
                server.engine.num_iterations = saved_window
        elapsed = time.perf_counter() - start
        self.applied += 1
        self._resolved_constituents += constituents
        ok = server.batches_quarantined == quarantines_before
        if ok:
            self.breaker.record_latency(elapsed)
            if self.breaker.closed:
                self.breaker.record_success()
        elif not probe:
            self.breaker.record_quarantine()
        if self.observer is not None:
            # After the breaker digests the outcome, so the wide event
            # and SLO samples see the post-apply breaker state.
            self.observer.batch_applied(
                self, batch, elapsed, ok, probe, constituents,
                span_mark=mark,
            )
        return ok

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        until_convergence: Optional[bool] = None,
        deadline_s: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> QueryResult:
        """Branch-loop query with an optional deadline budget.

        Always answers -- even with the breaker OPEN, queries serve
        from the last good state (its staleness is visible in
        :meth:`health`).
        """
        mark = trace.get_tracer().mark()
        result = self.server.query(
            until_convergence=until_convergence,
            deadline_s=deadline_s, deadline=deadline,
        )
        if self.observer is not None:
            self.observer.query_served(
                self, result, deadline_s=deadline_s, span_mark=mark,
            )
        return result

    # ------------------------------------------------------------------
    # Health surface
    # ------------------------------------------------------------------
    def health(self) -> HealthSnapshot:
        recovery = self.server.recovery
        quarantine_count = (
            len(recovery.poison_quarantined()) if recovery is not None
            else self.server.batches_quarantined
        )
        registry = get_registry()
        seq = self._health_seq
        self._health_seq += 1
        snapshot = HealthSnapshot(
            seq=seq,
            queue_depth=len(self._queue),
            staleness_batches=(
                self.submitted - self._resolved_constituents
            ),
            breaker_state=self.breaker.state,
            quarantine_count=quarantine_count,
            submitted=self.submitted,
            applied=self.applied,
            shed=self.shed,
            coalesced=self.coalesced,
            deferred=self.deferred,
            restores=self.server.restores,
            queries_served=self.server.queries_served,
            queries_degraded=self.server.queries_degraded,
            admission_policy=self._effective_policy(),
        )
        registry.gauge("serving.staleness_batches").set(
            snapshot.staleness_batches
        )
        return snapshot

    def record_health(self, journal) -> HealthSnapshot:
        """Append one health snapshot to a JSONL journal."""
        snapshot = self.health()
        # "type" is the discriminator every other journal record uses;
        # "event" stays for readers of pre-dashboard journals.
        journal.write({"type": "health", "event": "health",
                       **asdict(snapshot)})
        return snapshot

    def _publish_queue_gauges(self) -> None:
        get_registry().gauge("serving.queue_depth").set(len(self._queue))

    # ------------------------------------------------------------------
    def stable_seq(self) -> int:
        """First WAL sequence whose fate is still *undecided*.

        Every record below this boundary is resolved -- applied, shed,
        or superseded -- so it is safe to ship to a read replica.  A
        queued record is not: shed-oldest could still durably skip it,
        and a replica that had already applied it would fork.  The
        queue is FIFO in sequence order, so the boundary is the first
        queued entry's sequence (or the WAL head when the queue is
        empty).
        """
        for seq, _, _ in self._queue:
            if seq is not None:
                return seq
        recovery = self.server.recovery
        return recovery.wal.next_seq if recovery is not None else (
            self.applied
        )

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def approximate_values(self):
        return self.server.approximate_values

    def __repr__(self) -> str:
        return (
            f"ResilientAnalyticsServer(admission={self.admission}, "
            f"capacity={self.queue_capacity}, "
            f"breaker={self.breaker.state}, "
            f"queued={len(self._queue)}, submitted={self.submitted})"
        )
