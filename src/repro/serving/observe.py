"""Glue between the serving loop and the observability layer.

:class:`ServingObserver` is the single attachment point: hand one to
:class:`~repro.serving.resilience.ResilientAnalyticsServer` and every
applied batch and served query produces

- one **wide event** through a
  :class:`~repro.obs.events.WideEventEmitter` (all dimensions of the
  unit of work, plus the trace exemplar -- the id of the slowest span
  recorded while it ran, when tracing is on), and
- one **SLO tick** through an
  :class:`~repro.obs.slo.SLOEvaluator` (batches only: queries fold
  their latency into the *next* batch tick, so the tick index is
  exactly the applied-batch index and alert indices are pinnable).

With no observer attached (the default) the serving hot path pays one
``is None`` check per batch -- the same zero-cost-when-off posture as
the tracer, which keeps the PR-2 disabled-overhead bound intact.

:class:`PlantedLatency` is the deterministic fault for alerting tests
and the CI smoke job: from a given batch index onward the
``ingest_latency`` *sample* fed to the SLO evaluator is replaced with
a fixed value.  Planting at the sample level (rather than actually
sleeping) keeps the run fast and the firing batch index an exact
number, while exercising the entire alert path -- evaluation, journal,
registry gauges, dashboard replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs import trace
from repro.obs.events import WideEventEmitter
from repro.obs.registry import sample_peak_rss
from repro.obs.slo import Alert, SLOEvaluator
from repro.runtime.deadline import Deadline

__all__ = ["PlantedLatency", "ServingObserver"]


@dataclass(frozen=True)
class PlantedLatency:
    """Replace the ingest-latency sample from one batch index onward."""

    from_index: int
    seconds: float

    @classmethod
    def parse(cls, spec: str) -> "PlantedLatency":
        """Parse the CLI form ``<index>:<seconds>`` (e.g. ``10:9.9``)."""
        index_text, sep, seconds_text = spec.partition(":")
        if not sep:
            raise ValueError(
                f"plant-latency spec {spec!r} must be <index>:<seconds>"
            )
        return cls(from_index=int(index_text),
                   seconds=float(seconds_text))


class ServingObserver:
    """Emit wide events and tick SLOs for one resilient server."""

    def __init__(
        self,
        evaluator: Optional[SLOEvaluator] = None,
        emitter: Optional[WideEventEmitter] = None,
        planted_latency: Optional[PlantedLatency] = None,
        staleness_probe: Optional[Callable[[], float]] = None,
    ) -> None:
        self.evaluator = evaluator
        self.emitter = emitter
        self.planted_latency = planted_latency
        # When serving replicated, a callable returning the worst
        # replica backlog of shipped-but-unapplied WAL records
        # (ReplicationCluster.staleness); feeds the
        # ``replica_staleness`` SLO signal.
        self.staleness_probe = staleness_probe
        self.batches_observed = 0
        self.queries_observed = 0
        self._last_query_seconds: Optional[float] = None

    # ------------------------------------------------------------------
    def _samples(self, resilient, ingest_seconds: float) -> Dict[str, float]:
        server = resilient.server
        health_like = {
            "queue_depth": float(resilient.queue_depth),
            "staleness_batches": float(
                resilient.submitted - resilient._resolved_constituents
            ),
            "quarantine_count": float(server.batches_quarantined),
            "breaker_open": 0.0 if resilient.breaker.closed else 1.0,
            "degraded_query_ratio": (
                server.queries_degraded / server.queries_served
                if server.queries_served else 0.0
            ),
        }
        if self.staleness_probe is not None:
            health_like["replica_staleness"] = float(
                self.staleness_probe()
            )
        health_like["ingest_latency"] = ingest_seconds
        if self._last_query_seconds is not None:
            health_like["query_latency"] = self._last_query_seconds
        return health_like

    def _exemplar(self, span_mark: Optional[int]) -> Optional[int]:
        if span_mark is None or not trace.enabled():
            return None
        slowest = trace.get_tracer().slowest_since(span_mark)
        return None if slowest is None else slowest["id"]

    # ------------------------------------------------------------------
    def batch_applied(
        self,
        resilient,
        batch,
        seconds: float,
        ok: bool,
        probe: bool,
        constituents: int,
        span_mark: Optional[int] = None,
    ) -> List[Alert]:
        """One applied batch: wide event + SLO tick.

        ``seconds`` is the admission layer's measured apply time;
        the sample fed to the evaluator is the engine's own
        ``last_ingest_seconds`` (or the planted value), so SLOs see
        engine latency, not queue bookkeeping.
        """
        index = self.batches_observed
        self.batches_observed += 1
        ingest_seconds = resilient.server.last_ingest_seconds
        planted = self.planted_latency
        if planted is not None and index >= planted.from_index:
            ingest_seconds = planted.seconds
        samples = self._samples(resilient, ingest_seconds)
        # Memory is a wide-event dimension, not an SLO sample.
        peak_rss = sample_peak_rss()
        alerts: List[Alert] = []
        if self.evaluator is not None:
            alerts = self.evaluator.tick(samples, index=index)
        if self.emitter is not None:
            self.emitter.emit(
                "batch",
                index=index,
                peak_rss_bytes=peak_rss,
                engine="graphbolt",
                mutations=len(batch),
                additions=batch.num_additions,
                deletions=batch.num_deletions,
                constituents=constituents,
                probe=probe,
                ok=ok,
                seconds=round(seconds, 6),
                ingest_seconds=round(ingest_seconds, 6),
                queue_depth=resilient.queue_depth,
                breaker_state=resilient.breaker.state,
                admission_policy=resilient._effective_policy(),
                staleness_batches=int(samples["staleness_batches"]),
                quarantined=not ok,
                samples={key: round(value, 6)
                         for key, value in samples.items()},
                alerts=[alert.slo for alert in alerts
                        if alert.state == "firing"],
                trace_on=trace.enabled(),
                exemplar_span=self._exemplar(span_mark),
            )
        return alerts

    def query_served(
        self,
        resilient,
        result,
        deadline: Optional[Deadline],
        span_mark: int,
    ) -> None:
        """One served query: wide event; latency folds into the next
        batch tick (queries never advance the SLO tick index)."""
        index = self.queries_observed
        self.queries_observed += 1
        self._last_query_seconds = result.seconds
        if self.emitter is None:
            return
        self.emitter.emit(
            "query",
            index=index,
            engine="graphbolt",
            seconds=round(result.seconds, 6),
            iterations=result.iterations_completed,
            degraded=result.degraded,
            residual_l1=round(result.residual_l1, 9),
            deadline_budget=None if deadline is None else deadline.budget_s,
            batches_ingested=result.batches_ingested,
            queue_depth=resilient.queue_depth,
            breaker_state=resilient.breaker.state,
            trace_on=trace.enabled(),
            exemplar_span=self._exemplar(span_mark),
        )

