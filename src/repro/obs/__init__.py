"""Observability: tracing, metrics, SLOs, wide events, export, dash.

Cooperating pieces (see ``docs/observability.md``):

- :mod:`repro.obs.trace` -- a span-based tracer.  Engines call
  ``trace.span("refine", batch=k)`` around every phase; the installed
  tracer records nested spans into a bounded ring buffer and an
  optional JSONL journal.  The *default* tracer is a no-op whose spans
  cost one function call, so instrumentation is effectively free until
  a tracer is installed (``tests/obs/test_overhead.py`` pins <5%).
- :mod:`repro.obs.registry` -- a process-wide metrics registry
  (counters, gauges, fixed-bucket histograms).  Engines feed their
  :class:`~repro.runtime.metrics.EngineMetrics` totals and live gauges
  (frontier density, history window, dependency bytes) into it;
  ``MetricsRegistry.to_json()`` exports everything.
- :mod:`repro.obs.render` -- renders a recorded span stream as a
  per-batch flame-style text breakdown (the ``repro trace`` command).
- :mod:`repro.obs.slo` -- declarative objectives over the serving
  surface with deterministic multi-window burn-rate alerts, journaled
  as first-class records and forwarded to pluggable sinks.
- :mod:`repro.obs.events` -- wide events: one structured record per
  applied batch / served query, every dimension plus a trace exemplar.
- :mod:`repro.obs.export` -- Prometheus-text-format rendering of the
  registry, to a file or a stdlib HTTP ``/metrics`` endpoint.
- :mod:`repro.obs.dash` -- the ``repro dash`` terminal dashboard over
  journaled health snapshots, wide events, and alerts.
"""

from repro.obs.events import WideEventEmitter
from repro.obs.export import (
    MetricsHTTPServer,
    render_prometheus,
    write_metrics,
)
from repro.obs.journal import JsonlJournal, read_journal
from repro.obs.registry import (
    MetricsRegistry,
    get_registry,
    ingest_engine_metrics,
    set_registry,
)
from repro.obs.render import format_trace
from repro.obs.slo import (
    SLO,
    Alert,
    AlertSink,
    RecordingSink,
    SLOError,
    SLOEvaluator,
    lint_slo_dir,
    load_slo_file,
)
from repro.obs.trace import NULL_TRACER, Tracer, activated, get_tracer

__all__ = [
    "Alert",
    "AlertSink",
    "JsonlJournal",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "NULL_TRACER",
    "RecordingSink",
    "SLO",
    "SLOError",
    "SLOEvaluator",
    "Tracer",
    "WideEventEmitter",
    "activated",
    "format_trace",
    "get_registry",
    "get_tracer",
    "ingest_engine_metrics",
    "lint_slo_dir",
    "load_slo_file",
    "read_journal",
    "render_prometheus",
    "set_registry",
    "write_metrics",
]
