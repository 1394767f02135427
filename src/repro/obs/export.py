"""Prometheus-text-format export of the metrics registry.

:func:`render_prometheus` renders every instrument of the process-wide
:class:`~repro.obs.registry.MetricsRegistry` in the Prometheus text
exposition format (version 0.0.4): counters and gauges as single
samples, histograms as cumulative ``_bucket{le="..."}`` series plus
``_sum``/``_count``.  Dotted repository names (``serving.queue_depth``)
become legal Prometheus names under a ``repro_`` prefix
(``repro_serving_queue_depth``).

Two delivery paths, both stdlib-only:

- :func:`write_metrics` renders to a file (the node-exporter textfile
  pattern -- point a scraper's textfile collector at it);
- :class:`MetricsHTTPServer` serves ``GET /metrics`` from a background
  thread (``repro serve --serve-metrics PORT``), rendering the
  *current* process-wide registry at request time so live scrapes see
  live values.  Port 0 binds an ephemeral port (tests).
"""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    get_registry,
)

__all__ = [
    "prometheus_name",
    "render_prometheus",
    "write_metrics",
    "MetricsHTTPServer",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """A registry name as a legal, prefixed Prometheus metric name."""
    sanitized = _NAME_RE.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha()
                             or sanitized[0] in "_:"):
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _format_value(value) -> str:
    number = float(value)
    if number == float("inf"):
        return "+Inf"
    if number == float("-inf"):
        return "-Inf"
    if number.is_integer():
        return str(int(number))
    return repr(number)


def _render_histogram(name: str, histogram: Histogram,
                      lines: List[str]) -> None:
    lines.append(f"# TYPE {name} histogram")
    cumulative = 0
    for bound, count in zip(histogram.bounds, histogram.counts):
        cumulative += count
        lines.append(
            f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
        )
    lines.append(f'{name}_bucket{{le="+Inf"}} {histogram.count}')
    lines.append(f"{name}_sum {_format_value(histogram.sum)}")
    lines.append(f"{name}_count {histogram.count}")


def render_prometheus() -> str:
    """The whole registry in Prometheus text exposition format."""
    registry = get_registry()
    lines: List[str] = []
    for raw_name in registry.names():
        instrument = registry._instruments[raw_name]
        name = prometheus_name(raw_name)
        lines.append(f"# HELP {name} repro metric {raw_name!r}")
        if isinstance(instrument, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_format_value(instrument.value)}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(instrument.value)}")
        elif isinstance(instrument, Histogram):
            _render_histogram(name, instrument, lines)
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics(path: str) -> str:
    """Render the registry to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_prometheus())
    return path


class _MetricsHandler(BaseHTTPRequestHandler):
    """GET /metrics -> the live registry; anything else 404."""

    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 -- http.server API
        if self.path.split("?")[0] not in ("/metrics", "/"):
            self.send_error(404, "try /metrics")
            return
        # Rendered at request time from the process-wide registry
        # current then (scoped_registry swaps are honoured).
        body = render_prometheus().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass  # scrapes are high-frequency; stay quiet


class _Server(ThreadingHTTPServer):
    daemon_threads = True


class MetricsHTTPServer:
    """A background ``/metrics`` endpoint over the registry.

    ``port=0`` binds an ephemeral port, exposed as :attr:`port` after
    construction.  Use as a context manager or call :meth:`close`.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1") -> None:
        self._httpd = _Server((host, port), _MetricsHandler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics",
            daemon=True,
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/metrics"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsHTTPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
