"""Tests for the Prometheus-text exporter and the /metrics endpoint."""

import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.obs.export import (
    MetricsHTTPServer,
    prometheus_name,
    render_prometheus,
    write_metrics,
)
from repro.obs.registry import LATENCY_BUCKETS, scoped_registry


@contextmanager
def tiny_registry():
    """A process-wide registry holding one instrument of each kind."""
    with scoped_registry() as registry:
        registry.counter("serving.batches_applied").inc(3)
        registry.gauge("slo.soak-ingest-latency.fast_burn").set(2.5)
        histogram = registry.histogram("serving.ingest_seconds")
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        yield registry


class TestNameSanitisation:
    @pytest.mark.parametrize("raw, expected", [
        ("serving.queue_depth", "repro_serving_queue_depth"),
        ("slo.my-slo.firing", "repro_slo_my_slo_firing"),
        ("trace.dropped_spans", "repro_trace_dropped_spans"),
        ("9lives", "repro__9lives"),
    ])
    def test_dotted_names_become_legal(self, raw, expected):
        assert prometheus_name(raw) == expected


class TestRenderPrometheus:
    def test_counter_and_gauge_lines(self):
        with tiny_registry():
            text = render_prometheus()
        assert "# TYPE repro_serving_batches_applied counter" in text
        assert "repro_serving_batches_applied 3" in text
        assert ("# TYPE repro_slo_soak_ingest_latency_fast_burn gauge"
                in text)
        assert "repro_slo_soak_ingest_latency_fast_burn 2.5" in text

    def test_histogram_buckets_are_cumulative(self):
        with tiny_registry():
            lines = render_prometheus().splitlines()
        wanted = [line for line in lines
                  if line.startswith("repro_serving_ingest_seconds")]
        buckets = wanted[:-2]
        assert len(buckets) == len(LATENCY_BUCKETS) + 1
        for line in ('repro_serving_ingest_seconds_bucket{le="0.025"} 0',
                     'repro_serving_ingest_seconds_bucket{le="0.05"} 1',
                     'repro_serving_ingest_seconds_bucket{le="0.5"} 2',
                     'repro_serving_ingest_seconds_bucket{le="2.5"} 2',
                     'repro_serving_ingest_seconds_bucket{le="5"} 3'):
            assert line in buckets
        assert buckets[-1] == (
            'repro_serving_ingest_seconds_bucket{le="+Inf"} 3')
        assert wanted[-2:] == ["repro_serving_ingest_seconds_sum 5.55",
                               "repro_serving_ingest_seconds_count 3"]

    def test_every_metric_gets_help_and_type(self):
        with tiny_registry() as registry:
            text = render_prometheus()
        for raw in registry.names():
            assert f"# HELP {prometheus_name(raw)} " in text
            assert f"# TYPE {prometheus_name(raw)} " in text

    def test_empty_registry_renders_empty(self):
        with scoped_registry():
            assert render_prometheus() == ""

    def test_defaults_to_process_registry(self):
        with scoped_registry() as registry:
            registry.counter("obs.wide_events").inc()
            assert "repro_obs_wide_events 1" in render_prometheus()


class TestWriteMetrics:
    def test_textfile_collector_pattern(self, tmp_path):
        path = str(tmp_path / "metrics.prom")
        with tiny_registry():
            assert write_metrics(path) == path
        with open(path) as handle:
            text = handle.read()
        assert text.endswith("\n")
        assert "repro_serving_batches_applied 3" in text


class TestMetricsHTTPServer:
    def test_serves_live_registry_on_ephemeral_port(self):
        with tiny_registry() as registry, MetricsHTTPServer(port=0) as server:
            assert server.port > 0
            with urllib.request.urlopen(server.url, timeout=5) as reply:
                assert reply.status == 200
                assert "version=0.0.4" in reply.headers["Content-Type"]
                body = reply.read().decode()
            assert "repro_serving_batches_applied 3" in body
            # Live rendering: a scrape after a bump sees the new value.
            registry.counter("serving.batches_applied").inc()
            with urllib.request.urlopen(server.url, timeout=5) as reply:
                assert "repro_serving_batches_applied 4" in (
                    reply.read().decode())

    def test_unknown_path_is_404(self):
        with MetricsHTTPServer(port=0) as server:
            url = server.url.replace("/metrics", "/nope")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            assert excinfo.value.code == 404
