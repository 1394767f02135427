"""Unit tests for the metrics registry and EngineMetrics ingestion."""

from dataclasses import dataclass, field

import pytest

from repro.obs.registry import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    ingest_engine_metrics,
    scoped_registry,
    set_registry,
)
from repro.runtime.metrics import EngineMetrics


class TestCounter:
    def test_increments(self):
        counter = Counter("edges")
        counter.inc()
        counter.inc(9)
        assert counter.value == 10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("edges").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("frontier")
        gauge.set(0.5)
        gauge.set(0.25)
        assert gauge.value == 0.25


class TestHistogram:
    def test_bucketing(self):
        histogram = Histogram("latency")
        assert histogram.bounds == LATENCY_BUCKETS
        for value in (0.007, 0.07, 0.07, 0.7, 50.0):
            histogram.observe(value)
        expected = [0] * (len(LATENCY_BUCKETS) + 1)
        for bound, count in ((0.01, 1), (0.1, 2), (1.0, 1)):
            expected[LATENCY_BUCKETS.index(bound)] = count
        expected[-1] = 1  # 50 s overflows the last bound
        assert histogram.counts == expected
        assert histogram.count == 5
        assert histogram.mean == pytest.approx(50.847 / 5)

    def test_quantile_upper_bounds(self):
        histogram = Histogram("latency")
        for value in (0.007, 0.07, 0.07, 0.7):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 0.1
        assert histogram.quantile(1.0) == 1.0
        assert histogram.quantile(0.0) == LATENCY_BUCKETS[0]

    def test_quantile_overflow_bucket_is_inf(self):
        histogram = Histogram("latency")
        histogram.observe(50.0)
        assert histogram.quantile(1.0) == float("inf")

    def test_empty_histogram(self):
        # An empty histogram has no quantiles: "p99 = 0.0" off a
        # histogram that never observed anything would be silently
        # wrong in the optimistic direction, so asking raises.
        histogram = Histogram("latency")
        assert histogram.mean == 0.0
        with pytest.raises(ValueError, match="empty"):
            histogram.quantile(0.9)

    def test_rejects_bad_quantile(self):
        histogram = Histogram("latency")
        histogram.observe(0.05)
        for bad_q in (1.5, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="quantile q"):
                histogram.quantile(bad_q)

    def test_quantile_accepts_integral_and_boundary_q(self):
        histogram = Histogram("latency")
        histogram.observe(0.07)
        assert histogram.quantile(0) == LATENCY_BUCKETS[0]  # int coerces
        assert histogram.quantile(1) == 0.1
        assert histogram.quantile(0.0) == LATENCY_BUCKETS[0]
        assert histogram.quantile(1.0) == 0.1


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError):
            registry.gauge("name")

    def test_to_json_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("edges").inc(5)
        registry.gauge("density").set(0.5)
        registry.histogram("latency").observe(0.01)
        export = registry.to_json()
        assert export["counters"] == {"edges": 5}
        assert export["gauges"] == {"density": 0.5}
        assert export["histograms"]["latency"]["count"] == 1

    def test_names_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert registry.names() == ["a", "b"]
        registry.reset()
        assert registry.names() == []


class TestProcessWideRegistry:
    def test_scoped_registry_swaps_and_restores(self):
        original = get_registry()
        with scoped_registry() as registry:
            assert get_registry() is registry
            assert registry is not original
        assert get_registry() is original

    def test_scoped_registry_restores_on_exception(self):
        original = get_registry()
        with pytest.raises(RuntimeError):
            with scoped_registry():
                raise RuntimeError("boom")
        assert get_registry() is original

    def test_set_registry_returns_previous(self):
        original = get_registry()
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert previous is original
            assert get_registry() is mine
        finally:
            set_registry(original)


class TestIngestEngineMetrics:
    def test_folds_every_field(self):
        metrics = EngineMetrics()
        metrics.count_edges(10)
        metrics.count_vertices(3)
        metrics.add_phase_time("refine", 0.5)
        registry = MetricsRegistry()
        ingest_engine_metrics(metrics, "graphbolt", registry=registry)
        export = registry.to_json()["counters"]
        assert export["graphbolt.edge_computations"] == 10
        assert export["graphbolt.vertex_computations"] == 3
        assert export["graphbolt.phase_seconds.refine"] == 0.5

    def test_new_dataclass_field_flows_through(self):
        # The registry never needs editing when EngineMetrics grows.
        @dataclass
        class Extended(EngineMetrics):
            cache_hits: int = 0

        metrics = Extended(cache_hits=7)
        registry = MetricsRegistry()
        ingest_engine_metrics(metrics, "engine", registry=registry)
        assert registry.to_json()["counters"]["engine.cache_hits"] == 7

    def test_negative_deltas_clamp_to_zero(self):
        @dataclass
        class Weird:
            wobble: int = -5
            phase_seconds: dict = field(default_factory=lambda: {"a": -1})

        registry = MetricsRegistry()
        ingest_engine_metrics(Weird(), "engine", registry=registry)
        counters = registry.to_json()["counters"]
        assert counters["engine.wobble"] == 0
        assert counters["engine.phase_seconds.a"] == 0

    def test_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            ingest_engine_metrics({"not": "a dataclass"}, "engine")
