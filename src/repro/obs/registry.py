"""The process-wide metrics registry.

Three instrument kinds, created lazily by name:

- :class:`Counter` -- monotonically increasing totals (edge
  computations, records processed);
- :class:`Gauge` -- last-written values (frontier density, history
  window size, dependency bytes -- the paper's Table 9, live);
- :class:`Histogram` -- fixed-bucket distributions, used for per-batch
  ingest/refine/forward latencies.

The registry complements :class:`~repro.runtime.metrics.EngineMetrics`
rather than replacing it: engines keep threading their per-run
``EngineMetrics`` (whose deltas drive the bench tables and the fuzz
oracle's work checks), and :func:`ingest_engine_metrics` folds any
``EngineMetrics`` -- every dataclass field, discovered via
:func:`dataclasses.fields` -- into registry counters.

A single process-wide registry (:func:`get_registry`) is the default
write target; tests swap it with :func:`set_registry` or the
:func:`scoped_registry` context manager.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from typing import Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "get_registry",
    "ingest_engine_metrics",
    "peak_rss_bytes",
    "sample_peak_rss",
    "scoped_registry",
    "set_registry",
]

#: Every histogram's bounds (per-batch latencies), in seconds:
#: 100us .. 30s in roughly-2.5x steps, plus the +inf overflow bucket.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def to_json(self):
        return self.value


class Gauge:
    """A last-written value."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value

    def to_json(self):
        return self.value


class Histogram:
    """Fixed-bucket distribution over :data:`LATENCY_BUCKETS`; bucket
    ``i`` counts values <= ``bounds[i]`` (the final implicit bucket is
    +inf)."""

    kind = "histogram"
    __slots__ = ("name", "bounds", "counts", "sum", "count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.bounds = LATENCY_BUCKETS
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the q-quantile from bucket counts.

        Edge cases are pinned, not inherited from whatever arithmetic
        happens to do: ``q`` outside ``[0, 1]`` raises ``ValueError``
        (so does a non-finite ``q``), and querying an **empty**
        histogram raises ``ValueError`` -- an SLO or dashboard reading
        "p99 = 0.0" off a histogram that never observed anything would
        be silently wrong in the optimistic direction.  ``q = 0``
        returns the smallest bucket bound; ``q = 1`` the bound of the
        last occupied bucket (``inf`` if the overflow bucket is hit).
        """
        q = float(q)
        if not 0.0 <= q <= 1.0:  # NaN fails this check too
            raise ValueError(
                f"quantile q must be in [0, 1], got {q!r}"
            )
        if self.count == 0:
            raise ValueError(
                f"histogram {self.name!r} is empty: quantiles are "
                f"undefined (check .count before asking)"
            )
        target = q * self.count
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= target:
                if index < len(self.bounds):
                    return self.bounds[index]
                return float("inf")
        return float("inf")

    def to_json(self):
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Name-keyed instruments, created on first use."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, kind: str, name: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = _KINDS[kind](name)
            self._instruments[name] = instrument
        elif instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, requested {kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get("counter", name)

    def gauge(self, name: str) -> Gauge:
        return self._get("gauge", name)

    def histogram(self, name: str) -> Histogram:
        return self._get("histogram", name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def to_json(self) -> Dict:
        """Everything, grouped by kind -- the export the bench harness
        writes next to its tables."""
        export: Dict[str, Dict] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            export[instrument.kind + "s"][name] = instrument.to_json()
        return export

    def reset(self) -> None:
        self._instruments.clear()


# ----------------------------------------------------------------------
# The process-wide registry
# ----------------------------------------------------------------------
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


@contextmanager
def scoped_registry():
    """Install a fresh registry for a ``with`` block."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def peak_rss_bytes() -> int:
    """The process-lifetime resident-set high-water mark, in bytes.

    ``getrusage`` reports ``ru_maxrss`` in kilobytes on Linux and in
    bytes on macOS; normalised to bytes here.  Returns 0 where the
    ``resource`` module is unavailable (non-POSIX platforms) so
    callers can gate on a zero reading instead of catching imports.

    Being a high-water mark, the value never decreases -- memory
    comparisons between configurations (the xl matrix's ``storage``
    axis above all) must run the low-memory configuration *first* in
    any shared process.
    """
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover -- non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover -- macOS
        return int(peak)
    return int(peak) * 1024


def sample_peak_rss() -> int:
    """Record :func:`peak_rss_bytes` into the ``proc.peak_rss_bytes``
    gauge; returns the sampled value."""
    peak = peak_rss_bytes()
    get_registry().gauge("proc.peak_rss_bytes").set(peak)
    return peak


def ingest_engine_metrics(metrics, engine: str,
                          registry: Optional[MetricsRegistry] = None
                          ) -> None:
    """Fold an :class:`EngineMetrics` (or any dataclass of numeric
    fields and numeric-valued dicts) into registry counters.

    Fields are discovered via :func:`dataclasses.fields`, so a counter
    added to ``EngineMetrics`` flows through with no code change here.
    Call it with a *delta* (``metrics.delta_since(snapshot)``) to
    record one batch, or with run totals at the end of a stream.
    """
    if not is_dataclass(metrics):
        raise TypeError("ingest_engine_metrics expects a dataclass")
    registry = registry if registry is not None else get_registry()
    for field_info in fields(metrics):
        value = getattr(metrics, field_info.name)
        if isinstance(value, dict):
            for key, amount in value.items():
                registry.counter(
                    f"{engine}.{field_info.name}.{key}"
                ).inc(max(amount, 0))
        else:
            registry.counter(f"{engine}.{field_info.name}").inc(
                max(value, 0)
            )
