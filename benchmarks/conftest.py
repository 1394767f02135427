"""Shared helpers for the benchmark suite.

Every ``test_bench_*`` module drives one paper table/figure -- the
engine grids through their run table under ``benchmarks/matrices/``
and its reducer, the rest through their ``experiment_*`` driver in
:mod:`repro.bench.experiments` -- asserts the paper's qualitative
claims on the measured payload, and persists the payload under
``benchmarks/results/`` for EXPERIMENTS.md.

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_experiment(benchmark):
    """Benchmark an experiment driver once and return its payload."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(
            lambda: fn(*args, **kwargs), rounds=1, iterations=1
        )

    return runner
