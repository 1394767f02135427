"""Smoke test of the benchmark itself (not part of tier-1).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Every workload runs at scale 9 with 14 batches, untraced and traced, in
this process; the test pins that every metric name of the vocabulary is
emitted on each workload it is defined on -- once, finite -- that no
operation failed, and that ``BENCHMARK.json`` agrees with the vocabulary.
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from layers import end_to_end  # noqa: E402
from vocabulary import (  # noqa: E402
    ALL,
    BY_NAME,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    defined_on,
)
from workloads import Samples  # noqa: E402

SMOKE = dict(seed=1, batches=14, scale=9)


def test_ref_metrics_cancel_a_slow_spell():
    """The second iteration ran while the machine was half as fast."""
    samples = Samples(batch_s=[1.0, 2.0, 1.0], loop_s=[2.0, 4.0, 2.0],
                      fresh_s=[3.0, 3.0], reference_s=[0.1, 0.2, 0.1],
                      mutations=60)
    values = end_to_end(samples, setup_s=1.0, peak_rss_bytes=1)
    assert values["batch_latency_p50_ref"] == pytest.approx(10.0)
    assert values["mutations_per_ref"] == pytest.approx(1.0)
    assert values["freshness_p50_ref"] == pytest.approx(30.0)
    assert values["mutations_per_s"] == pytest.approx(7.5)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    payload = run.run_workload(name, trace=False, **SMOKE)
    expected = [m.name for m in defined_on(END_TO_END, name)]
    assert list(payload["end_to_end"]) == expected
    for metric, value in payload["end_to_end"].items():
        assert math.isfinite(value) and value > 0, (metric, value)
        assert BY_NAME[metric].unit
    assert payload["ops_attempted"] > 0
    assert payload["ops_failed"] == 0, payload["failures"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    payload = run.run_workload(name, trace=True, **SMOKE)
    expected = [m.name for m in defined_on(PER_LAYER, name)]
    assert list(payload["per_layer"]) == expected
    for metric, value in payload["per_layer"].items():
        assert math.isfinite(value), (metric, value)
        assert BY_NAME[metric].unit
    assert payload["ops_failed"] == 0, payload["failures"]
    assert payload["spans"]["dropped"] == 0
    assert payload["per_layer"]["obs.unattributed_share"] <= 0.15
    if WORKLOADS[name].kills:
        assert payload["per_layer"]["recovery.replayed_batches"] == 5


def test_exact_metrics_repeat_under_one_seed():
    first = run.run_workload("serving_ingest", trace=True, **SMOKE)
    second = run.run_workload("serving_ingest", trace=True, **SMOKE)
    assert first["exact"] == second["exact"]
    assert first["values_crc32"] == second["values_crc32"]


def test_driver_contract_agrees_with_the_vocabulary():
    contract = run.driver_contract()
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for entry in contract["end_to_end"]:
        metric = BY_NAME[entry["name"]]
        assert metric in END_TO_END
        # The driver reads every end-to-end metric on every workload.
        assert metric.workloads == ALL, entry["name"]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound)
    for entry in contract["per_layer"]:
        metric = BY_NAME[entry["name"]]   # a layer or a diagnostic
        assert (entry["unit"], entry["better"]) == (
            metric.unit, metric.better)
        # A layer absent from a workload reads a constant 0 there, which
        # the driver would take for a faked timing.
        assert metric.unit != "s" or metric.workloads == ALL, entry["name"]
    assert contract["paths"] == [os.path.relpath(HERE, run.REPO)]


def test_contract_line_carries_exactly_the_listed_metrics():
    contract = run.driver_contract()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        payload = run.run_workload("engine_small_batch", trace=trace,
                                   **SMOKE)
        line = json.loads(run.contract_line(payload))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [
            entry["name"] for entry in contract[section]]
        assert line["correct"] is True and line["failed"] == 0
