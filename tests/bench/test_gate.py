"""Tests for the perf-trajectory regression gate.

The centrepiece is the plant-a-regression self-test: inject a slowdown
into a copy of a real payload and prove the gate trips in enforce mode,
stays advisory in report mode, and stays quiet on noise inside the
thresholds.
"""

import copy
import json
import os

import pytest

from repro.bench.gate import (
    GateThresholds,
    compare_payloads,
    load_baseline,
    run_gate,
    save_baseline,
)
from repro.bench.matrix import load_table, run_matrix


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    path = tmp_path_factory.mktemp("gate") / "tiny.yaml"
    path.write_text("""
schema: 1
area: gated
axes:
  engine: [gbreset, graphbolt]
fixed:
  topology: rmat
  scale: 5
  algorithm: PR
  scenario: uniform
  batch_size: 5
  num_batches: 2
  iterations: 4
  seed: 4
gate:
  work_threshold: 0.05
""")
    return run_matrix(load_table(str(path)))


THRESHOLDS = GateThresholds(work=0.05)


def planted(payload, metric, factor, run_index=0):
    """A copy of ``payload`` with one cell's work counter scaled by
    ``factor``."""
    slow = copy.deepcopy(payload)
    run = slow["runs"][run_index]
    run["work"][metric] = int(run["work"][metric] * factor)
    return slow


class TestPlantARegression:
    def test_work_regression_trips_enforce(self, payload):
        slow = planted(payload, "edge_computations", 1.25)
        report = compare_payloads(payload, slow, THRESHOLDS,
                                  mode="enforce")
        assert not report.ok
        assert [cell.metric for cell in report.regressions] == [
            "edge_computations"]
        assert report.regressions[0].ratio == pytest.approx(1.25)

    def test_wall_clock_is_not_gated(self, payload):
        slow = copy.deepcopy(payload)
        slow["runs"][0]["timing"]["wall_seconds"]["total"] *= 100.0
        report = compare_payloads(payload, slow, THRESHOLDS,
                                  mode="enforce")
        assert report.ok
        assert all(cell.status == "ok" for cell in report.cells)

    def test_noise_within_threshold_stays_quiet(self, payload):
        # +3% work is inside the threshold.
        noisy = planted(payload, "edge_computations", 1.03)
        noisy = planted(noisy, "vertex_computations", 1.03, run_index=1)
        report = compare_payloads(payload, noisy, THRESHOLDS,
                                  mode="enforce")
        assert report.ok
        assert not report.regressions
        assert all(cell.status in ("ok", "improved")
                   for cell in report.cells)

    def test_report_mode_never_fails(self, payload):
        slow = planted(payload, "edge_computations", 2.0)
        report = compare_payloads(payload, slow, THRESHOLDS,
                                  mode="report")
        assert report.regressions
        assert report.ok  # advisory only
        assert "[report-only]" in report.format()

    def test_improvement_flagged_not_failed(self, payload):
        fast = planted(payload, "edge_computations", 0.5)
        report = compare_payloads(payload, fast, THRESHOLDS,
                                  mode="enforce")
        assert report.ok
        assert any(cell.status == "improved" for cell in report.cells)

    def test_identical_payloads_pass(self, payload):
        report = compare_payloads(payload, copy.deepcopy(payload),
                                  THRESHOLDS, mode="enforce")
        assert report.ok
        assert "verdict: PASS" in report.format()


class TestCellBookkeeping:
    def test_new_and_missing_runs_flagged(self, payload):
        current = copy.deepcopy(payload)
        renamed = current["runs"][0]
        renamed["id"] = "somewhere/else"
        report = compare_payloads(payload, current, THRESHOLDS,
                                  mode="enforce")
        statuses = {cell.status for cell in report.cells}
        assert "new" in statuses and "missing" in statuses
        assert report.ok  # churn is visible but not a perf failure

    def test_changed_config_excluded_from_comparison(self, payload):
        current = copy.deepcopy(payload)
        current["runs"][0]["config_hash"] = "f" * 16
        current["runs"][0]["work"]["edge_computations"] *= 100
        report = compare_payloads(payload, current, THRESHOLDS,
                                  mode="enforce")
        run_id = current["runs"][0]["id"]
        cells = [cell for cell in report.cells if cell.run_id == run_id]
        assert [cell.status for cell in cells] == ["changed"]
        assert report.ok

    def test_area_mismatch_rejected(self, payload):
        other = copy.deepcopy(payload)
        other["area"] = "elsewhere"
        with pytest.raises(ValueError, match="area mismatch"):
            compare_payloads(payload, other, THRESHOLDS)


class TestRunGate:
    def test_no_baseline_starts_trajectory(self, payload, tmp_path):
        assert run_gate(payload, mode="report",
                        baseline_directory=str(tmp_path)) is None

    def test_off_mode_skips(self, payload, tmp_path):
        save_baseline(payload, str(tmp_path))
        assert run_gate(payload, mode="off",
                        baseline_directory=str(tmp_path)) is None

    def test_round_trip_and_thresholds_from_payload(self, payload,
                                                    tmp_path):
        path = save_baseline(payload, str(tmp_path))
        assert os.path.basename(path) == "BENCH_gated.json"
        with open(path) as handle:
            assert json.load(handle) == load_baseline(
                "gated", str(tmp_path))
        slow = planted(payload, "edge_computations", 1.25)
        report = run_gate(slow, mode="enforce",
                          baseline_directory=str(tmp_path))
        # Thresholds came from the payload's own gate section.
        assert report.thresholds == THRESHOLDS
        assert not report.ok
        assert report.baseline_path == path

    def test_gate_against_committed_baseline_area(self, payload,
                                                  tmp_path):
        # A committed baseline gates a byte-identical rerun as PASS.
        save_baseline(payload, str(tmp_path))
        report = run_gate(copy.deepcopy(payload), mode="enforce",
                          baseline_directory=str(tmp_path))
        assert report is not None and report.ok
