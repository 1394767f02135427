"""Perf-trajectory regression gate over ``BENCH_*.json`` payloads.

The gate compares a freshly produced matrix payload
(:func:`repro.bench.matrix.run_matrix`) against the committed baseline
for the same area (``benchmarks/baselines/BENCH_<area>.json``) and
renders a precise per-cell report:

- **work metrics** (edge/vertex computations) are deterministic given
  the same config, so any growth beyond ``work_threshold`` is a real
  regression of the hot path, not noise;
- wall clock is not gated here: payloads still record it under
  ``timing``, but ``benchmarks/e2e`` owns every wall-clock verdict;
- runs whose ``config_hash`` changed are flagged ``changed`` and
  excluded from pass/fail -- a renamed or re-parameterised cell resets
  its own trajectory instead of tripping the gate.

``report`` mode (the default) never fails the build; ``enforce`` mode
turns any surviving regression into a non-zero exit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.matrix import payload_filename, validate_payload
from repro.bench.reporting import format_table

__all__ = [
    "GateThresholds",
    "CellVerdict",
    "GateReport",
    "GATE_MODES",
    "baselines_dir",
    "load_baseline",
    "save_baseline",
    "compare_payloads",
    "run_gate",
]

GATE_MODES = ("off", "report", "enforce")

#: Work metrics gated per run (deterministic; present in engine mode).
#: ``stream_edge_computations`` excludes the initial run, so a
#: refinement regression is not diluted by it; baselines that predate
#: the column skip it.
WORK_METRICS = ("edge_computations", "stream_edge_computations",
                "vertex_computations")


@dataclass(frozen=True)
class GateThresholds:
    """Relative growth of a deterministic work counter tolerated
    before a cell regresses."""

    work: float = 0.05

    @classmethod
    def from_table(cls, gate_config: Dict) -> "GateThresholds":
        return cls(work=float(gate_config.get("work_threshold", cls.work)))


@dataclass(frozen=True)
class CellVerdict:
    """One (run, metric) comparison."""

    run_id: str
    metric: str
    baseline: float
    current: float
    #: current / baseline; 1.0 when the baseline is zero and so is the
    #: current value, +inf when only the baseline is zero.
    ratio: float
    #: ok | regressed | improved | new | missing | changed
    status: str

    def row(self) -> List:
        def cell(value, digits=None):
            if math.isnan(value) or math.isinf(value):
                return "-"
            return round(value, digits) if digits else value

        return [
            self.run_id, self.metric,
            cell(self.baseline), cell(self.current),
            cell(self.ratio, digits=3),
            self.status.upper() if self.status == "regressed"
            else self.status,
        ]


@dataclass
class GateReport:
    """The gate's full per-cell output plus the verdict."""

    area: str
    mode: str
    thresholds: GateThresholds
    cells: List[CellVerdict] = field(default_factory=list)
    baseline_path: Optional[str] = None

    @property
    def regressions(self) -> List[CellVerdict]:
        return [cell for cell in self.cells
                if cell.status == "regressed"]

    @property
    def ok(self) -> bool:
        """Pass/fail verdict: fails only in enforce mode with at least
        one regressed cell."""
        if self.mode != "enforce":
            return True
        return not self.regressions

    def format(self) -> str:
        title = (
            f"perf gate [{self.area}] mode={self.mode} "
            f"(work>{self.thresholds.work:+.0%} regress)"
        )
        rows = [cell.row() for cell in self.cells]
        table = format_table(
            ["Run", "Metric", "Baseline", "Current", "Ratio", "Status"],
            rows, title=title,
        )
        verdict = ("PASS" if not self.regressions else
                   f"{len(self.regressions)} regression(s)"
                   + ("" if self.mode == "enforce"
                      else " [report-only]"))
        return f"{table}\nverdict: {verdict}"


def baselines_dir() -> str:
    """``benchmarks/baselines/`` at the repository root."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )))
    return os.path.join(here, "benchmarks", "baselines")


def load_baseline(area: str,
                  directory: Optional[str] = None) -> Optional[Dict]:
    """The committed baseline payload for an area, or None."""
    directory = directory if directory is not None else baselines_dir()
    path = os.path.join(directory, payload_filename(area))
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def save_baseline(payload: Dict,
                  directory: Optional[str] = None) -> str:
    """Write (refresh) the committed baseline for a payload's area."""
    validate_payload(payload)
    directory = directory if directory is not None else baselines_dir()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, payload_filename(payload["area"]))
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _lookup(metric: str, run: Dict) -> Optional[float]:
    """A gated ``work`` counter of a run, or None where it is absent."""
    value = run["work"].get(metric)
    return float(value) if isinstance(value, (int, float)) else None


def _ratio(baseline: float, current: float) -> float:
    if baseline == 0.0:
        return 1.0 if current == 0.0 else float("inf")
    return current / baseline


def compare_payloads(baseline: Dict, current: Dict,
                     thresholds: GateThresholds,
                     mode: str = "report") -> GateReport:
    """Cell-by-cell comparison of two payloads for the same area."""
    if mode not in GATE_MODES:
        raise ValueError(f"mode must be one of {GATE_MODES}")
    if baseline["area"] != current["area"]:
        raise ValueError(
            f"area mismatch: baseline {baseline['area']!r} vs "
            f"current {current['area']!r}"
        )
    report = GateReport(area=current["area"], mode=mode,
                        thresholds=thresholds)
    nan = float("nan")
    baseline_runs = {run["id"]: run for run in baseline["runs"]}
    current_runs = {run["id"]: run for run in current["runs"]}
    for run_id, run in current_runs.items():
        base = baseline_runs.get(run_id)
        if base is None:
            report.cells.append(CellVerdict(run_id, "-", nan, nan, nan,
                                            "new"))
            continue
        if base["config_hash"] != run["config_hash"]:
            report.cells.append(CellVerdict(run_id, "config", nan, nan,
                                            nan, "changed"))
            continue
        for metric in WORK_METRICS:
            base_value = _lookup(metric, base)
            new_value = _lookup(metric, run)
            if base_value is None or new_value is None:
                continue
            ratio = _ratio(base_value, new_value)
            if ratio > 1.0 + thresholds.work:
                status = "regressed"
            elif ratio < 1.0 - thresholds.work:
                status = "improved"
            else:
                status = "ok"
            report.cells.append(
                CellVerdict(run_id, metric, base_value, new_value,
                            ratio, status)
            )
    for run_id in baseline_runs:
        if run_id not in current_runs:
            report.cells.append(CellVerdict(run_id, "-", nan, nan, nan,
                                            "missing"))
    return report


def run_gate(current: Dict, mode: str = "report",
             baseline_directory: Optional[str] = None
             ) -> Optional[GateReport]:
    """Gate a fresh payload against its committed baseline.

    The thresholds are the payload's own ``gate`` table.  Returns
    ``None`` (with no verdict) when the area has no baseline yet -- the
    first landing of a new area starts its trajectory rather than
    failing it.
    """
    if mode == "off":
        return None
    validate_payload(current)
    baseline = load_baseline(current["area"], baseline_directory)
    if baseline is None:
        return None
    report = compare_payloads(
        baseline, current, GateThresholds.from_table(current.get("gate", {})),
        mode)
    directory = (baseline_directory if baseline_directory is not None
                 else baselines_dir())
    report.baseline_path = os.path.join(
        directory, payload_filename(current["area"]))
    return report
