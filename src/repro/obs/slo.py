"""Declarative SLOs with deterministic multi-window burn-rate alerts.

An :class:`SLO` states an objective over one named *signal* of the
serving surface -- ``ingest_latency < 0.75``, ``queue_depth <= 6`` --
plus an error budget: the fraction of observations allowed to violate
the objective.  The :class:`SLOEvaluator` consumes one sample mapping
per applied batch (a *tick*) and tracks, per SLO, the violating
fraction over two sliding windows in the Google-SRE multi-window
burn-rate style:

- the **fast** window catches a sharp burn quickly (the "5m" window of
  the SRE workbook);
- the **slow** window confirms it is sustained, filtering one-batch
  blips (the "1h" window).

Both windows are expressed in *batch counts*, never wall-clock, so the
same sample sequence always produces the same alert sequence -- the
alert index of a planted fault is an exact-match test, not a sleep-and-
hope one.  The burn rate is ``violating_fraction / budget``: burn 1.0
spends the budget exactly at the sustainable rate, burn 6.0 spends it
six times too fast.  An alert **fires** when *both* windows exceed
their thresholds and **resolves** when the fast window falls back
under its threshold.

Alerts are first-class records: journaled (``{"type": "alert", ...}``),
surfaced as registry gauges (``slo.<name>.fast_burn`` / ``slow_burn`` /
``firing``) and counters (``slo.alerts_fired`` / ``alerts_resolved``),
and kept in order on the evaluator's ``alerts`` list.

SLO files live under ``benchmarks/slos/`` (YAML; see
``docs/observability.md`` for the schema) and are linted in CI via
``repro slo-lint``.
"""

from __future__ import annotations

import os
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Sequence

from repro.obs.registry import get_registry

__all__ = [
    "SIGNALS",
    "SEVERITIES",
    "SLO",
    "SLOError",
    "Alert",
    "SLOEvaluator",
    "slos_dir",
    "resolve_slo_path",
    "load_slo_file",
    "lint_slo_file",
    "lint_slo_dir",
]

#: The signal vocabulary: everything an SLO objective may constrain.
#: Samples are drawn from the health surface and the per-batch
#: measurements of the serving loop (see ``serving/observe.py``).
SIGNALS: Dict[str, str] = {
    "ingest_latency": "seconds the engine spent applying the last batch",
    "query_latency": "seconds of the most recent branch-loop query",
    "queue_depth": "admission queue entries after the batch applied",
    "staleness_batches": "submitted batches not yet reflected in values",
    "degraded_query_ratio": "fraction of served queries that degraded",
    "quarantine_count": "poison batches quarantined so far",
    "breaker_open": "1.0 while the circuit breaker is not CLOSED",
    "replica_staleness": "worst replica backlog of shipped-but-"
                         "unapplied WAL records (dead replicas count)",
}

SEVERITIES = ("page", "ticket")

_OPS = {
    "<": lambda value, bound: value < bound,
    "<=": lambda value, bound: value <= bound,
    ">": lambda value, bound: value > bound,
    ">=": lambda value, bound: value >= bound,
}

_OBJECTIVE_RE = re.compile(
    r"^\s*(<=|>=|<|>)\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*$"
)


class SLOError(ValueError):
    """An SLO definition failed validation."""


@dataclass(frozen=True)
class SLO:
    """One declarative objective with its burn-rate alert policy.

    ``budget`` is the violating fraction allowed in steady state (a
    budget of 0.1 tolerates one bad batch in ten); ``fast_window`` /
    ``slow_window`` are sliding windows in batch counts; ``fast_burn``
    / ``slow_burn`` are the burn-rate thresholds both windows must
    exceed for the alert to fire.  ``runbook`` names the section of
    ``docs/operations.md`` an operator should open first.
    """

    name: str
    signal: str
    op: str
    threshold: float
    budget: float = 0.1
    fast_window: int = 4
    slow_window: int = 16
    fast_burn: float = 5.0
    slow_burn: float = 2.5
    severity: str = "page"
    runbook: str = ""

    def __post_init__(self) -> None:
        if not self.name or not re.fullmatch(r"[a-z0-9][a-z0-9_-]*",
                                             self.name):
            raise SLOError(
                f"SLO name {self.name!r} must be lowercase "
                f"kebab/snake-case"
            )
        if self.signal not in SIGNALS:
            raise SLOError(
                f"SLO {self.name!r}: unknown signal {self.signal!r} "
                f"(choose from {sorted(SIGNALS)})"
            )
        if self.op not in _OPS:
            raise SLOError(
                f"SLO {self.name!r}: op must be one of {sorted(_OPS)}"
            )
        if not 0.0 < self.budget <= 1.0:
            raise SLOError(
                f"SLO {self.name!r}: budget must be in (0, 1], "
                f"got {self.budget!r}"
            )
        if self.fast_window < 1 or self.slow_window < self.fast_window:
            raise SLOError(
                f"SLO {self.name!r}: need 1 <= fast_window <= "
                f"slow_window, got {self.fast_window}/{self.slow_window}"
            )
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise SLOError(
                f"SLO {self.name!r}: burn thresholds must be positive"
            )
        if self.severity not in SEVERITIES:
            raise SLOError(
                f"SLO {self.name!r}: severity must be one of "
                f"{SEVERITIES}, got {self.severity!r}"
            )

    def is_good(self, value: float) -> bool:
        """Does one observation satisfy the objective?"""
        return _OPS[self.op](value, self.threshold)

    @property
    def objective(self) -> str:
        return f"{self.signal} {self.op} {self.threshold:g}"


@dataclass(frozen=True)
class Alert:
    """One alert state change -- a first-class, journalable record."""

    slo: str
    state: str  # "firing" | "resolved"
    severity: str
    index: int  # batch tick at which the transition happened
    fast_burn: float
    slow_burn: float
    signal: str
    value: float  # the sample that tipped the transition
    objective: str = ""
    runbook: str = ""

    def to_record(self) -> Dict:
        return {
            "type": "alert",
            "slo": self.slo,
            "state": self.state,
            "severity": self.severity,
            "index": self.index,
            "fast_burn": round(self.fast_burn, 6),
            "slow_burn": round(self.slow_burn, 6),
            "signal": self.signal,
            "value": round(float(self.value), 6),
            "objective": self.objective,
            "runbook": self.runbook,
        }


@dataclass
class _SLOState:
    """Mutable evaluation state for one SLO."""

    slo: SLO
    flags: Deque[int] = field(default_factory=deque)  # 1 = violating
    firing: bool = False
    ticks_seen: int = 0
    last_value: float = float("nan")

    def __post_init__(self) -> None:
        self.flags = deque(self.flags, maxlen=self.slo.slow_window)

    def burn(self, window: int) -> float:
        if not self.flags:
            return 0.0
        recent = list(self.flags)[-window:]
        return (sum(recent) / len(recent)) / self.slo.budget


class SLOEvaluator:
    """Deterministic per-batch evaluation of a set of SLOs.

    Call :meth:`tick` once per applied batch with a sample mapping
    (signal name -> value).  A tick that lacks an SLO's signal leaves
    that SLO's windows untouched -- "no data" is neither good nor bad.
    Returns the alerts that transitioned on this tick; :attr:`alerts`
    holds every transition so far, in order.
    """

    def __init__(self, slos: Sequence[SLO], journal=None) -> None:
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise SLOError(f"duplicate SLO names in {names}")
        self._states = [_SLOState(slo) for slo in slos]
        self._journal = journal
        self.ticks = 0
        self.alerts: List[Alert] = []

    @property
    def slos(self) -> List[SLO]:
        return [state.slo for state in self._states]

    def tick(self, samples: Mapping[str, float],
             index: Optional[int] = None) -> List[Alert]:
        """Evaluate one batch worth of samples; returns transitions."""
        tick_index = self.ticks if index is None else index
        self.ticks += 1
        registry = get_registry()
        emitted: List[Alert] = []
        for state in self._states:
            slo = state.slo
            if slo.signal not in samples:
                continue
            value = float(samples[slo.signal])
            state.last_value = value
            state.ticks_seen += 1
            state.flags.append(0 if slo.is_good(value) else 1)
            fast = state.burn(slo.fast_window)
            slow = state.burn(slo.slow_window)
            registry.gauge(f"slo.{slo.name}.fast_burn").set(
                round(fast, 6))
            registry.gauge(f"slo.{slo.name}.slow_burn").set(
                round(slow, 6))
            alert: Optional[Alert] = None
            if (not state.firing and fast >= slo.fast_burn
                    and slow >= slo.slow_burn):
                state.firing = True
                registry.counter("slo.alerts_fired").inc()
                alert = self._alert(state, "firing", tick_index, fast,
                                    slow)
            elif state.firing and fast < slo.fast_burn:
                state.firing = False
                registry.counter("slo.alerts_resolved").inc()
                alert = self._alert(state, "resolved", tick_index, fast,
                                    slow)
            registry.gauge(f"slo.{slo.name}.firing").set(
                1 if state.firing else 0)
            if alert is not None:
                emitted.append(alert)
                self.alerts.append(alert)
                if self._journal is not None:
                    self._journal.write(alert.to_record())
        return emitted

    def _alert(self, state: _SLOState, kind: str, index: int,
               fast: float, slow: float) -> Alert:
        slo = state.slo
        return Alert(
            slo=slo.name, state=kind, severity=slo.severity,
            index=index, fast_burn=fast, slow_burn=slow,
            signal=slo.signal, value=state.last_value,
            objective=slo.objective, runbook=slo.runbook,
        )

    @property
    def firing(self) -> List[str]:
        """Names of the SLOs currently in the firing state."""
        return [state.slo.name for state in self._states if state.firing]

    def status(self) -> List[Dict]:
        """One summary row per SLO, for the dashboard and ``--status``."""
        rows = []
        for state in self._states:
            slo = state.slo
            rows.append({
                "name": slo.name,
                "objective": slo.objective,
                "severity": slo.severity,
                "state": "FIRING" if state.firing else (
                    "ok" if state.ticks_seen else "no-data"),
                "fast_burn": round(state.burn(slo.fast_window), 3),
                "slow_burn": round(state.burn(slo.slow_window), 3),
                "last_value": state.last_value,
                "ticks": state.ticks_seen,
                "runbook": slo.runbook,
            })
        return rows


# ----------------------------------------------------------------------
# YAML loading and linting
# ----------------------------------------------------------------------
#: Bump on incompatible changes to the SLO-file layout.
SLO_FILE_SCHEMA = 1

_ENTRY_KEYS = {"name", "signal", "objective", "budget", "windows",
               "burn", "severity", "runbook"}


def slos_dir() -> str:
    """``benchmarks/slos/`` at the repository root."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )))
    return os.path.join(here, "benchmarks", "slos")


def resolve_slo_path(name_or_path: str) -> str:
    """A bare name resolves under ``benchmarks/slos/``."""
    if os.path.sep in name_or_path or name_or_path.endswith(".yaml"):
        return name_or_path
    return os.path.join(slos_dir(), f"{name_or_path}.yaml")


def _parse_entry(raw: Dict, path: str) -> SLO:
    if not isinstance(raw, dict):
        raise SLOError(f"{path}: each SLO entry must be a mapping")
    unknown = set(raw) - _ENTRY_KEYS
    if unknown:
        raise SLOError(
            f"{path}: SLO {raw.get('name', '?')!r} has unknown keys "
            f"{sorted(unknown)} (choose from {sorted(_ENTRY_KEYS)})"
        )
    for key in ("name", "signal", "objective"):
        if key not in raw:
            raise SLOError(
                f"{path}: SLO entry missing required key {key!r}")
    match = _OBJECTIVE_RE.match(str(raw["objective"]))
    if match is None:
        raise SLOError(
            f"{path}: SLO {raw['name']!r} objective "
            f"{raw['objective']!r} must look like '< 0.75'"
        )
    windows = raw.get("windows") or {}
    burn = raw.get("burn") or {}
    if not isinstance(windows, dict) or not isinstance(burn, dict):
        raise SLOError(
            f"{path}: SLO {raw['name']!r}: 'windows' and 'burn' must "
            f"be mappings with 'fast'/'slow' keys"
        )
    kwargs = {}
    if "budget" in raw:
        kwargs["budget"] = float(raw["budget"])
    if "fast" in windows:
        kwargs["fast_window"] = int(windows["fast"])
    if "slow" in windows:
        kwargs["slow_window"] = int(windows["slow"])
    if "fast" in burn:
        kwargs["fast_burn"] = float(burn["fast"])
    if "slow" in burn:
        kwargs["slow_burn"] = float(burn["slow"])
    if "severity" in raw:
        kwargs["severity"] = str(raw["severity"])
    if "runbook" in raw:
        kwargs["runbook"] = str(raw["runbook"])
    return SLO(
        name=str(raw["name"]), signal=str(raw["signal"]),
        op=match.group(1), threshold=float(match.group(2)), **kwargs,
    )


def load_slo_file(name_or_path: str) -> List[SLO]:
    """Parse and validate one SLO YAML file.

    The file is a mapping with ``schema: 1`` and an ``slos:`` list;
    every entry must validate against the signal vocabulary.
    """
    import yaml

    path = resolve_slo_path(name_or_path)
    if not os.path.exists(path):
        raise SLOError(f"SLO file not found: {path}")
    with open(path) as handle:
        raw = yaml.safe_load(handle)
    if not isinstance(raw, dict):
        raise SLOError(f"{path}: SLO file must be a mapping")
    schema = raw.get("schema", SLO_FILE_SCHEMA)
    if schema != SLO_FILE_SCHEMA:
        raise SLOError(
            f"{path}: unsupported schema {schema!r} (this build reads "
            f"schema {SLO_FILE_SCHEMA})"
        )
    entries = raw.get("slos")
    if not isinstance(entries, list) or not entries:
        raise SLOError(f"{path}: 'slos' must be a non-empty list")
    slos = [_parse_entry(entry, path) for entry in entries]
    names = [slo.name for slo in slos]
    if len(set(names)) != len(names):
        raise SLOError(f"{path}: duplicate SLO names")
    return slos


def lint_slo_file(path: str) -> List[str]:
    """Validation errors for one file ([] when clean)."""
    try:
        load_slo_file(path)
    except SLOError as exc:
        return [str(exc)]
    except Exception as exc:  # noqa: BLE001 -- malformed YAML etc.
        return [f"{path}: {type(exc).__name__}: {exc}"]
    return []


def lint_slo_dir(directory: str) -> Dict[str, List[str]]:
    """Lint every ``*.yaml`` under a directory; returns ``{path:
    errors}`` for every file (``[]`` when clean), or the directory's own
    error when it holds no SLO file."""
    paths = [os.path.join(directory, name)
             for name in sorted(os.listdir(directory))
             if name.endswith(".yaml")]
    if not paths:
        return {directory: [f"no SLO files under {directory}"]}
    return {path: lint_slo_file(path) for path in paths}
