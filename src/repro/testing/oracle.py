"""The cross-engine equivalence oracle.

Drives one workload's mutation schedule through every applicable engine
simultaneously and checks, after the initial run and after every batch,
that all engines agree with the reference -- a from-scratch synchronous
execution on the mutated snapshot, exactly the validation the paper runs
for each experiment (section 5.1).  Comparison is the relative-error
test of :mod:`repro.runtime.validation` with non-finite values compared
by mask (two ``inf`` distances agree; ``inf`` versus finite diverges).

Beyond value equivalence the oracle cross-checks
:class:`~repro.runtime.metrics.EngineMetrics` sanity: on a stabilised
workload (an empty mutation batch -- nothing changed), dependency-driven
refinement must never perform *more* edge computations than the restart
baseline, which recomputes everything.  A refinement engine that does
redundant work on a no-op batch has lost the paper's central property
even if its answers are right.

Engines come from the one registry, :data:`repro.bench.harness.ENGINES`;
:func:`available_engines` / :func:`build_runner` add only what the
registry cannot know -- which engines one workload's algorithm profile
admits, and how the profile parameterises them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.registry import AlgorithmSpec
from repro.bench.harness import ENGINES, TABLE5_ENGINES, StreamingRunner
from repro.core.model import any_per_row
from repro.runtime.validation import relative_errors
from repro.testing.workloads import Workload

__all__ = [
    "REFERENCE_ENGINE",
    "Divergence",
    "WorkloadReport",
    "available_engines",
    "build_runner",
    "check_workload",
    "compare_snapshots",
]

#: The engine whose output is the oracle's ground truth: a from-scratch
#: synchronous run on each mutated snapshot (paper section 5.1).
REFERENCE_ENGINE = "ligra"

#: Differential dataflow unrolls one stage per possible hop, so gate it
#: to graphs where that stays affordable.
DATAFLOW_MAX_VERTICES = 40


def available_engines(profile: AlgorithmSpec,
                      num_vertices: int,
                      include_naive: bool = False) -> List[str]:
    """Engine keys applicable to one workload, reference first."""
    engines = list(TABLE5_ENGINES)
    if include_naive:
        engines.append("naive")
    if profile.kickstarter is not None:
        engines.append("kickstarter")
    if profile.dataflow == "sssp" and num_vertices <= DATAFLOW_MAX_VERTICES:
        engines.append("dataflow")
    return engines


def build_runner(engine: str, profile: AlgorithmSpec) -> StreamingRunner:
    """Instantiate one registered engine for one workload's algorithm
    profile."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    extra = {}
    if engine == "kickstarter":
        if profile.kickstarter is None:
            raise ValueError(
                f"{profile.name} has no KickStarter formulation"
            )
        extra["unit_weights"] = profile.kickstarter == "unit"
    if engine == "dataflow" and profile.dataflow != "sssp":
        raise ValueError(f"{profile.name} has no dataflow program")
    return ENGINES[engine](profile.factory, profile.num_iterations, **extra)


@dataclass
class Divergence:
    """One engine disagreeing with the reference at one point in time."""

    engine: str
    #: Schedule position: -1 is the initial run, k >= 0 is batch k.
    batch_index: int
    #: ``values`` | ``shape`` | ``finite-mask`` | ``work`` | ``crash``
    kind: str
    detail: str
    max_error: float = 0.0

    def __str__(self) -> str:
        where = ("initial run" if self.batch_index < 0
                 else f"batch {self.batch_index}")
        return f"[{self.engine} @ {where}] {self.kind}: {self.detail}"


@dataclass
class WorkloadReport:
    """Everything the oracle observed for one workload."""

    workload: Workload
    engines: List[str]
    divergences: List[Divergence] = field(default_factory=list)
    batches_checked: int = 0
    #: Per-engine edge computations for each batch (index aligned with
    #: the schedule; entry 0 covers the initial run).
    edge_work: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.divergences)} divergence(s)"
        return (
            f"{self.workload.describe()} x {len(self.engines)} engines "
            f"-> {status}"
        )


def compare_snapshots(
    actual, expected, tolerance: float
) -> Optional[Tuple[str, str, float]]:
    """Compare one engine's snapshot against the reference.

    Returns ``None`` on agreement, else ``(kind, detail, max_error)``.
    Non-finite entries (unreachable distances, poisoned values) must
    occupy identical positions; finite entries are compared by relative
    error.
    """
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return ("shape", f"shape {actual.shape} vs {expected.shape}", 0.0)
    finite_a = np.isfinite(actual)
    finite_e = np.isfinite(expected)
    if not np.array_equal(finite_a, finite_e):
        vertex = int(np.argmax(any_per_row(finite_a != finite_e)))
        return (
            "finite-mask",
            f"non-finite values differ at vertex {vertex} "
            f"(actual={actual[vertex]}, expected={expected[vertex]})",
            float("inf"),
        )
    filled_a = np.where(finite_a, actual, 0.0)
    filled_e = np.where(finite_e, expected, 0.0)
    errors = relative_errors(filled_a, filled_e)
    worst = float(errors.max()) if errors.size else 0.0
    if worst > tolerance:
        vertex = int(np.argmax(errors))
        return (
            "values",
            f"max relative error {worst:.3e} at vertex {vertex} "
            f"exceeds tolerance {tolerance:.1e}",
            worst,
        )
    return None


def _is_stabilised(batch) -> bool:
    """A batch after which the graph is unchanged (work-sanity point)."""
    return len(batch) == 0 and batch.grow_to is None


def check_workload(
    workload: Workload,
    engines: Optional[Sequence[str]] = None,
    include_naive: bool = False,
    stop_at_first: bool = False,
) -> WorkloadReport:
    """Run one workload through all engines and collect divergences.

    ``engines`` overrides the automatic selection (reference engine is
    always added); ``include_naive`` adds the deliberately broken
    strategy for harness self-tests; ``stop_at_first`` returns at the
    first divergence (the shrinker's fast path).
    """
    profile = workload.profile
    if engines is None:
        engines = available_engines(profile, workload.num_vertices,
                                    include_naive=include_naive)
    engines = list(engines)
    if REFERENCE_ENGINE not in engines:
        engines.insert(0, REFERENCE_ENGINE)

    report = WorkloadReport(workload=workload, engines=engines)
    graph = workload.build_graph()
    runners = {}
    values: Dict[str, Optional[np.ndarray]] = {}
    dead = set()
    for engine in engines:
        runners[engine] = build_runner(engine, profile)
        report.edge_work[engine] = []

    def step(apply_fn, batch_index: int) -> None:
        for engine in engines:
            if engine in dead:
                continue
            runner = runners[engine]
            before = runner.metrics.snapshot()
            try:
                values[engine] = np.asarray(apply_fn(runner),
                                            dtype=np.float64)
            except Exception as exc:  # noqa: BLE001 -- crashes are findings
                report.divergences.append(Divergence(
                    engine=engine, batch_index=batch_index, kind="crash",
                    detail=f"{type(exc).__name__}: {exc}",
                ))
                dead.add(engine)
                values[engine] = None
                continue
            delta = runner.metrics.delta_since(before)
            report.edge_work[engine].append(delta.edge_computations)

    def judge(batch_index: int, stabilised: bool) -> None:
        reference = values.get(REFERENCE_ENGINE)
        if reference is None:
            return
        for engine in engines:
            if engine == REFERENCE_ENGINE or engine in dead:
                continue
            verdict = compare_snapshots(values[engine], reference,
                                        profile.tolerance)
            if verdict is not None:
                kind, detail, max_error = verdict
                report.divergences.append(Divergence(
                    engine=engine, batch_index=batch_index, kind=kind,
                    detail=detail, max_error=max_error,
                ))
        if stabilised and "graphbolt" not in dead:
            refined = report.edge_work["graphbolt"][-1]
            restart = report.edge_work[REFERENCE_ENGINE][-1]
            if refined > restart:
                report.divergences.append(Divergence(
                    engine="graphbolt", batch_index=batch_index,
                    kind="work",
                    detail=(
                        f"refinement processed {refined} edges on a "
                        f"stabilised (empty) batch; restart needed only "
                        f"{restart}"
                    ),
                ))

    step(lambda runner: runner.setup(graph), batch_index=-1)
    judge(batch_index=-1, stabilised=False)
    if stop_at_first and report.divergences:
        return report

    for index, batch in enumerate(workload.schedule):
        step(lambda runner: runner.apply(batch), batch_index=index)
        judge(batch_index=index, stabilised=_is_stabilised(batch))
        report.batches_checked += 1
        if stop_at_first and report.divergences:
            break
    return report
