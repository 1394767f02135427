"""Failure minimisation: shrink a diverging workload to its essence.

Given a workload the oracle rejects, the shrinker searches for the
smallest graph and the shortest mutation prefix that still diverge,
using a delta-debugging loop over four reduction passes:

1. **schedule truncation** -- keep only the prefix up to the first
   failing batch;
2. **batch thinning** -- drop individual additions/deletions (and the
   ``grow_to`` marker) from each remaining batch;
3. **vertex removal** -- delete a vertex outright, remapping higher ids
   down, dropping every edge and mutation that touched it;
4. **edge thinning** -- drop initial-snapshot edges.

Each candidate reduction is re-checked with the caller's failure
predicate, so the output is guaranteed to still fail.  The result can be
rendered as a ready-to-paste pytest module with :func:`to_pytest`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.graph.mutation import MutationBatch
from repro.testing.workloads import Workload

__all__ = ["ShrinkResult", "shrink", "to_pytest"]

Edge = Tuple[int, int, float]
Pair = Tuple[int, int]

#: Failure-predicate checks one :func:`shrink` may spend.
MAX_CHECKS = 300


class _BudgetExhausted(Exception):
    pass


@dataclass
class ShrinkResult:
    workload: Workload
    checks: int
    #: True when the budget ran out before the reduction reached a
    #: fixpoint (the workload is still failing, just maybe not minimal).
    exhausted: bool = False


@dataclass
class _BatchSpec:
    """A mutable, shrinkable view of one MutationBatch."""

    additions: List[Edge]
    deletions: List[Pair]
    grow_to: Optional[int]

    @classmethod
    def of(cls, batch: MutationBatch) -> "_BatchSpec":
        return cls(
            additions=list(batch.additions()),
            deletions=list(batch.deletions()),
            grow_to=batch.grow_to,
        )

    def build(self) -> MutationBatch:
        return MutationBatch.from_edges(
            additions=[(u, v) for u, v, _ in self.additions],
            deletions=list(self.deletions),
            add_weights=[w for _, _, w in self.additions],
            grow_to=self.grow_to,
        )


def _rebuild(workload: Workload, specs: Sequence[_BatchSpec]) -> Workload:
    return workload.with_schedule(
        [spec.build() for spec in specs],
        kinds=workload.kinds[: len(specs)],
    )


def _ddmin(items: list, still_failing: Callable[[list], bool]) -> list:
    """Greedy chunked minimisation of one list."""
    chunk = max(1, len(items) // 2)
    while items:
        index = 0
        shrunk = False
        while index < len(items):
            candidate = items[:index] + items[index + chunk:]
            if still_failing(candidate):
                items = candidate
                shrunk = True
            else:
                index += chunk
        if chunk == 1 and not shrunk:
            break
        chunk = max(1, chunk // 2)
    return items


def _drop_vertex(workload: Workload, vertex: int) -> Optional[Workload]:
    """Remove one vertex, remapping every id above it down by one."""
    if workload.num_vertices <= 1:
        return None

    def remap(v: int) -> int:
        return v - 1 if v > vertex else v

    edges = [
        (remap(u), remap(v), w)
        for u, v, w in workload.edges
        if u != vertex and v != vertex
    ]
    schedule = []
    for batch in workload.schedule:
        adds = [
            (remap(u), remap(v), w)
            for u, v, w in batch.additions()
            if u != vertex and v != vertex
        ]
        dels = [
            (remap(u), remap(v))
            for u, v in batch.deletions()
            if u != vertex and v != vertex
        ]
        grow_to = batch.grow_to
        if grow_to is not None and vertex < grow_to:
            grow_to -= 1
        schedule.append(MutationBatch.from_edges(
            additions=[(u, v) for u, v, _ in adds],
            deletions=dels,
            add_weights=[w for _, _, w in adds],
            grow_to=grow_to,
        ))
    return replace(
        workload,
        num_vertices=workload.num_vertices - 1,
        edges=edges,
        schedule=schedule,
    )


def _tight_vertex_count(workload: Workload) -> Optional[Workload]:
    """Drop trailing never-referenced vertex ids in one step."""
    highest = -1
    for u, v, _ in workload.edges:
        highest = max(highest, u, v)
    for batch in workload.schedule:
        highest = max(highest, batch.max_vertex())
    tight = highest + 1
    if 0 < tight < workload.num_vertices:
        return replace(workload, num_vertices=tight)
    return None


def shrink(
    workload: Workload,
    is_failing: Callable[[Workload], bool],
) -> ShrinkResult:
    """Minimise a failing workload; ``is_failing`` must be ``True`` for
    the input and stays ``True`` for the returned workload."""
    if not is_failing(workload):
        raise ValueError("shrink() needs a failing workload to start from")
    checks = 0

    def failing(candidate: Workload) -> bool:
        nonlocal checks
        if checks >= MAX_CHECKS:
            raise _BudgetExhausted
        checks += 1
        return is_failing(candidate)

    best = workload
    try:
        # Pass 1: shortest failing schedule prefix.
        for length in range(len(best.schedule) + 1):
            candidate = best.with_schedule(best.schedule[:length])
            if failing(candidate):
                best = candidate
                break

        progress = True
        while progress:
            progress = False

            # Pass 2: thin each batch's additions/deletions/growth.
            specs = [_BatchSpec.of(batch) for batch in best.schedule]
            for spec in specs:
                def rebuild_with(adds=None, dels=None):
                    saved = spec.additions, spec.deletions
                    if adds is not None:
                        spec.additions = adds
                    if dels is not None:
                        spec.deletions = dels
                    candidate = _rebuild(best, specs)
                    spec.additions, spec.deletions = saved
                    return candidate

                before = (len(spec.additions), len(spec.deletions),
                          spec.grow_to)
                spec.additions = _ddmin(
                    spec.additions,
                    lambda adds: failing(rebuild_with(adds=adds)),
                )
                spec.deletions = _ddmin(
                    spec.deletions,
                    lambda dels: failing(rebuild_with(dels=dels)),
                )
                if spec.grow_to is not None:
                    saved_grow = spec.grow_to
                    spec.grow_to = None
                    if not failing(_rebuild(best, specs)):
                        spec.grow_to = saved_grow
                if before != (len(spec.additions), len(spec.deletions),
                              spec.grow_to):
                    progress = True
            best = _rebuild(best, specs)

            # Pass 3: remove vertices, highest id first.
            vertex = best.num_vertices - 1
            while vertex > 0:
                candidate = _drop_vertex(best, vertex)
                if candidate is not None and failing(candidate):
                    best = candidate
                    progress = True
                vertex -= 1
            tight = _tight_vertex_count(best)
            if tight is not None and failing(tight):
                best = tight
                progress = True

            # Pass 4: thin the initial edge list.
            def edges_failing(edges: List[Edge]) -> bool:
                return failing(replace(best, edges=edges))

            thinned = _ddmin(list(best.edges), edges_failing)
            if len(thinned) < len(best.edges):
                best = replace(best, edges=thinned)
                progress = True
    except _BudgetExhausted:
        return ShrinkResult(workload=best, checks=checks, exhausted=True)
    return ShrinkResult(workload=best, checks=checks, exhausted=False)


# ----------------------------------------------------------------------
# Repro emission
# ----------------------------------------------------------------------
def _batch_source(batch: MutationBatch, indent: str) -> str:
    parts = []
    additions = list(batch.additions())
    if additions:
        parts.append(
            "additions=" + repr([(u, v) for u, v, _ in additions])
        )
        parts.append(
            "add_weights=" + repr([w for _, _, w in additions])
        )
    deletions = list(batch.deletions())
    if deletions:
        parts.append("deletions=" + repr(deletions))
    if batch.grow_to is not None:
        parts.append(f"grow_to={batch.grow_to}")
    inner = (",\n" + indent + "    ").join(parts)
    if not parts:
        return indent + "MutationBatch.empty(),"
    return (
        f"{indent}MutationBatch.from_edges(\n{indent}    {inner},\n"
        f"{indent}),"
    )


def to_pytest(
    workload: Workload,
    engines: Optional[Sequence[str]] = None,
    include_naive: bool = False,
    expect_divergence: bool = False,
) -> str:
    """Render a workload as a standalone pytest regression test.

    ``expect_divergence`` inverts the assertion (used when committing a
    plant-a-bug repro that *documents* a known-bad strategy).
    """
    lines = [
        '"""Auto-generated regression test (repro.testing.shrinker).',
        "",
        f"Fuzz seed {workload.seed}, algorithm {workload.algorithm}.",
        'Regenerate context with: python -m repro fuzz --seed '
        f'{workload.seed} --workloads 1',
        '"""',
        "",
        "from repro.graph.mutation import MutationBatch",
        "from repro.testing.oracle import check_workload",
        "from repro.testing.workloads import Workload",
        "",
        "",
        f"def test_fuzz_seed_{workload.seed}_{workload.algorithm.replace('-', '_')}():",
        "    workload = Workload(",
        f"        seed={workload.seed},",
        f"        algorithm={workload.algorithm!r},",
        f"        num_vertices={workload.num_vertices},",
        f"        edges={workload.edges!r},",
        "        schedule=[",
    ]
    for batch in workload.schedule:
        lines.append(_batch_source(batch, " " * 12))
    call_args = ["workload"]
    if engines:
        call_args.append(f"engines={list(engines)!r}")
    if include_naive:
        call_args.append("include_naive=True")
    lines += [
        "        ],",
        "    )",
        f"    report = check_workload({', '.join(call_args)})",
    ]
    if expect_divergence:
        lines.append(
            "    assert not report.ok, 'expected the planted divergence'"
        )
    else:
        lines += [
            "    assert report.ok, \"\\n\".join(",
            "        str(d) for d in report.divergences",
            "    )",
        ]
    return "\n".join(lines) + "\n"
