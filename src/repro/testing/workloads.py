"""Deterministic adversarial workload generation.

A :class:`Workload` is a fully materialised test case: a concrete initial
edge list, an algorithm profile, and a schedule of concrete
:class:`~repro.graph.mutation.MutationBatch` objects.  Everything is
derived from a single integer seed, so a failing workload is reproduced
by its ``(seed, generation parameters)`` pair alone -- and because the
edges and batches are stored explicitly (not re-derived from the seed),
the shrinker can delete vertices, edges, and mutations freely while the
remainder of the workload stays bit-identical.

The mutation schedules deliberately concentrate on the patterns that
break incremental engines in practice (the adversarial mix that the
paper's per-run validation, section 5.1, is designed to catch):

- ``dense``      -- one batch carrying a large fraction of the edge set;
- ``churn``      -- edges inserted in one batch and deleted in the next;
- ``isolated``   -- vertex growth with no incident edges (``grow_to``);
- ``dirty``      -- duplicate additions, self-loops, deletions of absent
                    edges (stale stream records);
- ``empty``      -- a batch with no mutations at all;
- ``delete_heavy`` -- removal of a large fraction of live edges;
- ``hotspot_storm`` -- every mutation concentrated in one contiguous
                    community block (the adversarial regime of the
                    bench matrix's ``hotspot_storm`` scenario);
- ``uniform``    -- a plain random add/delete mix (the control).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.registry import REGISTRY, AlgorithmSpec
from repro.graph.csr import CSRGraph
from repro.graph.mutation import MutationBatch

__all__ = [
    "FUZZ_ALGORITHMS",
    "BATCH_KINDS",
    "Workload",
    "generate_workload",
]


#: The fuzzer's roster: the registry entries that carry oracle fields.
#: ``generate_workload`` picks by seed from its sorted keys.
FUZZ_ALGORITHMS: Dict[str, AlgorithmSpec] = {
    key: REGISTRY[key]
    for key in ("pagerank", "label-propagation", "coem", "sssp", "bfs",
                "connected-components")
}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Workload:
    """A concrete, self-contained differential test case."""

    seed: int
    algorithm: str
    num_vertices: int
    #: ``(src, dst, weight)`` triples of the initial snapshot.
    edges: List[Tuple[int, int, float]]
    schedule: List[MutationBatch]
    #: One human-readable kind tag per scheduled batch.
    kinds: List[str] = field(default_factory=list)
    graph_family: str = "explicit"

    @property
    def profile(self) -> AlgorithmSpec:
        return FUZZ_ALGORITHMS[self.algorithm]

    def build_graph(self) -> CSRGraph:
        return CSRGraph.from_edges(
            [(u, v) for u, v, _ in self.edges],
            num_vertices=self.num_vertices,
            weights=[w for _, _, w in self.edges],
        )

    def describe(self) -> str:
        kinds = ",".join(self.kinds) if self.kinds else "-"
        return (
            f"workload(seed={self.seed}, algo={self.algorithm}, "
            f"family={self.graph_family}, V={self.num_vertices}, "
            f"E={len(self.edges)}, batches=[{kinds}])"
        )

    def with_schedule(self, schedule: Sequence[MutationBatch],
                      kinds: Optional[Sequence[str]] = None) -> "Workload":
        if kinds is None:
            kinds = self.kinds[: len(schedule)]
        return replace(self, schedule=list(schedule), kinds=list(kinds))

    def total_mutations(self) -> int:
        return sum(len(batch) for batch in self.schedule)


# ----------------------------------------------------------------------
# The evolving edge-set shadow
# ----------------------------------------------------------------------
class _Shadow:
    """Tracks the live edge set so batch generators can target real edges
    (deletions of live edges, churn of just-inserted edges) the way the
    engines' own :class:`~repro.graph.mutable.StreamingGraph` would."""

    def __init__(self, num_vertices: int,
                 edges: Sequence[Tuple[int, int, float]]) -> None:
        self.num_vertices = num_vertices
        self.edges: Dict[Tuple[int, int], float] = {
            (u, v): w for u, v, w in edges
        }

    def live_edges(self) -> List[Tuple[int, int]]:
        return sorted(self.edges)

    def apply(self, batch: MutationBatch) -> None:
        for u, v in batch.deletions():
            self.edges.pop((u, v), None)
        for u, v, w in batch.additions():
            self.edges.setdefault((u, v), w)
        self.num_vertices = batch.num_vertices_after(self.num_vertices)


def _random_pairs(rng: np.random.Generator, num_vertices: int,
                  count: int) -> List[Tuple[int, int]]:
    pairs = []
    for _ in range(count):
        u = int(rng.integers(0, num_vertices))
        v = int(rng.integers(0, num_vertices))
        if u != v:
            pairs.append((u, v))
    return pairs


def _weights(rng: np.random.Generator, count: int) -> List[float]:
    return [round(float(w), 6) for w in rng.random(count) + 0.5]


# ----------------------------------------------------------------------
# Batch generators (one per adversarial kind)
# ----------------------------------------------------------------------
def _gen_uniform(rng, shadow: _Shadow) -> MutationBatch:
    adds = _random_pairs(rng, shadow.num_vertices,
                         int(rng.integers(1, 9)))
    live = shadow.live_edges()
    num_dels = min(int(rng.integers(0, 5)), len(live))
    dels = [live[i] for i in rng.choice(len(live), size=num_dels,
                                        replace=False)] if num_dels else []
    return MutationBatch.from_edges(additions=adds, deletions=dels,
                                    add_weights=_weights(rng, len(adds)))


def _gen_dense(rng, shadow: _Shadow) -> MutationBatch:
    live = shadow.live_edges()
    adds = _random_pairs(rng, shadow.num_vertices,
                         max(4, len(live) // 2))
    num_dels = len(live) // 4
    dels = [live[i] for i in rng.choice(len(live), size=num_dels,
                                        replace=False)] if num_dels else []
    return MutationBatch.from_edges(additions=adds, deletions=dels,
                                    add_weights=_weights(rng, len(adds)))


def _gen_isolated(rng, shadow: _Shadow) -> MutationBatch:
    grow_to = shadow.num_vertices + int(rng.integers(1, 5))
    adds: List[Tuple[int, int]] = []
    if rng.random() < 0.5 and shadow.num_vertices > 1:
        # One edge into the grown range: a vertex beyond current capacity.
        adds = [(int(rng.integers(0, shadow.num_vertices)), grow_to - 1)]
    return MutationBatch.from_edges(additions=adds,
                                    add_weights=_weights(rng, len(adds)),
                                    grow_to=grow_to)


def _gen_dirty(rng, shadow: _Shadow) -> MutationBatch:
    """Stale-stream garbage: duplicates, self-loops, absent deletions."""
    base = _random_pairs(rng, shadow.num_vertices, int(rng.integers(1, 5)))
    adds = base + base  # duplicate every addition
    adds += [(u, u) for u in
             rng.integers(0, shadow.num_vertices, size=2).tolist()]
    live = set(shadow.edges)
    absent = [pair for pair in
              _random_pairs(rng, shadow.num_vertices, 4)
              if pair not in live][:2]
    return MutationBatch.from_edges(additions=adds, deletions=absent,
                                    add_weights=_weights(rng, len(adds)))


def _gen_empty(rng, shadow: _Shadow) -> MutationBatch:
    return MutationBatch.empty()


def _gen_hotspot_storm(rng, shadow: _Shadow) -> MutationBatch:
    """All mutations inside one community block (see
    :func:`repro.bench.workloads.hotspot_community`): additions connect
    block-internal pairs, deletions remove block-internal live edges."""
    n = shadow.num_vertices
    block = max(2, n // 4)
    lo = int(rng.integers(0, max(n - block, 0) + 1))
    hi = min(lo + block, n)
    count = int(rng.integers(2, 9))
    adds = []
    for _ in range(count):
        u = int(rng.integers(lo, hi))
        v = int(rng.integers(lo, hi))
        if u != v:
            adds.append((u, v))
    inside = [
        (u, v) for u, v in shadow.live_edges()
        if lo <= u < hi and lo <= v < hi
    ]
    num_dels = min(int(rng.integers(0, 4)), len(inside))
    dels = [inside[i] for i in rng.choice(len(inside), size=num_dels,
                                          replace=False)] if num_dels else []
    return MutationBatch.from_edges(additions=adds, deletions=dels,
                                    add_weights=_weights(rng, len(adds)))


def _gen_delete_heavy(rng, shadow: _Shadow) -> MutationBatch:
    live = shadow.live_edges()
    num_dels = min(len(live), max(1, len(live) // 2))
    dels = [live[i] for i in rng.choice(len(live), size=num_dels,
                                        replace=False)] if num_dels else []
    return MutationBatch.from_edges(deletions=dels)


BATCH_KINDS: Dict[str, Callable] = {
    "uniform": _gen_uniform,
    "dense": _gen_dense,
    "isolated": _gen_isolated,
    "dirty": _gen_dirty,
    "empty": _gen_empty,
    "delete_heavy": _gen_delete_heavy,
    "hotspot_storm": _gen_hotspot_storm,
}


# ----------------------------------------------------------------------
# Graph families
# ----------------------------------------------------------------------
def _initial_graph(rng: np.random.Generator,
                   max_vertices: int) -> Tuple[str, CSRGraph]:
    from repro.graph import generators

    family = str(rng.choice(["rmat", "erdos_renyi", "star", "cycle"]))
    graph_seed = int(rng.integers(0, 2**31 - 1))
    if family == "rmat":
        scale = int(rng.integers(4, 7))
        scale = min(scale, int(np.log2(max(max_vertices, 8))))
        graph = generators.rmat(scale, edge_factor=int(rng.integers(2, 5)),
                                seed=graph_seed, weighted=True)
    elif family == "erdos_renyi":
        vertices = int(rng.integers(8, max_vertices + 1))
        edges = int(rng.integers(vertices, 3 * vertices + 1))
        graph = generators.erdos_renyi(vertices, edges, seed=graph_seed)
    elif family == "star":
        # star_graph(n) has n + 1 vertices (hub + leaves).
        leaves = int(rng.integers(4, max(min(17, max_vertices), 5)))
        graph = generators.star_graph(leaves,
                                      outward=bool(rng.integers(0, 2)))
    else:
        graph = generators.cycle_graph(
            int(rng.integers(3, max(min(25, max_vertices + 1), 4)))
        )
    return family, graph


def generate_workload(
    seed: int,
    algorithms: Optional[Sequence[str]] = None,
    max_vertices: int = 64,
    max_batches: int = 6,
) -> Workload:
    """Derive a complete workload deterministically from ``seed``."""
    rng = np.random.default_rng(seed)
    roster = list(algorithms) if algorithms else sorted(FUZZ_ALGORITHMS)
    unknown = [key for key in roster if key not in FUZZ_ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown fuzz algorithms: {unknown} "
                         f"(choose from {sorted(FUZZ_ALGORITHMS)})")
    algorithm = str(rng.choice(roster))

    family, graph = _initial_graph(rng, max_vertices)
    src, dst, weight = graph.all_edges()
    edges = [
        (int(u), int(v), round(float(w), 6))
        for u, v, w in zip(src, dst, weight)
    ]

    shadow = _Shadow(graph.num_vertices, edges)
    num_batches = int(rng.integers(1, max_batches + 1))
    schedule: List[MutationBatch] = []
    kinds: List[str] = []
    kind_names = sorted(BATCH_KINDS)
    pending_churn: List[Tuple[int, int]] = []
    while len(schedule) < num_batches:
        if pending_churn:
            # Second half of a churn pair: delete exactly what the
            # previous batch inserted.
            batch = MutationBatch.from_edges(deletions=pending_churn)
            kind = "churn_delete"
            pending_churn = []
        else:
            kind = str(rng.choice(kind_names + ["churn"]))
            if kind == "churn":
                inserts = [
                    pair for pair in
                    _random_pairs(rng, shadow.num_vertices,
                                  int(rng.integers(2, 7)))
                    if pair not in shadow.edges
                ]
                if not inserts:
                    continue
                batch = MutationBatch.from_edges(
                    additions=inserts,
                    add_weights=_weights(rng, len(inserts)),
                )
                pending_churn = list(dict.fromkeys(inserts))
                kind = "churn_insert"
            else:
                batch = BATCH_KINDS[kind](rng, shadow)
        shadow.apply(batch)
        schedule.append(batch)
        kinds.append(kind)

    return Workload(
        seed=seed,
        algorithm=algorithm,
        num_vertices=graph.num_vertices,
        edges=edges,
        schedule=schedule,
        kinds=kinds,
        graph_family=family,
    )
