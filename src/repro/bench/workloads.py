"""Mutation workload generators.

Reproduces the paper's evaluation methodology (section 5.1): "we
obtained an initial fixed point and streamed in a set of edge insertions
and deletions ... After 50% of the edges were loaded, the remaining
edges were treated as edge additions that were streamed in.  Edges to be
deleted were selected from the loaded graph and deletion requests were
mixed with addition requests in the update stream."

Also provides the Table 8 Hi/Lo workloads -- batches whose mutations
target high- or low-out-degree vertices so the blast radius of changes
is maximised or minimised -- the community-confined ``hotspot_storm``
regime, and :data:`SCENARIOS`, the named seeded streams the experiment
matrix's ``scenario`` axis selects from.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.mutation import MutationBatch
from repro.graph.properties import degree_percentile_vertices

__all__ = [
    "split_initial_graph",
    "mixed_stream",
    "uniform_batch",
    "targeted_batch",
    "hotspot_community",
    "hotspot_storm",
    "SCENARIOS",
]


def split_initial_graph(
    graph: CSRGraph, seed: int = 0
) -> Tuple[CSRGraph, np.ndarray, np.ndarray, np.ndarray]:
    """Split a full graph into a loaded half and pending additions (the
    paper's stream, section 5.1).

    Returns ``(initial_graph, pending_src, pending_dst, pending_weight)``
    where the initial graph holds half the edges and the rest are
    returned as the future addition stream, shuffled.
    """
    rng = np.random.default_rng(seed)
    src, dst, weight = graph.all_edges()
    order = rng.permutation(src.size)
    cut = src.size // 2
    loaded = order[:cut]
    pending = order[cut:]
    initial = CSRGraph(
        graph.num_vertices, src[loaded], dst[loaded], weight[loaded]
    )
    return initial, src[pending], dst[pending], weight[pending]


def mixed_stream(
    graph: CSRGraph,
    num_batches: int,
    batch_size: int,
    seed: int,
) -> Tuple[CSRGraph, List[MutationBatch]]:
    """The paper's update stream: additions from the unloaded half of
    the edges mixed with deletions of currently-loaded edges.

    Returns ``(initial_graph, batches)``.  Deletions are sampled from the
    loaded edge set as it evolves (an edge added by an earlier batch can
    be deleted by a later one); each batch holds ``batch_size`` mutations,
    30% of them deletions (subject to availability of pending
    additions).
    """
    rng = np.random.default_rng(seed)
    initial, pend_src, pend_dst, pend_weight = split_initial_graph(
        graph, seed)
    live = {
        (int(u), int(v)): float(w)
        for u, v, w in zip(*initial.all_edges())
    }
    batches: List[MutationBatch] = []
    cursor = 0
    for _ in range(num_batches):
        num_deletes = int(batch_size * 0.3)
        num_adds = batch_size - num_deletes
        adds = []
        add_weights = []
        while num_adds > 0 and cursor < pend_src.size:
            edge = (int(pend_src[cursor]), int(pend_dst[cursor]))
            weight = float(pend_weight[cursor])
            cursor += 1
            if edge in live:
                continue
            adds.append(edge)
            add_weights.append(weight)
            num_adds -= 1
        live_edges = list(live.keys())
        num_deletes = min(num_deletes, len(live_edges))
        delete_idx = rng.choice(len(live_edges), size=num_deletes,
                                replace=False)
        deletes = [live_edges[i] for i in delete_idx]
        for edge, weight in zip(adds, add_weights):
            live[edge] = weight
        for edge in deletes:
            del live[edge]
        batches.append(
            MutationBatch.from_edges(
                additions=adds, deletions=deletes, add_weights=add_weights
            )
        )
    return initial, batches


def uniform_batch(graph: CSRGraph, batch_size: int,
                  delete_fraction: float = 0.3,
                  seed: int = 0) -> MutationBatch:
    """A single batch of uniformly random additions and deletions."""
    rng = np.random.default_rng(seed)
    num_deletes = int(batch_size * delete_fraction)
    num_adds = batch_size - num_deletes
    num_vertices = graph.num_vertices
    adds = list(
        zip(
            rng.integers(0, num_vertices, size=num_adds).tolist(),
            rng.integers(0, num_vertices, size=num_adds).tolist(),
        )
    )
    src, dst, _ = graph.all_edges()
    num_deletes = min(num_deletes, src.size)
    idx = rng.choice(src.size, size=num_deletes, replace=False)
    deletes = list(zip(src[idx].tolist(), dst[idx].tolist()))
    weights = (rng.random(len(adds)) + 0.5).tolist()
    return MutationBatch.from_edges(additions=adds, deletions=deletes,
                                    add_weights=weights)


def targeted_batch(graph: CSRGraph, batch_size: int, workload: str,
                   delete_fraction: float = 0.3,
                   seed: int = 0) -> MutationBatch:
    """A Hi or Lo workload batch (paper Table 8).

    The paper's Hi workload makes "mutations impact vertices with high
    outgoing degree (so that changes affect more vertices)": the vertex
    whose aggregation a mutation perturbs is the edge's *destination*,
    and its out-degree determines how widely the perturbation fans out
    in the next iteration.  So ``'hi'`` targets mutation destinations in
    the top out-degree percentile (additions point at them, deletions
    remove their in-edges), and ``'lo'`` targets the bottom band.
    """
    if workload not in ("hi", "lo"):
        raise ValueError("workload must be 'hi' or 'lo'")
    band = (0.99, 1.0) if workload == "hi" else (0.0, 0.3)
    rng = np.random.default_rng(seed)
    targets = degree_percentile_vertices(graph, *band)
    if targets.size == 0:
        raise ValueError("graph has no vertices with out-edges")
    num_deletes = int(batch_size * delete_fraction)
    num_adds = batch_size - num_deletes

    add_dst = rng.choice(targets, size=num_adds)
    add_src = rng.integers(0, graph.num_vertices, size=num_adds)
    adds = list(zip(add_src.tolist(), add_dst.tolist()))

    deletes = []
    delete_targets = rng.choice(targets, size=num_deletes)
    for v in delete_targets.tolist():
        sources = graph.in_neighbors(v)
        if sources.size:
            deletes.append(
                (int(sources[rng.integers(0, sources.size)]), v)
            )
    weights = (rng.random(len(adds)) + 0.5).tolist()
    return MutationBatch.from_edges(additions=adds, deletions=deletes,
                                    add_weights=weights)


def hotspot_community(num_vertices: int, seed: int = 0) -> Tuple[int, int]:
    """Pick one RMAT community as a half-open vertex-id range.

    RMAT's recursive quadrant construction makes communities contiguous
    id blocks whose boundaries are power-of-two prefixes, so a community
    of relative size 1/16 is an aligned block of ``~num_vertices / 16``
    ids.  Returns ``(lo, hi)``.
    """
    if num_vertices < 1:
        raise ValueError("num_vertices must be >= 1")
    block = max(1, int(num_vertices * 0.0625))
    num_blocks = max(1, num_vertices // block)
    rng = np.random.default_rng(seed)
    index = int(rng.integers(0, num_blocks))
    lo = index * block
    return lo, min(lo + block, num_vertices)


def hotspot_storm(
    graph: CSRGraph,
    num_batches: int,
    batch_size: int,
    delete_fraction: float = 0.3,
    seed: int = 0,
) -> List[MutationBatch]:
    """A hot-spot storm: every mutation lands in one RMAT community
    (a :func:`hotspot_community` block).

    The adversarial regime for dependency-driven refinement (ROADMAP
    item 5): instead of spreading mutations uniformly, all additions
    connect vertices *within* a single community block and all deletions
    remove live edges whose endpoints both lie inside it, so the blast
    radius of consecutive batches overlaps maximally.  Deletions are
    sampled from the evolving edge set (an edge added by an earlier
    batch can be deleted by a later one).  Deterministic given ``seed``.
    """
    lo, hi = hotspot_community(graph.num_vertices, seed=seed)
    rng = np.random.default_rng(seed + 1)
    src, dst, _ = graph.all_edges()
    inside = (src >= lo) & (src < hi) & (dst >= lo) & (dst < hi)
    live = {
        (int(u), int(v))
        for u, v in zip(src[inside].tolist(), dst[inside].tolist())
    }
    batches: List[MutationBatch] = []
    for _ in range(num_batches):
        num_deletes = int(batch_size * delete_fraction)
        num_adds = batch_size - num_deletes
        adds = list(
            zip(
                rng.integers(lo, hi, size=num_adds).tolist(),
                rng.integers(lo, hi, size=num_adds).tolist(),
            )
        )
        candidates = sorted(live)
        num_deletes = min(num_deletes, len(candidates))
        deletes = [
            candidates[i]
            for i in rng.choice(len(candidates), size=num_deletes,
                                replace=False)
        ] if num_deletes else []
        weights = (rng.random(len(adds)) + 0.5).tolist()
        for edge in adds:
            if edge[0] != edge[1]:
                live.add(edge)
        for edge in deletes:
            live.discard(edge)
        batches.append(
            MutationBatch.from_edges(additions=adds, deletions=deletes,
                                     add_weights=weights)
        )
    return batches


def _per_batch(generate: Callable[..., MutationBatch],
               **fixed) -> Callable[..., List[MutationBatch]]:
    """A stream of independent batches against the *initial* graph,
    batch ``i`` seeded ``seed + i`` (the paper benches' convention)."""
    def stream(graph: CSRGraph, num_batches: int, batch_size: int,
               delete_fraction: float = 0.3,
               seed: int = 0) -> List[MutationBatch]:
        return [
            generate(graph, batch_size, delete_fraction=delete_fraction,
                     seed=seed + index, **fixed)
            for index in range(num_batches)
        ]
    return stream


#: Named mutation regimes: ``name -> stream(graph, num_batches,
#: batch_size, delete_fraction=..., seed=...) -> batches``.
SCENARIOS: Dict[str, Callable[..., List[MutationBatch]]] = {
    "uniform": _per_batch(uniform_batch),
    "hi": _per_batch(targeted_batch, workload="hi"),
    "lo": _per_batch(targeted_batch, workload="lo"),
    "hotspot_storm": hotspot_storm,
}
