"""Synthetic graph generators.

The paper evaluates on six real-world web/social graphs (Wiki, UKDomain,
Twitter, TwitterMPI, Friendster, Yahoo; 0.4B-6.6B edges).  Those datasets
are unavailable offline and far beyond pure-Python scale, so we generate
RMAT graphs -- the standard synthetic stand-in for power-law web/social
structure -- with the same *relative* size ordering.  GraphBolt's benefits
stem from degree skew (value stabilisation, Figure 4) and sparsity
(locality of mutation impact), both of which RMAT reproduces.

All generators are deterministic given a seed.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.pairs import first_pairs

__all__ = [
    "rmat",
    "rmat_streamed",
    "rmat_xl",
    "erdos_renyi",
    "star_graph",
    "cycle_graph",
    "complete_graph",
    "bipartite_graph",
    "paper_graph",
    "PAPER_GRAPH_SCALES",
]


#: The Graph500 RMAT partition (a, b, c, d) = (0.57, 0.19, 0.19, 0.05),
#: as the cumulative quadrant bounds a, a + b and a + b + c.
_A = 0.57
_AB = _A + 0.19
_ABC = _AB + 0.19

#: Edges per chunk of the xl tier's rng stream.  Both xl build paths
#: draw the same chunks, so this is part of their determinism contract.
CHUNK_EDGES = 1 << 20


def rmat(
    scale: int,
    edge_factor: int = 16,
    seed: int = 0,
    weighted: bool = False,
) -> CSRGraph:
    """Generate an RMAT graph with ``2**scale`` vertices.

    Uses the recursive quadrant-splitting construction of Chakrabarti et
    al. with the Graph500 default partition (a, b, c, d) =
    (0.57, 0.19, 0.19, 0.05).  Duplicate edges and self-loops are removed,
    so the final edge count is slightly below ``edge_factor * 2**scale``.
    """
    num_vertices = 1 << scale
    rng = np.random.default_rng(seed)
    src, dst = _rmat_chunk(rng, edge_factor * num_vertices, scale)
    src, dst = _dedup_sorted(src, dst, num_vertices)
    weight = rng.random(src.size) + 0.5 if weighted else None
    return CSRGraph(num_vertices, src, dst, weight)


def _hash_weights(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Deterministic per-edge weights in [0.5, 1.5), derived from the
    endpoints alone.

    The streamed generator builds the CSR and CSC sides in two
    independent disk passes, so a weight must be recomputable from
    ``(src, dst)`` wherever the pair surfaces -- an rng stream would
    tie weights to visit order and break CSR/CSC agreement (and with
    it bit-for-bit equality across storage tiers)."""
    mixed = (src.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             + dst.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9))
    mixed ^= mixed >> np.uint64(29)
    mixed *= np.uint64(0x94D049BB133111EB)
    mixed ^= mixed >> np.uint64(32)
    fraction = (mixed >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    return fraction + 0.5


def _rmat_chunk(rng, count: int, scale: int):
    """One chunk of the RMAT rng stream: ``count`` quadrant draws with
    self-loops dropped.  :func:`rmat` draws its whole edge list as one
    chunk; both xl build paths (streamed and materialized) consume
    chunks through here, so they see the same edges for the same
    ``seed``."""
    src = np.zeros(count, dtype=np.int64)
    dst = np.zeros(count, dtype=np.int64)
    for _ in range(scale):
        rand = rng.random(count)
        src = (src << 1) | (rand >= _AB)
        dst = (dst << 1) | (((rand >= _A) & (rand < _AB))
                            | (rand >= _ABC))
    keep = src != dst
    return src[keep], dst[keep]


def _dedup_sorted(key: np.ndarray, other: np.ndarray, stride: int):
    """Sort ``(key, other)`` pairs lexicographically and drop duplicate
    pairs -- a row-wise unique of the pair array without its void-row
    copies, which keeps the per-bucket heap transient of the streamed
    build near the bucket size."""
    first = first_pairs(key, other, stride)
    return key[first], other[first]


def rmat_streamed(
    scale: int,
    edge_factor: int = 16,
    seed: int = 0,
    store=None,
    spool_dir: Optional[str] = None,
) -> CSRGraph:
    """RMAT at out-of-core scale: edges stream to a disk spool in
    chunks, and the snapshot is assembled through a
    :class:`~repro.graph.storage.SnapshotStore` writer -- the full
    edge list never exists in heap at once.

    Three bounded passes:

    1. **Generate** -- RMAT chunks of :data:`CHUNK_EDGES` edges (self-loops
       dropped) are partitioned into spool buckets twice, by source
       range (the CSR pass's input) and by destination range (the CSC
       pass's).  Peak heap: one chunk.
    2. **CSR** -- each source bucket is loaded, deduplicated and
       sorted by ``(src, dst)`` (a bucket holds every copy of its
       pairs, so per-bucket dedup is global dedup), its degree counts
       folded into the offsets, and its targets/weights appended to
       the store writer.  Peak heap: one bucket plus the O(V) offsets.
    3. **CSC** -- the same over destination buckets, sorted by
       ``(dst, src)``.

    Weights are hash-derived from the endpoints (:func:`_hash_weights`)
    so both passes agree bit-for-bit; the result is identical whichever
    store builds it.  ``store=None`` builds in heap.  The rng stream is
    consumed chunk-by-chunk, so :data:`CHUNK_EDGES` is part of the
    determinism contract alongside ``seed`` -- equality across storage
    tiers holds because both build with the same chunk size, not in
    spite of it.
    """
    from repro.graph.storage import HeapStore

    if store is None:
        store = HeapStore()
    num_vertices = 1 << scale
    num_edges = edge_factor * num_vertices
    # ~2 chunks of edges per bucket keeps pass-2/3 peak heap near the
    # chunk size while bounding the bucket file count.
    buckets = max(1, min(num_vertices,
                         num_edges // (CHUNK_EDGES * 2) or 1))
    shift = max(0, scale - (buckets - 1).bit_length())
    buckets = (num_vertices + (1 << shift) - 1) >> shift

    spool = spool_dir or tempfile.mkdtemp(prefix="repro-rmat-xl-")
    own_spool = spool_dir is None
    os.makedirs(spool, exist_ok=True)
    rng = np.random.default_rng(seed)
    try:
        out_files = [open(os.path.join(spool, f"src-{i:04d}.bin"), "wb")
                     for i in range(buckets)]
        in_files = [open(os.path.join(spool, f"dst-{i:04d}.bin"), "wb")
                    for i in range(buckets)]
        try:
            remaining = num_edges
            while remaining > 0:
                count = min(CHUNK_EDGES, remaining)
                remaining -= count
                src, dst = _rmat_chunk(rng, count, scale)
                pair = np.empty((src.size, 2), dtype=np.int64)
                pair[:, 0], pair[:, 1] = src, dst
                for index in np.unique(src >> shift):
                    rows = pair[(src >> shift) == index]
                    out_files[index].write(rows.tobytes())
                for index in np.unique(dst >> shift):
                    rows = pair[(dst >> shift) == index]
                    in_files[index].write(rows.tobytes())
        finally:
            for handle in out_files + in_files:
                handle.close()

        writer = store.writer()
        try:
            out_degrees = np.zeros(num_vertices, dtype=np.int64)
            for index in range(buckets):
                path = os.path.join(spool, f"src-{index:04d}.bin")
                pair = np.fromfile(path, dtype=np.int64).reshape(-1, 2)
                os.remove(path)
                if pair.size == 0:
                    continue
                src, dst = _dedup_sorted(pair[:, 0], pair[:, 1],
                                         num_vertices)
                del pair
                out_degrees += np.bincount(src, minlength=num_vertices)
                writer.append("out_targets", dst)
                writer.append("out_weights", _hash_weights(src, dst))
            offsets = np.zeros(num_vertices + 1, dtype=np.int64)
            np.cumsum(out_degrees, out=offsets[1:])
            writer.append("out_offsets", offsets)

            in_degrees = np.zeros(num_vertices, dtype=np.int64)
            for index in range(buckets):
                path = os.path.join(spool, f"dst-{index:04d}.bin")
                pair = np.fromfile(path, dtype=np.int64).reshape(-1, 2)
                os.remove(path)
                if pair.size == 0:
                    continue
                dst, src = _dedup_sorted(pair[:, 1], pair[:, 0],
                                         num_vertices)
                del pair
                in_degrees += np.bincount(dst, minlength=num_vertices)
                writer.append("in_sources", src)
                writer.append("in_weights", _hash_weights(src, dst))
            offsets = np.zeros(num_vertices + 1, dtype=np.int64)
            np.cumsum(in_degrees, out=offsets[1:])
            writer.append("in_offsets", offsets)
            # publish: the files are sealed as written; this names them
            # in the manifest (identity on a heap store).
            return store.publish(writer.commit(num_vertices))
        except BaseException:
            writer.abort()
            raise
    finally:
        if own_spool:
            shutil.rmtree(spool, ignore_errors=True)


def rmat_xl(
    scale: int,
    edge_factor: int = 16,
    seed: int = 0,
    store=None,
) -> CSRGraph:
    """Build an xl-tier RMAT snapshot through a
    :class:`~repro.graph.storage.SnapshotStore`, by the path each
    storage tier actually uses:

    - **mmap** stores take the out-of-core spool build
      (:func:`rmat_streamed`): edge chunks are never all in heap and
      the snapshot lands as memmapped segment files;
    - **heap** stores take the conventional in-core pipeline -- the
      full edge list is materialized, globally deduplicated and pushed
      through the sorting :class:`~repro.graph.csr.CSRGraph`
      constructor -- exactly the path the spool build exists to
      replace, which is what makes the xl matrix's peak-RSS
      comparison between the two tiers meaningful.

    Both paths consume the identical chunked rng stream and derive
    weights from :func:`_hash_weights`, so the resulting snapshots are
    bit-for-bit equal across tiers.
    """
    from repro.graph.storage import HeapStore

    if store is None:
        store = HeapStore()
    if getattr(store, "kind", "heap") == "mmap":
        return rmat_streamed(scale, edge_factor, seed=seed, store=store)
    num_vertices = 1 << scale
    num_edges = edge_factor * num_vertices
    rng = np.random.default_rng(seed)
    chunks = []
    remaining = num_edges
    while remaining > 0:
        count = min(CHUNK_EDGES, remaining)
        remaining -= count
        chunks.append(_rmat_chunk(rng, count, scale))
    src = np.concatenate([chunk[0] for chunk in chunks])
    dst = np.concatenate([chunk[1] for chunk in chunks])
    del chunks
    src, dst = _dedup_sorted(src, dst, num_vertices)
    return store.publish(CSRGraph(num_vertices, src, dst,
                                  _hash_weights(src, dst)))


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
) -> CSRGraph:
    """Uniform random weighted directed graph without duplicates or
    self-loops."""
    rng = np.random.default_rng(seed)
    collected_src = []
    collected_dst = []
    seen = set()
    remaining = num_edges
    max_possible = num_vertices * (num_vertices - 1)
    if num_edges > max_possible:
        raise ValueError("requested more edges than a simple digraph allows")
    while remaining > 0:
        src = rng.integers(0, num_vertices, size=2 * remaining)
        dst = rng.integers(0, num_vertices, size=2 * remaining)
        for s, d in zip(src.tolist(), dst.tolist()):
            if s == d or (s, d) in seen:
                continue
            seen.add((s, d))
            collected_src.append(s)
            collected_dst.append(d)
            remaining -= 1
            if remaining == 0:
                break
    src_arr = np.array(collected_src, dtype=np.int64)
    dst_arr = np.array(collected_dst, dtype=np.int64)
    return CSRGraph(num_vertices, src_arr, dst_arr,
                    rng.random(src_arr.size) + 0.5)


def watts_strogatz(
    num_vertices: int,
    neighbors_each_side: int = 4,
    rewire_probability: float = 0.05,
    seed: int = 0,
    weighted: bool = False,
) -> CSRGraph:
    """Small-world ring lattice with sparse random rewiring.

    Low rewiring keeps the diameter high and edge locality strong --
    the structural profile of *web* graphs (the paper's UKDomain), where
    mutation impact stays local and incremental processing wins big, as
    opposed to the low-diameter social graphs RMAT models.
    """
    if neighbors_each_side < 1:
        raise ValueError("need at least one neighbour per side")
    rng = np.random.default_rng(seed)
    src_list = []
    dst_list = []
    for offset in range(1, neighbors_each_side + 1):
        base = np.arange(num_vertices, dtype=np.int64)
        src_list.extend([base, base])
        dst_list.extend(
            [(base + offset) % num_vertices, (base - offset) % num_vertices]
        )
    src = np.concatenate(src_list)
    dst = np.concatenate(dst_list)
    rewired = rng.random(src.size) < rewire_probability
    dst = dst.copy()
    dst[rewired] = rng.integers(0, num_vertices, size=int(rewired.sum()))
    keep = src != dst
    src, dst = _dedup_sorted(src[keep], dst[keep], num_vertices)
    weight = rng.random(src.size) + 0.5 if weighted else None
    return CSRGraph(num_vertices, src, dst, weight)


def star_graph(num_leaves: int, outward: bool = True) -> CSRGraph:
    """Star with hub 0; ``outward`` controls edge direction."""
    hub = 0
    leaves = range(1, num_leaves + 1)
    if outward:
        edges = [(hub, leaf) for leaf in leaves]
    else:
        edges = [(leaf, hub) for leaf in leaves]
    return CSRGraph.from_edges(edges, num_vertices=num_leaves + 1)


def cycle_graph(num_vertices: int) -> CSRGraph:
    edges = [(v, (v + 1) % num_vertices) for v in range(num_vertices)]
    return CSRGraph.from_edges(edges, num_vertices=num_vertices)


def complete_graph(num_vertices: int) -> CSRGraph:
    edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(num_vertices)
        if u != v
    ]
    return CSRGraph.from_edges(edges, num_vertices=num_vertices)


def bipartite_graph(
    num_users: int,
    num_items: int,
    edges_per_user: int,
    seed: int,
) -> CSRGraph:
    """Random user->item bipartite graph (Collaborative Filtering input).

    Users are ids ``0..num_users-1``, items ``num_users..num_users+num_items-1``.
    Edges carry rating-like weights in [1, 5].
    """
    rng = np.random.default_rng(seed)
    src_list = []
    dst_list = []
    for u in range(num_users):
        items = rng.choice(num_items, size=min(edges_per_user, num_items),
                           replace=False)
        for it in items.tolist():
            src_list.append(u)
            dst_list.append(num_users + it)
    src = np.array(src_list, dtype=np.int64)
    dst = np.array(dst_list, dtype=np.int64)
    # Ratings, plus the mirrored item->user edges so computation is two-way.
    weight = rng.integers(1, 6, size=src.size).astype(np.float64)
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    all_weight = np.concatenate([weight, weight])
    return CSRGraph(num_users + num_items, all_src, all_dst, all_weight)


#: Scaled-down stand-ins for the paper's datasets (Table 2).  The scale
#: parameter is the RMAT log2 vertex count; ordering matches the paper's
#: size ordering WK < UK < TW < TT < FT < YH.  UK is special-cased below:
#: UKDomain is a *web* graph (high diameter, strong locality), which we
#: model with a small-world lattice instead of RMAT.
PAPER_GRAPH_SCALES: Dict[str, Tuple[int, int]] = {
    "WK": (11, 12),  # Wiki          ~2K vertices, ~20K edges
    "UK": (12, 6),   # UKDomain      ~4K vertices, ~45K edges (lattice)
    "TW": (13, 14),  # Twitter       ~8K vertices, ~90K edges
    "TT": (13, 18),  # TwitterMPI    ~8K vertices, ~110K edges
    "FT": (14, 16),  # Friendster    ~16K vertices, ~200K edges
    "YH": (15, 18),  # Yahoo         ~32K vertices, ~500K edges
}


def paper_graph(name: str) -> CSRGraph:
    """A scaled-down weighted synthetic stand-in for one of the paper's
    graphs, seeded by its name."""
    if name not in PAPER_GRAPH_SCALES:
        raise KeyError(
            f"unknown paper graph {name!r}; choose from "
            f"{sorted(PAPER_GRAPH_SCALES)}"
        )
    scale, edge_factor = PAPER_GRAPH_SCALES[name]
    seed = sum(ord(ch) for ch in name)
    if name == "UK":
        return watts_strogatz(
            1 << scale,
            neighbors_each_side=edge_factor,
            rewire_probability=0.02,
            seed=seed,
            weighted=True,
        )
    return rmat(scale, edge_factor, seed=seed, weighted=True)
