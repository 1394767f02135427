"""Graph serialisation: the two formats ``repro``'s ``file:`` graph spec
reads.

- plain edge-list text (``src dst [weight]`` per line, ``#`` comments),
  interoperable with SNAP/KONECT-style dumps the paper's datasets ship in;
- NumPy ``.npz`` binary, the fast path for benchmark fixtures.

Both keep the first of each repeated ``(src, dst)`` pair, the rule
:class:`~repro.graph.mutation.MutationBatch` applies to a batch: a
loaded graph is simple, as coalescing batches assumes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.pairs import first_pairs

__all__ = [
    "load_edge_list",
    "save_edge_list",
    "load_npz",
    "save_npz",
]


def load_edge_list(path: str) -> CSRGraph:
    """Parse a whitespace-separated edge list file into a graph whose
    vertex count is one past the largest id it names."""
    src: List[int] = []
    dst: List[int] = []
    weight: List[float] = []
    any_weights = False
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            src.append(int(parts[0]))
            dst.append(int(parts[1]))
            if len(parts) >= 3:
                weight.append(float(parts[2]))
                any_weights = True
            else:
                weight.append(1.0)
    src_arr = np.array(src, dtype=np.int64)
    dst_arr = np.array(dst, dtype=np.int64)
    weight_arr = np.array(weight, dtype=np.float64) if any_weights else None
    num_vertices = (
        int(max(src_arr.max(initial=-1), dst_arr.max(initial=-1))) + 1
    )
    return _simple_graph(num_vertices, src_arr, dst_arr, weight_arr)


def _simple_graph(num_vertices: int, src: np.ndarray, dst: np.ndarray,
                  weight: Optional[np.ndarray]) -> CSRGraph:
    """A graph of the edges in file order, keeping the first of each
    repeated ``(src, dst)`` pair."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    stride = max(num_vertices, int(dst.max(initial=-1)) + 1)
    first = first_pairs(src, dst, stride)
    if first.size < src.size:
        first.sort()
        src, dst = src[first], dst[first]
        weight = None if weight is None else np.asarray(weight)[first]
    return CSRGraph(num_vertices, src, dst, weight)


def save_edge_list(graph: CSRGraph, path: str,
                   write_weights: bool = True) -> None:
    src, dst, weight = graph.all_edges()
    with open(path, "w") as handle:
        handle.write(f"# vertices: {graph.num_vertices}\n")
        handle.write(f"# edges: {graph.num_edges}\n")
        if write_weights:
            for s, d, w in zip(src.tolist(), dst.tolist(), weight.tolist()):
                handle.write(f"{s} {d} {w}\n")
        else:
            for s, d in zip(src.tolist(), dst.tolist()):
                handle.write(f"{s} {d}\n")


def save_npz(graph: CSRGraph, path: str) -> None:
    src, dst, weight = graph.all_edges()
    np.savez_compressed(
        path,
        num_vertices=np.int64(graph.num_vertices),
        src=src,
        dst=dst,
        weight=weight,
    )


def load_npz(path: str) -> CSRGraph:
    with np.load(path) as data:
        return _simple_graph(
            int(data["num_vertices"]), data["src"], data["dst"], data["weight"]
        )

