"""Structural statistics of graph snapshots.

Used by the workload generators (to pick high/low degree mutation targets,
paper Table 8) and by the experiment reports (to document the synthetic
stand-in graphs the way the paper's Table 2 documents its datasets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["GraphStats", "graph_stats", "degree_percentile_vertices"]


@dataclass
class GraphStats:
    """Summary statistics for one snapshot."""

    num_vertices: int
    num_edges: int
    max_out_degree: int
    max_in_degree: int
    mean_degree: float
    degree_skew: float
    isolated_vertices: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "max_out_degree": self.max_out_degree,
            "max_in_degree": self.max_in_degree,
            "mean_degree": self.mean_degree,
            "degree_skew": self.degree_skew,
            "isolated": self.isolated_vertices,
        }


def graph_stats(graph: CSRGraph) -> GraphStats:
    out_deg = graph.out_degrees()
    in_deg = graph.in_degrees()
    total = out_deg + in_deg
    mean = float(out_deg.mean()) if out_deg.size else 0.0
    # Simple moment-based skewness of the out-degree distribution; skew is
    # what makes GraphBolt's pruning effective (paper section 3.2).
    if out_deg.size and out_deg.std() > 0:
        centred = out_deg - out_deg.mean()
        skew = float((centred**3).mean() / out_deg.std() ** 3)
    else:
        skew = 0.0
    return GraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        max_out_degree=int(out_deg.max(initial=0)),
        max_in_degree=int(in_deg.max(initial=0)),
        mean_degree=mean,
        degree_skew=skew,
        isolated_vertices=int((total == 0).sum()),
    )


def degree_percentile_vertices(
    graph: CSRGraph, low: float, high: float
) -> np.ndarray:
    """Vertices whose out-degree falls within the [low, high] percentile
    band.

    ``low``/``high`` are fractions in [0, 1] of the degree-sorted order.
    Vertices with zero degree are excluded (a mutation targeting them is
    neither a Hi nor a Lo workload -- it has no existing neighbourhood).
    """
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError("percentile band must satisfy 0 <= low <= high <= 1")
    degrees = graph.out_degrees()
    candidates = np.flatnonzero(degrees > 0)
    if candidates.size == 0:
        return candidates
    order = candidates[np.argsort(degrees[candidates], kind="stable")]
    lo_idx = int(low * (order.size - 1))
    hi_idx = int(high * (order.size - 1))
    return np.sort(order[lo_idx : hi_idx + 1])
