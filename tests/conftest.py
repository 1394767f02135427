"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
import json
import os

import numpy as np
import pytest

from repro.core.history import DependencyHistory, IterationRecord
from repro.core.refinement import _Refiner
from repro.graph.csr import CSRGraph
from repro.graph.generators import bipartite_graph, rmat
from repro.graph.mutation import MutationBatch
from repro.kickstarter.trees import NO_PARENT
from repro.ligra.delta import exact_changed_rows
from repro.obs.journal import read_journal
from repro.testing.oracle import build_runner


@pytest.fixture
def tiny_graph() -> CSRGraph:
    """The 5-vertex graph of the paper's Figure 2a."""
    return CSRGraph.from_edges(
        [(0, 1), (1, 2), (2, 0), (2, 1), (3, 2), (3, 4), (4, 3)],
        num_vertices=5,
    )


@pytest.fixture
def small_graph() -> CSRGraph:
    """A 256-vertex weighted RMAT graph."""
    return rmat(scale=8, edge_factor=6, seed=3, weighted=True)


@pytest.fixture
def medium_graph() -> CSRGraph:
    """A 512-vertex weighted RMAT graph."""
    return rmat(scale=9, edge_factor=8, seed=5, weighted=True)


@pytest.fixture
def ratings_graph() -> CSRGraph:
    """A user-item bipartite graph for collaborative filtering."""
    return bipartite_graph(num_users=100, num_items=50, edges_per_user=5,
                           seed=7)


def make_random_batch(graph: CSRGraph, rng: np.random.Generator,
                      num_adds: int = 20, num_dels: int = 20,
                      weighted: bool = True) -> MutationBatch:
    """Random mixed batch: uniform additions + deletions of live edges."""
    num_vertices = graph.num_vertices
    adds = [
        (int(rng.integers(0, num_vertices)), int(rng.integers(0, num_vertices)))
        for _ in range(num_adds)
    ]
    src, dst, _ = graph.all_edges()
    count = min(num_dels, src.size)
    idx = rng.choice(src.size, size=count, replace=False) if count else []
    dels = [(int(src[i]), int(dst[i])) for i in idx]
    weights = (
        (rng.random(len(adds)) + 0.5).tolist() if weighted
        else [1.0] * len(adds)
    )
    return MutationBatch.from_edges(additions=adds, deletions=dels,
                                    add_weights=weights)


def edge_weights(graph: CSRGraph) -> dict:
    """``{(src, dst): weight}`` over every edge of ``graph``."""
    src, dst, weight = graph.all_edges()
    return dict(zip(zip(src.tolist(), dst.tolist()), weight.tolist()))


def edge_set(graph: CSRGraph) -> set:
    """The ``(src, dst)`` pairs of ``graph``."""
    return set(edge_weights(graph))


def tree_depths(tree) -> np.ndarray:
    """Depth of each vertex in a KickStarter dependency forest; -1 for
    unreachable vertices.  Raises on parent cycles."""
    depths = np.full(tree.num_vertices, -1, dtype=np.int64)
    for vertex in range(tree.num_vertices):
        if depths[vertex] >= 0 or np.isinf(tree.values[vertex]):
            continue
        chain = []
        cursor = vertex
        while cursor != NO_PARENT and depths[cursor] < 0:
            chain.append(cursor)
            cursor = int(tree.parents[cursor])
            if len(chain) > tree.num_vertices:
                raise RuntimeError("dependency parents form a cycle")
        base = 0 if cursor == NO_PARENT else depths[cursor] + 1
        for offset, node in enumerate(reversed(chain)):
            depths[node] = base + offset
    return depths


def all_sparse(history):
    """The same run with every half sparse: a dense half becomes the
    rows it changed against the replay so far."""
    sparse = DependencyHistory(history.initial_values,
                               history.identity_aggregate)
    g = history.identity_aggregate.copy()
    c = history.initial_values.copy()
    for record in history.records:
        halves = []
        for idx, values, current in ((record.g_idx, record.g_values, g),
                                     (record.c_idx, record.c_values, c)):
            if idx is None:
                idx = np.flatnonzero(exact_changed_rows(current, values))
                values = values[idx]
            current[idx] = values
            halves += [idx, values]
        sparse.append(IterationRecord(*halves))
    return sparse


def pin_refine_modes(monkeypatch, *modes: bool) -> None:
    """Replace refinement's sparse/dense switch with ``modes`` (True:
    dense), cycled over the refinement iterations that follow."""
    pattern = itertools.cycle(modes)
    monkeypatch.setattr(_Refiner, "_dense_preferred",
                        lambda self, sources: next(pattern))


def label_mass(rows, num_labels, seed):
    """Aggregate-like label mass spanning many magnitudes, with all-zero,
    all-(-0.0), vanishing, NaN and inf rows planted at the top."""
    rng = np.random.default_rng(seed)
    mass = rng.random((rows, num_labels)) * 10.0 ** rng.integers(
        -12, 6, size=(rows, num_labels))
    mass[0] = 0.0
    mass[1] = -0.0
    mass[2] = 1e-12
    mass[3, 0] = np.nan
    mass[4, -1] = np.inf
    mass[5] = -1e-15
    return mass


def on_disk_snapshots(store_root) -> list:
    """The snapshot ids an ``MmapStore``'s ``manifest.json`` names right
    now -- the sealed generations, as a restarted process would see."""
    with open(os.path.join(str(store_root), "manifest.json")) as stream:
        return sorted(json.load(stream)["snapshots"])


def journal_records(path, record_type: str) -> list:
    """The records of one ``type`` in a JSONL journal, in order."""
    return [record for record in read_journal(str(path))
            if record.get("type") == record_type]


def wide_events(emitter, kind: str) -> list:
    """A wide-event emitter's in-memory tail, one ``kind`` only."""
    return [event for event in emitter.events() if event["kind"] == kind]


def flip_byte_at(data: bytes, index: int) -> bytes:
    """``data`` with one bit of byte ``index`` flipped (the positioned
    counterpart of ``repro.testing.faults.flip_byte``)."""
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


def sharded_runner(engine: str, profile, num_shards: int):
    """``build_runner``'s runner with its loads accounted over
    ``num_shards`` owner blocks."""
    runner = build_runner(engine, profile)
    runner.metrics.num_shards = num_shards
    return runner


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
