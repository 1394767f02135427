"""One contribution form: an algorithm's per-source message through its
edge operator is, bit for bit, the per-edge contribution of the paper's
Table 4, in the dense sweep and in each sparse operator.

:func:`per_edge` writes each algorithm's contribution out per edge, from
the paper's formulas rather than from ``message``; the references below
reduce it with the aggregation's own operators in the order the engines
used before contributions became messages (CSR order for a sweep, the
batch's and the sources' edge order for a sparse step).  Graphs are
drawn with zero-out-degree sources and isolated vertices, placed on the
heap or an mmap store, and grown by the batch.
"""

from __future__ import annotations

import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    BFS,
    SSSP,
    BeliefPropagation,
    CoEM,
    CollaborativeFiltering,
    ConnectedComponents,
    LabelPropagation,
    PageRank,
)
from repro.algorithms.registry import REGISTRY
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.graph.storage import MmapStore
from repro.ligra.delta import propagate
from repro.runtime.exec import aggregate_all
from repro.runtime.metrics import EngineMetrics

#: One registered configuration of each of the eight algorithm classes.
ALGORITHMS = ["pagerank", "label-propagation", "coem", "belief-propagation",
              "collaborative-filtering", "sssp", "bfs",
              "connected-components"]


def per_edge(algorithm, graph, src_values, src, weight):
    """``contribution(c(u), u, v, w)`` along edges from ``src`` whose
    sources hold ``src_values``, on snapshot ``graph``."""
    if isinstance(algorithm, PageRank):
        return src_values / graph.out_degrees()[src]
    if isinstance(algorithm, BeliefPropagation):
        logs = np.log((algorithm.priors(src) * src_values) @ algorithm.psi)
        return logs - logs.mean(axis=1, keepdims=True)
    if isinstance(algorithm, CollaborativeFiltering):
        outer = src_values[:, :, None] * src_values[:, None, :]
        return np.concatenate([outer.reshape(src.size, -1),
                               src_values * weight[:, None]], axis=1)
    if isinstance(algorithm, (LabelPropagation, CoEM)):
        return src_values * (weight if src_values.ndim == 1
                             else weight[:, None])
    if isinstance(algorithm, SSSP):
        return src_values + weight
    if isinstance(algorithm, BFS):
        return src_values + 1.0
    assert isinstance(algorithm, ConnectedComponents)
    return src_values.copy()


def reference_sweep(algorithm, graph, values):
    """Every edge's contribution, reduced from the identity in CSR
    order."""
    aggregate = algorithm.identity_aggregate(graph.num_vertices)
    src, dst, weight = graph.all_edges()
    if src.size:
        algorithm.aggregation.scatter(
            aggregate, dst, per_edge(algorithm, graph, values[src], src,
                                     weight))
    return aggregate


def reference_step(algorithm, graph, values, sources, old, batch, retract):
    """One sparse step from ``old`` as the paper's operators spell it:
    ⊎ along the batch's added edges, ⋃– along its deleted ones on the
    old snapshot, and ⋃△ along the sources' kept out-edges -- or, for a
    non-decomposable aggregation, every touched target re-evaluated from
    its in-edges."""
    aggregation = algorithm.aggregation
    aggregate = old.g.copy()
    old_graph = graph if batch is None else batch.old_graph
    src, slots = graph.out_edge_slots(sources)
    if batch is not None:
        kept = ~batch.added_edge_mask()[slots]
        src, slots = src[kept], slots[kept]
    dst, weight = graph.out_targets[slots], graph.out_weights[slots]
    if not aggregation.decomposable:
        targets = [dst] if batch is None else [dst, batch.add_dst,
                                               batch.del_dst]
        touched = np.unique(np.concatenate(targets))
        aggregate[touched] = aggregation.identity_value()
        src, dst, weight = graph.in_edges_of(touched)
        if src.size:
            aggregation.scatter(aggregate, dst, per_edge(
                algorithm, graph, values[src], src, weight))
        return aggregate
    if batch is not None and batch.add_src.size:
        aggregation.scatter(aggregate, batch.add_dst, per_edge(
            algorithm, graph, values[batch.add_src], batch.add_src,
            batch.add_weight))
    if batch is not None and batch.del_src.size:
        aggregation.scatter_retract(aggregate, batch.del_dst, per_edge(
            algorithm, old_graph, old.c_prev[batch.del_src], batch.del_src,
            batch.del_weight))
    if src.size:
        new = per_edge(algorithm, graph, values[src], src, weight)
        was = per_edge(algorithm, old_graph, old.c_prev[src], src, weight)
        if retract:
            aggregation.scatter_retract(aggregate, dst, was)
            aggregation.scatter(aggregate, dst, new)
        else:
            aggregation.scatter_delta(aggregate, dst, new, was)
    return aggregate


_WEIGHTS = st.floats(min_value=0.25, max_value=4.0)


@st.composite
def _streams(draw):
    """A small weighted graph (isolated vertices and sinks likely) and a
    batch that deletes some of its edges, adds some, and may grow it."""
    num_vertices = draw(st.integers(1, 10))
    ids = st.integers(0, num_vertices - 1)
    edges = draw(st.lists(st.tuples(ids, ids, _WEIGHTS), max_size=24,
                          unique_by=lambda edge: edge[:2]))
    grow_to = num_vertices + draw(st.integers(0, 3))
    grown = st.integers(0, grow_to - 1)
    additions = draw(st.lists(st.tuples(grown, grown), max_size=6))
    deletions = draw(st.lists(st.sampled_from(edges), max_size=4)) \
        if edges else []
    graph = CSRGraph(num_vertices,
                     np.array([e[0] for e in edges], dtype=np.int64),
                     np.array([e[1] for e in edges], dtype=np.int64),
                     np.array([e[2] for e in edges], dtype=np.float64))
    batch = MutationBatch.from_edges(
        additions=additions, deletions=[edge[:2] for edge in deletions],
        add_weights=draw(st.lists(_WEIGHTS, min_size=len(additions),
                                  max_size=len(additions))),
        grow_to=grow_to)
    return graph, batch, draw(st.integers(0, 2**32 - 1))


def _arrays(algorithm, rng, num_vertices, shape):
    """Positive values (BP takes their log) with some ``inf`` where a
    min aggregation holds unreached vertices."""
    values = rng.uniform(0.1, 2.0, size=(num_vertices, *shape))
    if not algorithm.aggregation.decomposable:
        values[rng.random(num_vertices) < 0.25] = np.inf
    return values


@pytest.mark.parametrize("storage", ["heap", "mmap"])
@pytest.mark.parametrize("key", ALGORITHMS)
@given(stream=_streams())
@settings(max_examples=15, deadline=None)
def test_messages_are_the_per_edge_formulas(key, storage, stream):
    graph, batch, seed = stream
    algorithm = REGISTRY[key].factory()
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as root:
        if storage == "mmap":
            graph = MmapStore(root).publish(graph)
        mutation = StreamingGraph(graph).apply_batch(batch)
        new_graph = mutation.new_graph
        num_vertices = new_graph.num_vertices
        values = _arrays(algorithm, rng, num_vertices, algorithm.value_shape)
        old = SimpleNamespace(
            g=_arrays(algorithm, rng, num_vertices,
                      algorithm.aggregation_shape),
            c_prev=_arrays(algorithm, rng, num_vertices,
                           algorithm.value_shape))
        sources = np.flatnonzero(rng.random(num_vertices) < 0.5)
        with np.errstate(all="raise"):
            for snapshot in (graph, new_graph):
                own = values[:snapshot.num_vertices]
                assert aggregate_all(snapshot, algorithm, own, None).tobytes() \
                    == reference_sweep(algorithm, snapshot, own).tobytes()
            for step_batch, retract in ((mutation, False), (mutation, True),
                                        (None, False)):
                got, _ = propagate(algorithm, new_graph, values, sources, old,
                                   EngineMetrics(), False, batch=step_batch,
                                   retract=retract)
                expect = reference_step(algorithm, new_graph, values, sources,
                                        old, step_batch, retract)
                assert got.tobytes() == expect.tobytes()


def test_pagerank_sends_zero_from_a_sink():
    """A vertex with no out-edge sends 0 -- not ``inf`` or NaN -- and
    computing it raises nothing."""
    graph = CSRGraph.from_edges([(0, 1)], num_vertices=3)
    with np.errstate(all="raise"):
        sent = PageRank().message(graph, np.arange(3), np.array([2.0, 0.0,
                                                                 5.0]))
    assert sent.tolist() == [2.0, 0.0, 0.0]
