"""Microbenchmarks of the substrate primitives.

These are conventional pytest-benchmark measurements (multiple rounds)
of the hot paths every experiment sits on: CSR construction, batch
structure adjustment (the paper's two-pass scheme, section 4.1),
frontier edge gathering, one delta iteration, one refinement pass, and
the dense sweep every engine shares (``repro.runtime.exec.aggregate_all``:
the sparse product of the edge-weighted algorithms and the generic
edge-order path; report-only).
"""

import numpy as np
import pytest

from repro.algorithms import Adsorption, CoEM, LabelPropagation, PageRank
from repro.bench.workloads import uniform_batch
from repro.core.engine import GraphBoltEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.mutable import StreamingGraph
from repro.ligra.delta import DeltaEngine
from repro.ligra.frontier import VertexSubset
from repro.runtime.exec import aggregate_all, gather_out


@pytest.fixture(scope="module")
def graph():
    return rmat(scale=12, edge_factor=12, seed=1, weighted=True)


def test_micro_csr_construction(benchmark, graph):
    src, dst, weight = graph.all_edges()
    benchmark(CSRGraph, graph.num_vertices, src, dst, weight)


def test_micro_structure_adjustment(benchmark, graph):
    batch = uniform_batch(graph, 100, seed=2)

    def adjust():
        StreamingGraph(graph).apply_batch(batch)

    benchmark(adjust)


def test_micro_edge_map_gather(benchmark, graph):
    rng = np.random.default_rng(3)
    frontier = VertexSubset.from_ids(
        graph.num_vertices,
        rng.choice(graph.num_vertices, size=graph.num_vertices // 20,
                   replace=False),
    )
    benchmark(gather_out, graph, frontier.ids)


def test_micro_delta_iteration(benchmark, graph):
    engine = DeltaEngine(PageRank())
    state = engine.initial_state(graph)
    engine.step(graph, state)

    def one_step():
        engine.step(graph, state.copy())

    benchmark(one_step)


def test_micro_refinement_pass(benchmark, graph):
    engine = GraphBoltEngine(LabelPropagation(num_labels=3, seed_every=3,
                                              tolerance=1e-3),
                             num_iterations=10)
    engine.run(graph)
    counter = iter(range(10_000))

    def apply_once():
        engine.apply_mutations(
            uniform_batch(engine.graph, 10, seed=next(counter))
        )

    benchmark.pedantic(apply_once, rounds=5, iterations=1)


@pytest.mark.parametrize("factory", [
    # edge_weighted: one sparse product, vector- and scalar-valued.
    pytest.param(LabelPropagation, id="lp-k5"),
    pytest.param(Adsorption, id="adsorption"),
    pytest.param(CoEM, id="coem"),
    # The generic take -> contributions -> aggregate_fresh path.
    pytest.param(PageRank, id="pagerank"),
])
def test_micro_dense_sweep(benchmark, factory):
    graph = rmat(scale=13, edge_factor=16, seed=1, weighted=True)
    algorithm = factory()
    values = algorithm.initial_values(graph)
    aggregate = benchmark(aggregate_all, graph, algorithm, values, None)
    assert aggregate.shape == (graph.num_vertices,
                               *algorithm.aggregation_shape)


def test_micro_vector_vertex_pass(benchmark):
    """The per-vertex half of a dense LP iteration: ``apply`` over every
    vertex and the change predicate against the previous values."""
    graph = rmat(scale=13, edge_factor=16, seed=1, weighted=True)
    algorithm = LabelPropagation()
    values = algorithm.initial_values(graph)
    aggregate = aggregate_all(graph, algorithm, values, None)
    vertices = np.arange(graph.num_vertices, dtype=np.int64)

    def vertex_pass():
        applied = algorithm.apply(graph, aggregate, vertices)
        return algorithm.values_changed(values, applied)

    assert benchmark(vertex_pass).shape == (graph.num_vertices,)


def test_micro_sparse_scatter(benchmark):
    """A fused ⋃△ over one out-edge frontier of a vector-valued
    aggregate (LP, K = 5): the 2-D ``scatter_delta``."""
    graph = rmat(scale=13, edge_factor=16, seed=1, weighted=True)
    algorithm = LabelPropagation()
    rng = np.random.default_rng(3)
    src, dst, weight = gather_out(
        graph, np.flatnonzero(rng.random(graph.num_vertices) < 0.3))
    old = algorithm.initial_values(graph)
    new = old + rng.normal(scale=1e-3, size=old.shape)
    old_contribs = algorithm.contributions(graph, old[src], src, dst, weight)
    new_contribs = algorithm.contributions(graph, new[src], src, dst, weight)
    aggregate = aggregate_all(graph, algorithm, old, None)
    benchmark(algorithm.aggregation.scatter_delta, aggregate, dst,
              new_contribs, old_contribs)
