"""Microbenchmarks of the substrate primitives.

These are conventional pytest-benchmark measurements (multiple rounds)
of the hot paths every experiment sits on: CSR construction, batch
structure adjustment (the paper's two-pass scheme, section 4.1),
frontier edge gathering, one delta iteration, one refinement pass, and
the dense sweep every engine shares (``repro.runtime.exec.aggregate_all``:
the sparse product of the edge-weighted algorithms and the generic
edge-order path; report-only), and the per-edge costs refinement's
sparse/dense switch is priced with (report-only).
"""

import statistics

import numpy as np
import pytest

from repro.algorithms import (
    SSSP,
    Adsorption,
    CoEM,
    CollaborativeFiltering,
    LabelPropagation,
    PageRank,
)
from repro.algorithms.registry import REGISTRY
from repro.bench.workloads import mixed_stream, uniform_batch
from repro.core.engine import GraphBoltEngine
from repro.core.history import DependencyHistory
from repro.core.refinement import _Refiner, refine
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.mutable import StreamingGraph
from repro.ligra.delta import DeltaEngine
from repro.obs import trace
from repro.obs.trace import Tracer
from repro.runtime.exec import aggregate_all, gather_out
from repro.runtime.metrics import EngineMetrics


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
    frontier = np.sort(rng.choice(graph.num_vertices,
                                  size=graph.num_vertices // 20,
                                  replace=False))
    benchmark(gather_out, graph, frontier)


def test_micro_delta_iteration(benchmark, graph):
    engine = DeltaEngine(PageRank())
    state = engine.initial_state(graph)
    engine.step(graph, state)

    def one_step():
        engine.step(graph, state.copy())

    benchmark(one_step)


def test_micro_refinement_pass(benchmark, graph):
    engine = GraphBoltEngine(REGISTRY["LP"].factory(), num_iterations=10)
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
    # The generic take -> contributions -> scatter path.
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


@pytest.mark.parametrize("factory,iterations", [
    pytest.param(PageRank, 10, id="pagerank"),           # generic sweep
    pytest.param(LabelPropagation, 10, id="lp-k5"),      # product, K = 5
    pytest.param(CoEM, 10, id="coem"),                   # product, scalar
    pytest.param(lambda: SSSP(source=0), 40, id="sssp"),  # min re-evaluation
    # Generic and 12 wide: the generic sweep's cost per component.
    pytest.param(lambda: CollaborativeFiltering(num_factors=3), 10,
                 id="cf-k3"),
])
def test_micro_refine_switch_costs(benchmark, monkeypatch, factory,
                                   iterations):
    """What a whole refinement iteration costs per edge in each mode --
    the numbers ``repro.ligra.delta``'s ``SPARSE_NS_PER_EDGE`` /
    ``DENSE_NS_PER_EDGE`` are taken from (every engine's switch prices
    with them).  One batch is refined with every iteration forced
    sparse, then forced dense, and both are timed at the one iteration
    that affects the most edges short of half the graph (where the
    switch decides): the sparse one charged per affected edge, the
    dense one per graph edge.  A dense iteration does not cost the same
    everywhere in the window (the first of a refine is dearer), so it
    is priced where it replaces the sparse one."""
    # The paper's stream (section 5.1: half the edges loaded, the rest
    # added, 30% deletions) at the e2e workloads' scale: at scale 13 an
    # iteration's fixed cost, spread over a quarter of the edges, adds
    # half again to a sparse iteration's price per edge.
    # 1000 mutations put the widest sparse iteration short of half the
    # graph at 0.29-0.33 E, around where the switch decides.
    graph, (batch,) = mixed_stream(
        rmat(scale=15, edge_factor=16, seed=1, weighted=True), 1, 1000,
        seed=2)
    engine = GraphBoltEngine(factory(), num_iterations=iterations)
    engine.run(graph)
    mutation = StreamingGraph(graph).apply_batch(batch)
    affected = []

    degrees = mutation.new_graph.out_degrees()

    def forced(dense):
        def preferred(refiner, sources):
            affected.append(
                refiner.priced if sources.dtype == bool
                else refiner.batch_edges + int(degrees[sources].sum()))
            return dense
        return preferred

    def refine_ns(dense):
        """Per iteration: (affected edges, wall ns)."""
        monkeypatch.setattr(_Refiner, "_dense_preferred", forced(dense))
        affected.clear()
        tracer = Tracer()
        # Refining consumes a history: each round replays a copy.
        history = engine.history
        replayed = DependencyHistory(history.initial_values,
                                     history.identity_aggregate)
        replayed.records = list(history.records)
        with trace.activated(tracer):
            refine(engine.algorithm, mutation, replayed, EngineMetrics())
        walls = [event["duration"] * 1e9 for event in tracer.events()
                 if event["name"] == "iteration"]
        return list(zip(affected, walls))

    rounds = []
    benchmark.pedantic(
        lambda: rounds.append((refine_ns(False), refine_ns(True))),
        rounds=7, iterations=1)
    num_edges = mutation.new_graph.num_edges
    sparse_iterations = rounds[0][0]
    index = max((i for i, (edges, _) in enumerate(sparse_iterations)
                 if edges <= num_edges / 2),
                key=lambda i: sparse_iterations[i][0])
    edges = sparse_iterations[index][0]
    sparse_ns = statistics.median(
        sparse[index][1] for sparse, _ in rounds) / edges
    dense_ns = statistics.median(
        dense[index][1] for _, dense in rounds) / num_edges
    benchmark.extra_info.update(
        iteration=index + 1, affected_fraction=edges / num_edges,
        sparse_ns_per_edge=sparse_ns, dense_ns_per_edge=dense_ns,
        break_even_fraction=dense_ns / sparse_ns,
    )
    print(benchmark.extra_info)
    assert sparse_ns > 0 and dense_ns > 0
