"""The central correctness contract (paper Theorem 4.1).

For every algorithm, graph, and mutation batch, dependency-driven
refinement followed by hybrid forward execution must produce the same
values as a from-scratch synchronous run on the mutated graph -- across
additions, deletions, mixed batches, weight replacement, vertex growth,
and multi-batch streams.
"""

import numpy as np
import pytest

from repro.algorithms import (
    BFS,
    BeliefPropagation,
    CoEM,
    CollaborativeFiltering,
    ConnectedComponents,
    LabelPropagation,
    PageRank,
    SSSP,
)
from repro.core.engine import GraphBoltEngine
from repro.core.refinement import _Refiner
from repro.graph.generators import bipartite_graph, rmat
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.ligra.delta import DeltaEngine, ITERATION_CAP
from repro.ligra.engine import LigraEngine
from repro.obs import trace
from repro.obs.trace import Tracer
from repro.runtime.metrics import EngineMetrics
from repro.runtime.validation import assert_same_results
from repro.testing.workloads import FUZZ_ALGORITHMS
from tests.conftest import edge_weights, make_random_batch, pin_refine_modes

CASES = [
    pytest.param(lambda: PageRank(), "rmat", 10, id="pagerank"),
    pytest.param(lambda: LabelPropagation(num_labels=4), "rmat", 10,
                 id="label_propagation"),
    pytest.param(lambda: CoEM(), "rmat", 10, id="coem"),
    pytest.param(lambda: BeliefPropagation(num_states=3), "rmat", 10,
                 id="belief_propagation"),
    pytest.param(lambda: CollaborativeFiltering(num_factors=3), "bipartite",
                 10, id="collaborative_filtering"),
    pytest.param(lambda: SSSP(source=0), "rmat", 40, id="sssp"),
    pytest.param(lambda: BFS(source=0), "rmat", 40, id="bfs"),
    pytest.param(lambda: ConnectedComponents(), "rmat", 40, id="cc"),
]


def build_graph(kind):
    if kind == "bipartite":
        return bipartite_graph(80, 40, 5, seed=7)
    return rmat(scale=8, edge_factor=6, seed=3, weighted=True)


def check(engine, factory, iterations, tolerance=1e-6):
    truth = LigraEngine(factory()).run(engine.graph, iterations)
    actual = engine.values
    filled_truth = np.where(np.isinf(truth), -1.0, truth)
    filled_actual = np.where(np.isinf(actual), -1.0, actual)
    assert_same_results(filled_actual, filled_truth, tolerance=tolerance)


@pytest.mark.parametrize("factory,kind,iterations", CASES)
class TestRefinementEqualsScratch:
    def make_engine(self, factory, iterations, graph, **kwargs):
        engine = GraphBoltEngine(factory(), num_iterations=iterations,
                                 **kwargs)
        engine.run(graph)
        return engine

    def test_additions_only(self, factory, kind, iterations, rng):
        graph = build_graph(kind)
        engine = self.make_engine(factory, iterations, graph)
        batch = make_random_batch(engine.graph, rng, num_adds=25,
                                  num_dels=0)
        engine.apply_mutations(batch)
        check(engine, factory, iterations)

    def test_deletions_only(self, factory, kind, iterations, rng):
        graph = build_graph(kind)
        engine = self.make_engine(factory, iterations, graph)
        batch = make_random_batch(engine.graph, rng, num_adds=0,
                                  num_dels=25)
        engine.apply_mutations(batch)
        check(engine, factory, iterations)

    def test_mixed_stream(self, factory, kind, iterations, rng):
        graph = build_graph(kind)
        engine = self.make_engine(factory, iterations, graph)
        for _ in range(4):
            batch = make_random_batch(engine.graph, rng, num_adds=15,
                                      num_dels=15)
            engine.apply_mutations(batch)
        check(engine, factory, iterations)

    def test_single_edge_mutations(self, factory, kind, iterations, rng):
        graph = build_graph(kind)
        engine = self.make_engine(factory, iterations, graph)
        for _ in range(3):
            batch = make_random_batch(engine.graph, rng, num_adds=1,
                                      num_dels=0)
            engine.apply_mutations(batch)
        check(engine, factory, iterations)

    def test_vertex_growth(self, factory, kind, iterations, rng):
        graph = build_graph(kind)
        engine = self.make_engine(factory, iterations, graph)
        fresh = engine.graph.num_vertices + 2
        batch = MutationBatch.from_edges(
            additions=[(0, fresh - 1), (fresh - 1, 1), (fresh - 2, 0)],
            grow_to=fresh,
        )
        engine.apply_mutations(batch)
        assert engine.graph.num_vertices == fresh
        check(engine, factory, iterations)

    def test_weight_replacement(self, factory, kind, iterations, rng):
        graph = build_graph(kind)
        engine = self.make_engine(factory, iterations, graph)
        src, dst, _ = engine.graph.all_edges()
        edge = (int(src[0]), int(dst[0]))
        batch = MutationBatch.from_edges(
            additions=[edge], deletions=[edge], add_weights=[2.25]
        )
        engine.apply_mutations(batch)
        assert edge_weights(engine.graph)[edge] == 2.25
        check(engine, factory, iterations)

    def test_pruned_horizon_hybrid(self, factory, kind, iterations, rng):
        graph = build_graph(kind)
        engine = self.make_engine(
            factory, iterations, graph,
            horizon=max(iterations // 3, 1),
        )
        for _ in range(3):
            batch = make_random_batch(engine.graph, rng, num_adds=10,
                                      num_dels=10)
            engine.apply_mutations(batch)
        check(engine, factory, iterations)
        if iterations == 10:
            # Fixed-window algorithms must actually exercise the hybrid
            # forward phase; converging path algorithms may finish
            # within the refined window (an empty frontier), which is
            # the hybrid loop's early exit.
            assert engine.metrics.hybrid_iterations > 0

    def test_empty_batch_is_noop(self, factory, kind, iterations, rng):
        graph = build_graph(kind)
        engine = self.make_engine(factory, iterations, graph)
        before = engine.values.copy()
        engine.apply_mutations(MutationBatch.empty())
        assert np.array_equal(
            np.where(np.isinf(engine.values), -1, engine.values),
            np.where(np.isinf(before), -1, before),
        )

    def test_retract_propagate_mode(self, factory, kind, iterations, rng):
        algorithm = factory()
        if not algorithm.aggregation.decomposable:
            pytest.skip("RP mode applies to decomposable aggregations")
        graph = build_graph(kind)
        engine = GraphBoltEngine(algorithm, num_iterations=iterations,
                                 retract=True)
        engine.run(graph)
        batch = make_random_batch(engine.graph, rng, num_adds=15,
                                  num_dels=15)
        engine.apply_mutations(batch)
        check(engine, factory, iterations)

    def test_convergence_mode(self, factory, kind, iterations, rng):
        graph = build_graph(kind)
        engine = GraphBoltEngine(factory(), ITERATION_CAP)
        engine.run(graph)
        batch = make_random_batch(engine.graph, rng, num_adds=15,
                                  num_dels=15)
        engine.apply_mutations(batch)
        truth = LigraEngine(factory()).run(engine.graph, ITERATION_CAP)
        filled_truth = np.where(np.isinf(truth), -1.0, truth)
        filled_actual = np.where(np.isinf(engine.values), -1.0,
                                 engine.values)
        assert_same_results(filled_actual, filled_truth, tolerance=1e-5)


class TestRefinementWorkReduction:
    def test_small_batches_touch_few_edges(self, rng):
        graph = rmat(scale=10, edge_factor=8, seed=11, weighted=True)
        algorithm = BeliefPropagation(num_states=2, tolerance=1e-4)
        engine = GraphBoltEngine(algorithm, num_iterations=10)
        engine.run(graph)
        before = engine.metrics.snapshot()
        batch = make_random_batch(engine.graph, rng, num_adds=2, num_dels=2)
        engine.apply_mutations(batch)
        delta = engine.metrics.delta_since(before)
        full_work = graph.num_edges * 10
        assert delta.edge_computations < full_work * 0.5

    def test_forced_dense_always_rebuilds(self, rng, monkeypatch):
        pin_refine_modes(monkeypatch, True)
        graph = rmat(scale=7, edge_factor=4, seed=2, weighted=True)
        engine = GraphBoltEngine(PageRank(), num_iterations=5)
        engine.run(graph)
        before = engine.metrics.snapshot()
        engine.apply_mutations(
            make_random_batch(engine.graph, rng, num_adds=1, num_dels=0)
        )
        delta = engine.metrics.delta_since(before)
        # Five refinement iterations, each a dense sweep.
        assert delta.edge_computations >= engine.graph.num_edges * 5
        check(engine, lambda: PageRank(), 5)

    def test_forced_dense_matches_forced_sparse(self, monkeypatch):
        graph = rmat(scale=7, edge_factor=4, seed=2, weighted=True)
        results = []
        for dense in (True, False):
            pin_refine_modes(monkeypatch, dense)
            engine = GraphBoltEngine(LabelPropagation(), num_iterations=8)
            engine.run(graph)
            rng_local = np.random.default_rng(99)
            engine.apply_mutations(
                make_random_batch(engine.graph, rng_local,
                                  num_adds=10, num_dels=10)
            )
            results.append(engine.values)
        assert_same_results(results[0], results[1], tolerance=1e-8)

    def test_dense_apply_result_is_coerced_and_private(self, rng,
                                                       monkeypatch):
        # A dense iteration keeps apply's whole-array result as the new
        # values: a narrower dtype or an input handed back must not leak
        # into the engine state or the history.
        class Float32PageRank(PageRank):
            def apply(self, graph, aggregate_values, vertices,
                      previous_values=None):
                return super().apply(graph, aggregate_values, vertices,
                                     previous_values).astype(np.float32)

        class IdentityApply(PageRank):
            def apply(self, graph, aggregate_values, vertices,
                      previous_values=None):
                return aggregate_values

        pin_refine_modes(monkeypatch, True)
        for factory in (Float32PageRank, IdentityApply):
            engine = GraphBoltEngine(factory(), num_iterations=4)
            engine.run(rmat(scale=6, edge_factor=4, seed=2, weighted=True))
            engine.apply_mutations(
                make_random_batch(engine.graph, rng, num_adds=2, num_dels=1)
            )
            assert engine.values.dtype == np.float64
            assert all(record.c_values.dtype == np.float64
                       for record in engine.history.records)
            restart = DeltaEngine(factory()).run(engine.graph, 4)
            assert_same_results(engine.values, restart, tolerance=1e-4)


class TestNoNumpySetRoutines:
    """The incremental path and a GB-Reset restart do their vertex-id
    algebra in ``repro.ligra.frontier``: numpy >= 2.3 hashes inside
    ``unique`` and everything built on it, which costs more than the
    frontiers being merged."""

    FORBIDDEN = ("unique", "union1d", "intersect1d", "setdiff1d", "isin")

    @pytest.mark.parametrize("factory,iterations", [
        pytest.param(lambda: PageRank(), 10, id="pagerank"),
        pytest.param(lambda: LabelPropagation(num_labels=4), 10,
                     id="label_propagation"),
        pytest.param(lambda: SSSP(source=0), 40, id="sssp"),
        pytest.param(lambda: CoEM(), 10, id="coem"),
    ])
    def test_streaming_and_restart(self, factory, iterations, rng,
                                   monkeypatch):
        graph = rmat(scale=7, edge_factor=4, seed=3, weighted=True)
        # Generators and batch construction may still use numpy's set
        # routines, so the stream is drawn before they are forbidden.
        dry_run = StreamingGraph(graph)
        batches = []
        for _ in range(3):
            batches.append(make_random_batch(dry_run.graph, rng,
                                             num_adds=10, num_dels=10))
            dry_run.apply_batch(batches[-1])

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy set routine on the engine path")

        for name in self.FORBIDDEN:
            monkeypatch.setattr(np, name, forbidden)
        # Both refinement modes, whatever these small graphs would pick.
        pin_refine_modes(monkeypatch, True, False, False)

        tracer = Tracer()
        with trace.activated(tracer):
            engine = GraphBoltEngine(factory(), num_iterations=iterations)
            engine.run(graph)
            for batch in batches:
                engine.apply_mutations(batch)
        restart = DeltaEngine(factory()).run(engine.graph, iterations)

        modes = {
            event["tags"]["mode"] for event in tracer.events()
            if event["name"] == "iteration" and "mode" in event["tags"]
        }
        assert "dense" in modes
        assert modes - {"dense"}
        assert_same_results(np.where(np.isinf(engine.values), -1.0,
                                     engine.values),
                            np.where(np.isinf(restart), -1.0, restart),
                            tolerance=1e-6)


class TestSwitchPricing:
    """The sparse/dense switch prices both modes per edge: LP's wide
    values make a sparse iteration dear, PageRank's scalar ones cheap."""

    @pytest.mark.parametrize("factory,fraction,dense", [
        pytest.param(LabelPropagation, 0.29, True, id="lp-k5-0.29"),
        pytest.param(LabelPropagation, 0.10, False, id="lp-k5-0.10"),
        pytest.param(PageRank, 0.20, False, id="pagerank-0.20"),
        pytest.param(PageRank, 0.35, True, id="pagerank-0.35"),
    ])
    def test_decision(self, factory, fraction, dense):
        graph = rmat(scale=10, edge_factor=8, seed=5, weighted=True)
        engine = GraphBoltEngine(factory(), num_iterations=2)
        engine.run(graph)
        mutation = StreamingGraph(graph).apply_batch(
            MutationBatch.from_edges(additions=[(0, 1)]))
        refiner = _Refiner(engine.algorithm, mutation, engine.history,
                           EngineMetrics(), "delta")
        # Sources in id order until their out-edges cover the fraction.
        reach = np.cumsum(mutation.new_graph.out_degrees())
        count = int(np.searchsorted(reach, fraction * reach[-1])) + 1
        sources = np.arange(count, dtype=np.int64)
        affected = refiner.batch_edges + int(reach[count - 1])
        assert affected / mutation.new_graph.num_edges == pytest.approx(
            fraction, abs=0.01)
        assert refiner._dense_preferred(sources) == dense

    def test_a_mask_prices_as_its_ids(self, rng):
        """After a dense iteration the switch prices the mask its
        compare filled: run to the end, the same integer -- so the same
        decision -- as the sorted ids a sparse iteration hands it;
        stopped short, only where the ids price dense too."""
        graph = rmat(scale=10, edge_factor=8, seed=5, weighted=True)
        engine = GraphBoltEngine(PageRank(), num_iterations=2)
        engine.run(graph)
        mutation = StreamingGraph(graph).apply_batch(
            make_random_batch(graph, rng, 30, 30))
        refiner = _Refiner(engine.algorithm, mutation, engine.history,
                           EngineMetrics(), "delta")
        assert refiner.contrib_params.size
        old = np.zeros(graph.num_vertices)
        stopped = []
        for fraction in (0.0, 0.001, 0.05, 0.2, 0.4, 1.0):
            mask = rng.random(graph.num_vertices) < fraction
            ids = np.flatnonzero(mask)
            diverged = np.zeros(graph.num_vertices, dtype=bool)
            compared = refiner._compare(old, mask.astype(float), diverged)
            assert np.array_equal(diverged[:compared], mask[:compared])
            assert not diverged[compared:].any()
            sources = refiner._sources(diverged)
            assert sources.dtype == bool and diverged is not sources
            dense = refiner._dense_preferred(refiner._sources(ids))
            assert refiner._dense_preferred(sources) == dense
            stopped.append(compared < graph.num_vertices)
            if stopped[-1]:
                assert dense
            else:
                assert np.array_equal(np.flatnonzero(sources),
                                      refiner._sources(ids))
                degrees = mutation.new_graph.out_degrees()
                assert refiner.priced == refiner.batch_edges + int(
                    degrees[refiner._sources(ids)].sum())
        assert any(stopped) and not all(stopped)
        empty = np.zeros(graph.num_vertices, dtype=bool)
        refiner.contrib_params = np.empty(0, dtype=np.int64)
        assert refiner._sources(empty) is empty
        assert not refiner._dense_preferred(empty)


class TestReusedInitialValues:
    """Refinement reuses the tracked run's initial values and identity
    while the vertex count holds: they equal what the algorithm derives
    for the new snapshot, bit for bit."""

    @pytest.mark.parametrize("key", sorted(FUZZ_ALGORITHMS))
    def test_equal_initial_values_of_new_graph(self, key, rng,
                                               monkeypatch):
        profile = FUZZ_ALGORITHMS[key]
        seen = []
        init = _Refiner.__init__

        def spy(self, algorithm, mutation, history, *args):
            init(self, algorithm, mutation, history, *args)
            seen.append((self.initial is history.initial_values,
                         self.initial, self.identity, self.new_graph))

        monkeypatch.setattr(_Refiner, "__init__", spy)
        engine = GraphBoltEngine(profile.factory(),
                                 num_iterations=profile.num_iterations)
        engine.run(rmat(scale=7, edge_factor=4, seed=2, weighted=True))
        for grow in (False, True, False):
            fresh = engine.graph.num_vertices + (3 if grow else 0)
            batch = make_random_batch(engine.graph, rng, num_adds=4,
                                      num_dels=2)
            if grow:
                batch = MutationBatch.from_edges(
                    additions=[(0, fresh - 1), (fresh - 2, 1)],
                    grow_to=fresh,
                )
            engine.apply_mutations(batch)

        assert [reused for reused, *_ in seen] == [True, False, True]
        algorithm = profile.factory()
        for _, initial, identity, graph in seen:
            expected = algorithm.initial_values(graph)
            assert initial.shape == expected.shape
            assert initial.tobytes() == expected.tobytes()
            assert identity.tobytes() == algorithm.identity_aggregate(
                graph.num_vertices).tobytes()
