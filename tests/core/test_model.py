"""Unit tests for the IncrementalAlgorithm programming model."""

import math

import numpy as np
import pytest

from repro.algorithms import CoEM, PageRank
from repro.core.aggregation import SumAggregation
from repro.core.model import IncrementalAlgorithm
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch


class Doubler(IncrementalAlgorithm):
    """Minimal concrete algorithm for model-level tests."""

    name = "doubler"
    value_shape = ()
    edge_operator = "*w"

    def __init__(self, tolerance=None):
        super().__init__(SumAggregation(), tolerance)

    def initial_values(self, graph):
        return np.ones(graph.num_vertices)

    def apply(self, graph, aggregate_values, vertices,
              previous_values=None):
        return 2.0 * aggregate_values


class TestToleranceAndChange:
    def test_constructor_tolerance_overrides_class(self):
        assert Doubler().tolerance == 1e-12
        assert Doubler(tolerance=0.5).tolerance == 0.5

    def test_values_changed_scalar(self):
        algo = Doubler(tolerance=0.1)
        old = np.array([1.0, 1.0, 1.0])
        new = np.array([1.05, 1.5, 1.0])
        assert algo.values_changed(old, new).tolist() == [False, True, False]

    def test_values_changed_vector_any_component(self):
        algo = Doubler(tolerance=0.1)
        old = np.zeros((2, 2))
        new = np.array([[0.0, 0.5], [0.01, 0.01]])
        assert algo.values_changed(old, new).tolist() == [True, False]


def _special_rows(shape):
    """``(old, new)`` of ``shape`` with NaN, +-inf and -0.0 planted in
    the first rows and tolerance-sized moves in the rest."""
    rng = np.random.default_rng(sum(shape) + len(shape))
    old = rng.normal(size=shape)
    new = old + rng.choice([0.0, 0.05, 0.2], size=shape)
    width = math.prod(shape[1:])       # reshape(0, -1) cannot infer it
    flat_old = old.reshape(shape[0], width)
    flat_new = new.reshape(shape[0], width)
    if shape[0] >= 6 and flat_old.shape[1]:
        flat_new[0, -1] = np.nan                 # nan > tol is False
        flat_old[1, 0] = flat_new[1, 0] = np.inf  # inf - inf is NaN
        flat_old[2, 0], flat_new[2, 0] = -np.inf, np.inf
        flat_old[3, -1], flat_new[3, -1] = 0.0, -0.0
        flat_old[4] = flat_new[4] = np.nan
        flat_old[5] = flat_new[5] = -0.0
    return old, new


class TestValuesChangedEqualsTheReduction:
    """The selective-scheduling predicate ORs the per-component
    threshold one column at a time; it must equal the reduction over the
    trailing axes it replaced on every shape and special value."""

    @pytest.mark.parametrize("shape", [
        (0, 5), (7, 0), (0, 0), (9,), (9, 1), (9, 5), (9, 3, 2), (9, 2, 0),
    ], ids=str)
    def test_table(self, shape):
        algo = Doubler(tolerance=0.1)
        old, new = _special_rows(shape)
        with np.errstate(invalid="ignore"):
            expect = np.abs(new - old) > algo.tolerance
            while expect.ndim > 1:
                expect = expect.any(axis=-1)
            got = algo.values_changed(old, new)
        assert got.dtype == bool and got.shape == (shape[0],)
        assert np.array_equal(got, expect)

    def test_inputs_are_not_mutated(self):
        old, new = _special_rows((9, 5))
        before = old.tobytes(), new.tobytes()
        with np.errstate(invalid="ignore"):
            Doubler().values_changed(old, new)
        assert (old.tobytes(), new.tobytes()) == before


class TestShapes:
    def test_aggregation_shape_defaults_to_value_shape(self):
        assert Doubler().aggregation_shape == ()

    def test_identity_aggregate(self):
        identity = Doubler().identity_aggregate(4)
        assert identity.shape == (4,)
        assert np.all(identity == 0.0)


class TestExtendValues:
    def test_grows_with_initial_fill(self):
        algo = Doubler()
        small = CSRGraph.from_edges([(0, 1)], num_vertices=2)
        big = CSRGraph.from_edges([(0, 1)], num_vertices=4)
        values = algo.initial_values(small) * 7
        extended = algo.extend_values(values, big)
        assert extended.tolist() == [7.0, 7.0, 1.0, 1.0]

    def test_same_size_is_identity(self):
        algo = Doubler()
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=2)
        values = np.array([3.0, 4.0])
        assert algo.extend_values(values, graph) is values

    def test_cannot_shrink(self):
        algo = Doubler()
        graph = CSRGraph.from_edges([(0, 1)], num_vertices=2)
        with pytest.raises(ValueError):
            algo.extend_values(np.ones(5), graph)


class TestParamChangeHooks:
    def _mutate(self, batch):
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 0)],
                                    num_vertices=3)
        return StreamingGraph(graph).apply_batch(batch)

    def test_defaults_are_empty(self):
        mutation = self._mutate(MutationBatch.from_edges(additions=[(0, 2)]))
        algo = Doubler()
        assert algo.contribution_params_changed(mutation).size == 0
        assert algo.apply_params_changed(mutation).size == 0

    def test_pagerank_reports_out_changed(self):
        mutation = self._mutate(
            MutationBatch.from_edges(additions=[(0, 2)], deletions=[(1, 2)])
        )
        changed = PageRank().contribution_params_changed(mutation)
        assert changed.tolist() == [0, 1]

    def test_coem_reports_in_changed(self):
        mutation = self._mutate(
            MutationBatch.from_edges(additions=[(0, 2)], deletions=[(1, 2)])
        )
        changed = CoEM().apply_params_changed(mutation)
        assert changed.tolist() == [2]

    def test_repr(self):
        assert "sum" in repr(Doubler())


class TestMalformedAlgorithms:
    """Every dense sweep is ``runtime.exec.aggregate_all``, so the
    readable shape error reaches all engines, not only GB-Reset's first
    iteration."""

    class Broken(Doubler):
        name = "broken"

        def message(self, graph, ids, values):
            return np.ones((ids.size, 3))  # scalar algorithm!

    def test_wrong_contribution_shape_reported_clearly(self):
        from repro.graph.generators import cycle_graph
        from repro.ligra.delta import DeltaEngine

        engine = DeltaEngine(self.Broken())
        with pytest.raises(ValueError, match="broken.message"):
            engine.run(cycle_graph(4), 2)

    def test_wrong_shape_in_ligra_baseline_reported_clearly(self):
        from repro.graph.generators import cycle_graph
        from repro.ligra.engine import LigraEngine

        engine = LigraEngine(self.Broken())
        with pytest.raises(ValueError, match="broken.message"):
            engine.run(cycle_graph(4), 2)

    def test_wrong_shape_in_dense_refinement_reported_clearly(self):
        from repro.core.engine import GraphBoltEngine
        from repro.graph.generators import cycle_graph

        class Flaky(PageRank):
            name = "flaky"
            broken = False

            def message(self, graph, ids, values):
                out = super().message(graph, ids, values)
                return np.stack([out, out], axis=1) if self.broken else out

        engine = GraphBoltEngine(Flaky(), num_iterations=4)
        engine.run(cycle_graph(6))
        engine.algorithm.broken = True
        # Every vertex's out-degree changes: refinement goes dense.
        batch = MutationBatch.from_edges(
            additions=[(v, (v + 2) % 6) for v in range(6)])
        with pytest.raises(ValueError, match="flaky.message"):
            engine.apply_mutations(batch)
