"""Unit and property tests for the aggregation algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    LogProductAggregation,
    MaxAggregation,
    MinAggregation,
    ProductAggregation,
    SumAggregation,
)
from repro.core.model import IncrementalAlgorithm
from repro.graph.csr import CSRGraph
from repro.runtime.exec import aggregate_all


class TestSum:
    def setup_method(self):
        self.agg = SumAggregation()

    def test_identity(self):
        assert self.agg.identity_value() == 0.0
        assert np.all(self.agg.identity(4) == 0.0)
        assert self.agg.identity(3, (2,)).shape == (3, 2)

    def test_scatter_accumulates_duplicates(self):
        aggregate = self.agg.identity(3)
        self.agg.scatter(aggregate, np.array([1, 1, 2]),
                         np.array([1.0, 2.0, 5.0]))
        assert aggregate.tolist() == [0.0, 3.0, 5.0]

    def test_retract_undoes_scatter(self):
        aggregate = self.agg.identity(2)
        dst = np.array([0, 1, 0])
        contribs = np.array([1.0, 2.0, 3.0])
        self.agg.scatter(aggregate, dst, contribs)
        self.agg.scatter_retract(aggregate, dst, contribs)
        assert np.allclose(aggregate, 0.0)

    def test_delta(self):
        assert self.agg.delta(np.array([5.0]), np.array([2.0])) == 3.0

    def test_scatter_delta_equals_retract_then_scatter(self):
        a = self.agg.identity(3)
        b = self.agg.identity(3)
        a += 7.0
        b += 7.0
        dst = np.array([0, 2])
        old = np.array([1.0, 2.0])
        new = np.array([4.0, 8.0])
        self.agg.scatter_delta(a, dst, new, old)
        self.agg.scatter_retract(b, dst, old)
        self.agg.scatter(b, dst, new)
        assert np.allclose(a, b)

    def test_vector_scatter(self):
        aggregate = self.agg.identity(2, (3,))
        self.agg.scatter(aggregate, np.array([1, 1]),
                         np.array([[1.0, 0.0, 2.0], [1.0, 1.0, 1.0]]))
        assert aggregate[1].tolist() == [2.0, 1.0, 3.0]

    def test_name(self):
        assert self.agg.name == "sum"


class TestProduct:
    def setup_method(self):
        self.agg = ProductAggregation()

    def test_identity(self):
        assert self.agg.identity_value() == 1.0

    def test_scatter_multiplies(self):
        aggregate = self.agg.identity(2)
        self.agg.scatter(aggregate, np.array([0, 0]), np.array([2.0, 3.0]))
        assert aggregate[0] == 6.0

    def test_retract_divides(self):
        aggregate = self.agg.identity(1)
        self.agg.scatter(aggregate, np.array([0]), np.array([8.0]))
        self.agg.scatter_retract(aggregate, np.array([0]), np.array([2.0]))
        assert aggregate[0] == 4.0

    def test_delta_is_ratio(self):
        assert self.agg.delta(np.array([6.0]), np.array([2.0])) == 3.0


class TestLogProduct:
    def test_semantics_match_product_in_log_space(self):
        product = ProductAggregation()
        logprod = LogProductAggregation()
        values = np.array([2.0, 0.5, 3.0])
        dst = np.zeros(3, dtype=np.int64)

        direct = product.identity(1)
        product.scatter(direct, dst, values)
        logged = logprod.identity(1)
        logprod.scatter(logged, dst, np.log(values))
        assert np.allclose(np.exp(logged), direct)

    def test_retract(self):
        agg = LogProductAggregation()
        aggregate = agg.identity(1)
        agg.scatter(aggregate, np.array([0]), np.array([1.5]))
        agg.scatter_retract(aggregate, np.array([0]), np.array([1.5]))
        assert np.allclose(aggregate, 0.0)

    def test_deep_products_stay_finite(self):
        # 100k multiplications of 0.9 underflow directly but not in logs.
        agg = LogProductAggregation()
        aggregate = agg.identity(1)
        contribs = np.full(100_000, np.log(0.9))
        agg.scatter(aggregate, np.zeros(100_000, dtype=np.int64), contribs)
        assert np.isfinite(aggregate[0])


class TestMinMax:
    def test_min_scatter(self):
        agg = MinAggregation()
        aggregate = agg.identity(2)
        assert np.all(np.isinf(aggregate))
        agg.scatter(aggregate, np.array([0, 0, 1]),
                    np.array([3.0, 1.0, 2.0]))
        assert aggregate.tolist() == [1.0, 2.0]

    def test_max_scatter(self):
        agg = MaxAggregation()
        aggregate = agg.identity(1)
        agg.scatter(aggregate, np.array([0, 0]), np.array([3.0, 7.0]))
        assert aggregate[0] == 7.0

    def test_non_decomposable_flags(self):
        assert not MinAggregation().decomposable
        assert not MaxAggregation().decomposable
        assert SumAggregation().decomposable
        assert ProductAggregation().decomposable

    def test_retract_raises(self):
        with pytest.raises(NotImplementedError, match="non-decomposable"):
            MinAggregation().scatter_retract(
                np.zeros(1), np.array([0]), np.array([1.0])
            )

    def test_delta_raises(self):
        with pytest.raises(NotImplementedError):
            MaxAggregation().delta(np.array([1.0]), np.array([2.0]))


class TestAlgebraicLaws:
    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        st.integers(0, 1_000_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_sum_scatter_is_order_independent(self, values, seed):
        agg = SumAggregation()
        contribs = np.array(values)
        dst = np.zeros(len(values), dtype=np.int64)
        forward = agg.identity(1)
        agg.scatter(forward, dst, contribs)
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(values))
        shuffled = agg.identity(1)
        agg.scatter(shuffled, dst, contribs[order])
        assert np.allclose(forward, shuffled)

    @given(st.lists(st.floats(0.1, 10), min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_sum_retraction_inverts(self, values):
        agg = SumAggregation()
        contribs = np.array(values)
        dst = np.zeros(len(values), dtype=np.int64)
        aggregate = agg.identity(1)
        agg.scatter(aggregate, dst, contribs)
        agg.scatter_retract(aggregate, dst, contribs)
        assert np.allclose(aggregate, 0.0, atol=1e-9)

    @given(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_log_product_retraction_inverts(self, values):
        agg = LogProductAggregation()
        contribs = np.log(np.array(values))
        dst = np.zeros(len(values), dtype=np.int64)
        aggregate = agg.identity(1)
        agg.scatter(aggregate, dst, contribs)
        agg.scatter_retract(aggregate, dst, contribs)
        assert np.allclose(aggregate, 0.0, atol=1e-9)


def _same_bits(expect, got):
    """Bit-equal, except that a NaN's sign may differ: numpy's 1-D and
    N-D ``ufunc.at`` loops hand two NaN operands over in different
    orders, and x86 keeps the first one's sign."""
    nan = np.isnan(expect)
    return (np.array_equal(nan, np.isnan(got))
            and expect[~nan].tobytes() == got[~nan].tobytes())


class TestColumnScatter:
    """Every operator scatters a vector value one component column at a
    time; it must leave the bits one N-D ``ufunc.at`` call leaves."""

    OPERATORS = [
        (SumAggregation().scatter, np.add),
        (SumAggregation().scatter_retract, np.subtract),
        (ProductAggregation().scatter, np.multiply),
        (ProductAggregation().scatter_retract, np.divide),
        (MinAggregation().scatter, np.minimum),
        (MaxAggregation().scatter, np.maximum),
    ]

    @pytest.mark.parametrize("operator, ufunc", OPERATORS,
                             ids=lambda x: getattr(x, "__name__", ""))
    @pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3)], ids=str)
    @pytest.mark.parametrize("edges", [0, 1, 90])
    def test_equals_one_ufunc_at(self, operator, ufunc, shape, edges):
        rng = np.random.default_rng(edges + len(shape) + sum(shape))
        dst = rng.integers(0, 6, size=edges)     # duplicates; 6, 7 untouched
        contribs = rng.normal(size=(edges, *shape))
        specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan])
        contribs.reshape(-1)[::7] = np.resize(specials,
                                              contribs.reshape(-1)[::7].size)
        start = rng.normal(size=(8, *shape))
        start.reshape(-1)[::5] = np.resize(specials,
                                           start.reshape(-1)[::5].size)
        expect, got = start.copy(), start.copy()
        with np.errstate(all="ignore"):
            ufunc.at(expect, dst, contribs)
            operator(got, dst, contribs)
        assert _same_bits(expect, got)

    def test_fused_delta_equals_one_ufunc_at(self):
        rng = np.random.default_rng(5)
        dst = rng.integers(0, 4, size=30)
        new, old = rng.normal(size=(2, 30, 3, 2))
        expect = rng.normal(size=(4, 3, 2))
        got = expect.copy()
        np.add.at(expect, dst, new - old)
        SumAggregation().scatter_delta(got, dst, new, old)
        assert expect.tobytes() == got.tobytes()


class _Passthrough(IncrementalAlgorithm):
    """A source's value is its contribution, under any aggregation."""

    def __init__(self, aggregation, shape):
        super().__init__(aggregation)
        self.value_shape = shape

    def initial_values(self, graph):
        raise NotImplementedError

    def contributions(self, graph, src_values, src, dst, weight):
        return src_values

    def apply(self, graph, aggregate_values, vertices,
              previous_values=None):
        raise NotImplementedError


class TestAggregateFresh:
    """A dense sweep's reduction onto the identity
    (:func:`~repro.runtime.exec.aggregate_all`'s generic arm): same bits
    as the scatter, whatever the operator and the component layout."""

    @pytest.mark.parametrize("agg", [
        SumAggregation(), LogProductAggregation(),
        ProductAggregation(), MinAggregation(), MaxAggregation(),
    ], ids=lambda agg: agg.name)
    @pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3)])
    def test_equals_scatter_onto_identity(self, agg, shape):
        rng = np.random.default_rng(len(shape) + sum(shape))
        # Source i's one edge is edge i in CSR order; targets 60..66,
        # so vertices 67, 68 get nothing.
        dst = 60 + rng.integers(0, 7, size=60)
        contribs = rng.normal(size=(60, *shape))
        contribs[::5] = -0.0
        graph = CSRGraph(69, np.arange(60), dst)
        values = np.concatenate([contribs, np.ones((9, *shape))])
        expect = agg.identity(69, shape)
        agg.scatter(expect, dst, contribs)
        got = aggregate_all(graph, _Passthrough(agg, shape), values, None)
        assert np.array_equal(expect, got)
        assert np.array_equal(np.signbit(expect), np.signbit(got))
