"""Unit tests for the frontier: its id algebra, and the one sparse/dense
switch a step from it takes."""

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.graph.csr import CSRGraph
from repro.ligra.delta import dense_preferred, prices_dense
from repro.ligra.frontier import (
    SORT_MERGE_RATIO,
    member_mask,
    union_ids,
)


class TestConstruction:
    def test_from_ids_dedups_and_sorts(self):
        assert union_ids(10, [5, 2, 5, 7]).tolist() == [2, 5, 7]

    def test_out_of_range_ids(self):
        with pytest.raises(ValueError):
            union_ids(3, [5])


class TestViews:
    def test_mask_from_ids(self):
        mask = member_mask(4, np.arange(4), [0, 3])
        assert mask.tolist() == [True, False, False, True]

    def test_contains(self):
        assert member_mask(5, [2, 3], [2]).tolist() == [True, False]


class TestSetAlgebra:
    def test_union(self):
        assert union_ids(6, [0, 1], [1, 5]).tolist() == [0, 1, 5]

    def test_intersect(self):
        a = np.array([0, 1, 3])
        assert a[member_mask(6, a, [1, 3, 5])].tolist() == [1, 3]

    def test_difference(self):
        a = np.array([0, 1, 3])
        assert a[~member_mask(6, a, [1])].tolist() == [0, 3]

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            union_ids(4, [0], [4])
        with pytest.raises(ValueError):
            member_mask(4, [0], [4])


def _random_ids(rng, num_vertices, size):
    """Unsorted ids with duplicates; sometimes empty, sometimes forced
    to include the last vertex."""
    ids = rng.integers(0, num_vertices, size=size)
    if size and rng.random() < 0.5:
        ids[rng.integers(size)] = num_vertices - 1
    return ids


# Operand sizes on both sides of the sort-merge / bitmap switch.
REGIMES = [
    pytest.param(64 * SORT_MERGE_RATIO, 8, id="sort-merge"),
    pytest.param(256, 40, id="bitmap"),
]


@pytest.mark.parametrize("num_vertices,max_size", REGIMES)
class TestIdAlgebraMatchesNumpy:
    """numpy's set routines are the oracle: same values, int64, sorted,
    unique -- over empty, duplicated and unsorted operands."""

    def test_union_of_k_operands(self, num_vertices, max_size):
        rng = np.random.default_rng(20260926)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            arrays = [
                _random_ids(rng, num_vertices,
                            int(rng.integers(0, max_size + 1)))
                for _ in range(k)
            ]
            result = union_ids(num_vertices, *arrays)
            expected = np.unique(np.concatenate(arrays))
            assert result.dtype == np.int64
            assert result.tolist() == expected.tolist()
            if k == 2:
                assert result.tolist() == np.union1d(*arrays).tolist()

    def test_membership_intersection_difference(self, num_vertices,
                                                max_size):
        rng = np.random.default_rng(20260927)
        for _ in range(200):
            a = _random_ids(rng, num_vertices,
                            int(rng.integers(0, max_size + 1)))
            b = _random_ids(rng, num_vertices,
                            int(rng.integers(0, max_size + 1)))
            mask = member_mask(num_vertices, a, b)
            assert mask.dtype == bool
            assert mask.tolist() == np.isin(a, b).tolist()
            left = union_ids(num_vertices, a)
            inside = member_mask(num_vertices, left, b)
            for ours, oracle in (
                (union_ids(num_vertices, a, b), np.union1d(a, b)),
                (left[inside], np.intersect1d(a, b)),
                (left[~inside], np.setdiff1d(a, b)),
            ):
                assert ours.dtype == np.int64
                assert ours.tolist() == oracle.tolist()

    def test_result_is_a_new_array(self, num_vertices, max_size):
        ids = np.arange(max_size, dtype=np.int64)
        result = union_ids(num_vertices, ids)
        result[0] = 7
        assert ids[0] == 0

    @pytest.mark.parametrize("bad", [-1, "num_vertices"])
    def test_out_of_range_ids_raise(self, num_vertices, max_size, bad):
        bad = num_vertices if bad == "num_vertices" else bad
        good = np.arange(max_size, dtype=np.int64)
        with pytest.raises(ValueError):
            union_ids(num_vertices, good, [bad])
        with pytest.raises(ValueError):
            member_mask(num_vertices, [bad], good)
        with pytest.raises(ValueError):
            member_mask(num_vertices, good, [bad])


class TestDensityHeuristic:
    """PageRank's measured prices: a sparse edge costs 35.8 ns, a dense
    one 11.3, so a frontier goes dense past 0.32 of the edges."""

    @staticmethod
    def ring(num_vertices):
        return CSRGraph.from_edges(
            [(i, (i + 1) % num_vertices) for i in range(num_vertices)],
            num_vertices=num_vertices,
        )

    def test_out_edge_count(self):
        graph = CSRGraph.from_edges([(0, 1), (0, 2), (1, 2)],
                                    num_vertices=3)
        for edges in range(4):
            assert (dense_preferred(PageRank(), graph, np.array([0]), edges)
                    == prices_dense(PageRank(), graph, 2 + edges))

    def test_small_frontier_is_sparse(self):
        graph = self.ring(50)
        assert not dense_preferred(PageRank(), graph, np.array([0]))
        assert not dense_preferred(PageRank(), graph, np.arange(15))
        assert dense_preferred(PageRank(), graph, np.arange(15), edges=1)

    def test_large_frontier_is_dense(self):
        graph = self.ring(50)
        assert dense_preferred(PageRank(), graph, np.arange(50))
        # A mask comes priced: its count is the whole price.
        mask = np.ones(50, dtype=bool)
        assert dense_preferred(PageRank(), graph, mask, edges=50)
        assert not dense_preferred(PageRank(), graph, mask, edges=15)

    def test_empty_graph_never_dense(self):
        graph = CSRGraph.from_edges([], num_vertices=5)
        assert not dense_preferred(PageRank(), graph, np.arange(5),
                                   edges=100)

    def test_no_source_is_never_dense(self):
        graph = self.ring(50)
        empty = np.empty(0, dtype=np.int64)
        assert not dense_preferred(PageRank(), graph, empty, edges=50)
        assert not dense_preferred(PageRank(), graph,
                                   np.zeros(50, dtype=bool), edges=50)
