"""Unit tests for VertexSubset."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.ligra.frontier import (
    SORT_MERGE_RATIO,
    VertexSubset,
    member_mask,
    union_ids,
)


class TestConstruction:
    def test_from_ids_dedups_and_sorts(self):
        subset = VertexSubset.from_ids(10, [5, 2, 5, 7])
        assert subset.ids.tolist() == [2, 5, 7]
        assert len(subset) == 3

    def test_from_sorted_ids_trusts_input(self):
        subset = VertexSubset.from_sorted_ids(10, np.array([2, 5, 7]))
        assert subset.ids.tolist() == [2, 5, 7]
        assert subset.mask.tolist() == [
            False, False, True, False, False, True, False, True, False,
            False,
        ]
        assert len(subset) == 3

    def test_from_mask(self):
        mask = np.zeros(6, dtype=bool)
        mask[[1, 4]] = True
        subset = VertexSubset(mask.size, mask=mask)
        assert subset.ids.tolist() == [1, 4]
        assert subset.num_vertices == 6

    def test_empty_and_full(self):
        assert len(VertexSubset.empty(5)) == 0
        assert not VertexSubset.empty(5)
        assert len(VertexSubset.full(5)) == 5

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            VertexSubset(5)
        with pytest.raises(ValueError):
            VertexSubset(5, ids=np.array([1]), mask=np.ones(5, dtype=bool))

    def test_out_of_range_ids(self):
        with pytest.raises(ValueError):
            VertexSubset.from_ids(3, [5])

    def test_mask_size_mismatch(self):
        with pytest.raises(ValueError):
            VertexSubset(3, mask=np.ones(5, dtype=bool))


class TestViews:
    def test_mask_from_ids(self):
        subset = VertexSubset.from_ids(4, [0, 3])
        assert subset.mask.tolist() == [True, False, False, True]

    def test_ids_from_mask(self):
        subset = VertexSubset(3, mask=np.array([False, True, True]))
        assert subset.ids.tolist() == [1, 2]

    def test_contains(self):
        subset = VertexSubset.from_ids(5, [2])
        assert 2 in subset
        assert 3 not in subset


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
        with pytest.raises(ValueError):
            VertexSubset.from_ids(num_vertices, [bad])


class TestDensityHeuristic:
    def test_out_edge_count(self):
        graph = CSRGraph.from_edges([(0, 1), (0, 2), (1, 2)],
                                    num_vertices=3)
        subset = VertexSubset.from_ids(3, [0])
        assert subset.out_edge_count(graph) == 2

    def test_small_frontier_is_sparse(self):
        graph = CSRGraph.from_edges(
            [(i, (i + 1) % 50) for i in range(50)], num_vertices=50
        )
        assert not VertexSubset.from_ids(50, [0]).is_dense_preferred(graph)

    def test_large_frontier_is_dense(self):
        graph = CSRGraph.from_edges(
            [(i, (i + 1) % 50) for i in range(50)], num_vertices=50
        )
        assert VertexSubset.full(50).is_dense_preferred(graph)

    def test_empty_graph_never_dense(self):
        graph = CSRGraph.from_edges([], num_vertices=5)
        assert not VertexSubset.full(5).is_dense_preferred(graph)
