"""The packed pair sort against a two-key ``np.lexsort`` reference.

Every edge-list ordering and pair dedup goes through
:mod:`repro.graph.pairs`; these tests pin that each one returns what the
lexsort / row-unique code it replaced returned, byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.mutation import MutationBatch
from repro.graph.pairs import MAX_STRIDE, first_pairs, pair_order
from repro.recovery.scrub import _rebuild_direction

ARRAYS = ("out_offsets", "out_targets", "out_weights",
          "in_offsets", "in_sources", "in_weights")


@st.composite
def pair_lists(draw, max_vertices=40, max_size=60):
    """``(V, key, other)`` with ids in ``[0, V)``; small V forces
    repeats, and ids at ``V - 1`` are drawn as often as any other."""
    num_vertices = draw(st.integers(1, max_vertices))
    ids = st.integers(0, num_vertices - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=max_size))
    key = np.array([p[0] for p in pairs], dtype=np.int64)
    other = np.array([p[1] for p in pairs], dtype=np.int64)
    return num_vertices, key, other


def reference_first(key, other):
    """First occurrence of each distinct pair, in pair order."""
    if key.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.stack([key, other], axis=1), axis=0,
                     return_index=True)[1]


def reference_csr(num_vertices, src, dst, weight):
    """The six arrays as the lexsort constructor built them."""
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    arrays = {}
    for name, key, other in (("out", src, dst), ("in", dst, src)):
        order = np.lexsort((other, key))
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=num_vertices),
                  out=offsets[1:])
        arrays[f"{name}_offsets"] = offsets
        arrays["out_targets" if name == "out" else "in_sources"] = \
            other[order]
        arrays[f"{name}_weights"] = weight[order]
    return arrays


class TestPairOrder:
    @given(pair_lists())
    @settings(max_examples=200, deadline=None)
    def test_equals_lexsort(self, case):
        num_vertices, key, other = case
        expected = np.lexsort((other, key))
        assert np.array_equal(pair_order(key, other, num_vertices),
                              expected)

    @given(pair_lists(max_vertices=10_000, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_equals_lexsort_without_repeats(self, case):
        num_vertices, key, other = case
        first = np.sort(first_pairs(key, other, num_vertices))
        key, other = key[first], other[first]
        assert np.array_equal(pair_order(key, other, num_vertices),
                              np.lexsort((other, key)))

    def test_empty_and_single_vertex(self):
        empty = np.empty(0, dtype=np.int64)
        assert pair_order(empty, empty, 0).size == 0
        assert first_pairs(empty, empty, 0).size == 0
        zeros = np.zeros(5, dtype=np.int64)
        assert pair_order(zeros, zeros, 1).tolist() == [0, 1, 2, 3, 4]
        assert first_pairs(zeros, zeros, 1).tolist() == [0]

    def test_ids_at_the_stride_bound(self):
        top = MAX_STRIDE - 1
        key = np.array([top, 0, top, top], dtype=np.int64)
        other = np.array([top, top, 0, top], dtype=np.int64)
        assert np.array_equal(pair_order(key, other, MAX_STRIDE),
                              np.lexsort((other, key)))
        assert first_pairs(key, other, MAX_STRIDE).tolist() == [1, 2, 0]


class TestFirstPairs:
    @given(pair_lists())
    @settings(max_examples=200, deadline=None)
    def test_equals_row_unique(self, case):
        num_vertices, key, other = case
        assert np.array_equal(first_pairs(key, other, num_vertices),
                              reference_first(key, other))


class TestPackedKeyBound:
    def test_stride_past_the_bound_names_the_limit(self):
        ids = np.zeros(1, dtype=np.int64)
        for helper in (pair_order, first_pairs):
            with pytest.raises(ValueError, match=str(MAX_STRIDE)):
                helper(ids, ids, MAX_STRIDE + 1)

    def test_graph_past_the_bound_is_refused(self):
        # Raised before any O(V) array is allocated.
        with pytest.raises(ValueError, match=str(MAX_STRIDE)):
            CSRGraph(MAX_STRIDE + 1, np.array([0]), np.array([1]))

    def test_batch_with_an_id_past_the_bound_is_refused(self):
        with pytest.raises(ValueError, match=str(MAX_STRIDE)):
            MutationBatch(add_src=[MAX_STRIDE + 7], add_dst=[1])
        with pytest.raises(ValueError, match=str(MAX_STRIDE)):
            MutationBatch(del_src=[2], del_dst=[MAX_STRIDE])

    def test_ids_just_inside_the_bound_are_kept(self):
        batch = MutationBatch(add_src=[MAX_STRIDE - 2, 3],
                              add_dst=[MAX_STRIDE - 1, MAX_STRIDE - 1])
        assert batch.add_src.tolist() == [MAX_STRIDE - 2, 3]


class TestCallSites:
    @given(pair_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_csr_arrays_are_byte_equal(self, case, random):
        num_vertices, src, dst = case
        weight = np.array([random.random() for _ in range(src.size)])
        graph = CSRGraph(num_vertices, src, dst, weight)
        expected = reference_csr(num_vertices, src, dst, weight)
        for name in ARRAYS:
            actual = getattr(graph, name)
            assert actual.dtype == expected[name].dtype, name
            assert actual.tobytes() == expected[name].tobytes(), name

    @given(pair_lists())
    @settings(max_examples=100, deadline=None)
    def test_batch_dedup_keeps_the_first_of_each_pair(self, case):
        _, src, dst = case
        weight = np.arange(src.size, dtype=np.float64)
        batch = MutationBatch(add_src=src, add_dst=dst, add_weight=weight,
                              del_src=dst, del_dst=src)
        kept, seen = [], set()
        for index, pair in enumerate(zip(src.tolist(), dst.tolist())):
            if pair[0] != pair[1] and pair not in seen:
                seen.add(pair)
                kept.append(index)
        assert batch.add_src.tolist() == src[kept].tolist()
        assert batch.add_dst.tolist() == dst[kept].tolist()
        # Batch order, and each pair's weight is its first occurrence's.
        assert batch.add_weight.tolist() == [float(i) for i in kept]
        assert batch.del_src.tolist() == dst[kept].tolist()
        assert batch.del_dst.tolist() == src[kept].tolist()

    @given(pair_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_scrub_rebuild_is_bit_for_bit(self, case, random):
        num_vertices, src, dst = case
        weight = np.array([random.random() for _ in range(src.size)])
        graph = CSRGraph(num_vertices, src, dst, weight)
        for rebuild_out, clean in ((True, "in"), (False, "out")):
            others = "in_sources" if clean == "in" else "out_targets"
            rebuilt = _rebuild_direction(
                num_vertices, rebuild_out, getattr(graph, f"{clean}_offsets"),
                getattr(graph, others), getattr(graph, f"{clean}_weights"))
            for name, array in rebuilt.items():
                assert array.tobytes() == getattr(graph, name).tobytes(), \
                    name
