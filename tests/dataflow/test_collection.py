"""Unit tests for the static multiset collection calculus."""

import pytest

from tests.dataflow.collection import Collection


class TestMultisetBasics:
    def test_consolidation(self):
        coll = Collection([(("a",), 1), (("a",), 2), (("b",), 1),
                           (("b",), -1)])
        assert coll.multiplicity(("a",)) == 3
        assert coll.multiplicity(("b",)) == 0
        assert len(coll) == 1

    def test_from_records(self):
        coll = Collection.from_records([(1,), (1,), (2,)])
        assert coll.multiplicity((1,)) == 2

    def test_equality(self):
        a = Collection([((1,), 1), ((2,), 1)])
        b = Collection([((2,), 1), ((1,), 2), ((1,), -1)])
        assert a == b

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Collection())

    def test_is_positive(self):
        assert Collection([((1,), 2)]).is_positive()
        assert not Collection([((1,), -1)]).is_positive()

    def test_diffs_deterministic(self):
        coll = Collection([((2,), 1), ((1,), 1)])
        assert coll.diffs() == coll.diffs()


class TestOperators:
    def test_map(self):
        coll = Collection([((1,), 2)])
        assert coll.map(lambda r: (r[0] * 10,)).multiplicity((10,)) == 2

    def test_filter(self):
        coll = Collection.from_records([(1,), (2,), (3,)])
        kept = coll.filter(lambda r: r[0] % 2 == 1)
        assert len(kept) == 2

    def test_flat_map(self):
        coll = Collection.from_records([(2,)])
        out = coll.flat_map(lambda r: [(r[0],), (r[0] + 1,)])
        assert out.multiplicity((2,)) == 1
        assert out.multiplicity((3,)) == 1

    def test_concat_and_negate_cancel(self):
        coll = Collection.from_records([(1,), (2,)])
        assert len(coll.concat(coll.negate())) == 0

    def test_join(self):
        left = Collection([(("k", 1), 2)])
        right = Collection([(("k", "x"), 3), (("other", "y"), 1)])
        joined = left.join(right)
        assert joined.multiplicity(("k", (1, "x"))) == 6
        assert len(joined) == 1

    def test_reduce_sum(self):
        coll = Collection([(("k", 2), 2), (("k", 3), 1), (("j", 5), 1)])
        out = coll.reduce(lambda key, values: [sum(values)])
        assert out.multiplicity(("k", 7)) == 1
        assert out.multiplicity(("j", 5)) == 1

    def test_reduce_rejects_negative(self):
        with pytest.raises(ValueError):
            Collection([(("k", 1), -1)]).reduce(lambda k, v: [len(v)])

    def test_distinct(self):
        coll = Collection([((1,), 5), ((2,), 1)])
        out = coll.distinct()
        assert out.multiplicity((1,)) == 1

    def test_count(self):
        coll = Collection([(("k", "a"), 2), (("k", "b"), 1)])
        assert coll.count().multiplicity(("k", 3)) == 1

    def test_linearity_of_join(self):
        # join(A + dA, B) == join(A, B) + join(dA, B)
        a = Collection([(("k", 1), 1)])
        da = Collection([(("k", 2), 1), (("k", 1), -1)])
        b = Collection([(("k", "v"), 2)])
        combined = a.concat(da).join(b)
        split = a.join(b).concat(da.join(b))
        assert combined == split
