"""Unit tests for dataflow timestamps."""

from repro.dataflow.timestamps import Timestamp


class TestOrdering:
    def test_lexicographic(self):
        assert Timestamp(0, 5) < Timestamp(1, 0)
        assert Timestamp(1, 0) < Timestamp(1, 1)
        assert Timestamp(2, 0) > Timestamp(1, 9)

    def test_equality_and_hash(self):
        assert Timestamp(1, 2) == Timestamp(1, 2)
        assert hash(Timestamp(1, 2)) == hash(Timestamp(1, 2))
        assert Timestamp(1, 2) != Timestamp(2, 1)

    def test_total_ordering_helpers(self):
        assert Timestamp(0, 0) <= Timestamp(0, 0)
        assert Timestamp(0, 1) >= Timestamp(0, 0)


class TestLattice:
    def test_join(self):
        a, b = Timestamp(1, 3), Timestamp(2, 0)
        assert a.join(b) == b
        assert a.join(a) == a

    def test_lattice_laws(self):
        # Join-semilattice: commutative, associative, idempotent.
        times = [Timestamp(e, s) for e in range(3) for s in range(3)]
        for a in times:
            assert a.join(a) == a
            for b in times:
                assert a.join(b) == b.join(a) == max(a, b)
                for c in times:
                    assert a.join(b).join(c) == a.join(b.join(c))


class TestAdvancement:
    def test_next_epoch_resets_step(self):
        assert Timestamp(3, 7).next_epoch() == Timestamp(4, 0)

    def test_repr(self):
        assert repr(Timestamp(1, 2)) == "(1, 2)"
