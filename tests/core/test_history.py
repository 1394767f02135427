"""Unit tests for dependency history storage and rolling replay."""

import numpy as np
import pytest

from repro.core.history import DependencyHistory, IterationRecord
from repro.ligra.delta import exact_changed_rows


def make_history():
    initial = np.array([1.0, 1.0, 1.0])
    identity = np.zeros(3)
    history = DependencyHistory(initial, identity)
    # Iteration 1: vertices 0, 2 change aggregation; 0 changes value.
    history.record(np.array([0, 2]), np.array([5.0, 7.0]),
                   np.array([0]), np.array([2.0]))
    # Iteration 2: vertex 1 changes both.
    history.record(np.array([1]), np.array([3.0]),
                   np.array([1]), np.array([4.0]))
    return history


class TestStorage:
    def test_horizon(self):
        assert make_history().horizon == 2

    def test_nbytes_counts_records_only(self):
        history = DependencyHistory(np.ones(100), np.zeros(100))
        assert history.nbytes == 0
        history.record(np.array([0]), np.array([1.0]),
                       np.array([0]), np.array([1.0]))
        assert history.nbytes == 32  # two int64 + two float64

    def test_values_are_copied(self):
        history = DependencyHistory(np.ones(2), np.zeros(2))
        g_vals = np.array([9.0])
        history.record(np.array([0]), g_vals, np.array([0]), g_vals)
        g_vals[0] = -1.0
        assert history.records[0].g_values[0] == 9.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DependencyHistory(np.ones(3), np.zeros(4))


class TestRollingReplay:
    def test_replay_values(self):
        roll = make_history().rolling()
        assert roll.iteration == 0
        assert roll.c.tolist() == [1.0, 1.0, 1.0]
        assert roll.c_prev.tolist() == [1.0, 1.0, 1.0]

        roll.advance()
        assert roll.g.tolist() == [5.0, 0.0, 7.0]
        assert roll.c.tolist() == [2.0, 1.0, 1.0]
        assert roll.c_prev.tolist() == [1.0, 1.0, 1.0]

        roll.advance()
        assert roll.g.tolist() == [5.0, 3.0, 7.0]
        assert roll.c.tolist() == [2.0, 4.0, 1.0]
        assert roll.c_prev.tolist() == [2.0, 1.0, 1.0]

    @pytest.mark.parametrize("sparse", [(), (3,), (1, 2, 6), range(1, 9)],
                             ids=["never", "once", "interleaved", "always"])
    def test_lazy_g_equals_an_eager_replay(self, sparse):
        """``g`` and ``c_prev`` are read by sparse refinement iterations
        only; whichever iterations read them, they hold every record up
        to the current (previous) one, overlaid in order (later records
        overwrite earlier rows)."""
        rng = np.random.default_rng(11)
        history = DependencyHistory(rng.normal(size=(30, 2)),
                                    np.zeros((30, 2)))
        for _ in range(8):
            g_idx = np.flatnonzero(rng.random(30) < 0.4)
            c_idx = np.flatnonzero(rng.random(30) < 0.4)
            history.record(g_idx, rng.normal(size=(g_idx.size, 2)),
                           c_idx, rng.normal(size=(c_idx.size, 2)))
        roll = history.rolling()
        g = history.identity_aggregate.copy()
        c = history.initial_values.copy()
        for iteration, record in enumerate(history.records, start=1):
            c_prev = c.copy()
            g[record.g_idx] = record.g_values
            c[record.c_idx] = record.c_values
            assert roll.advance() is record
            if iteration in sparse:
                assert np.array_equal(roll.g, g)
                assert np.array_equal(roll.c_prev, c_prev)
            assert np.array_equal(roll.c, c)
        assert np.array_equal(roll.g, g)
        assert np.array_equal(roll.c_prev, c_prev)
        assert roll.g is roll.g          # nothing left to overlay
        assert roll.c_prev is roll.c_prev

    def test_overlays_copy_the_base_first(self):
        """``g`` and ``c_prev`` are the base arrays until a record lands
        on them; the first overlay copies, so the bases never change."""
        initial = np.array([1.0, 1.0, 1.0, 9.0])
        identity = np.zeros(4)
        roll = make_history().rolling(extended_initial=initial,
                                      extended_identity=identity)
        assert roll.g is identity and roll.c_prev is initial
        roll.advance()
        assert roll.c_prev is initial
        assert roll.g.tolist() == [5.0, 0.0, 7.0, 0.0]
        roll.advance()
        assert roll.c_prev.tolist() == [2.0, 1.0, 1.0, 9.0]
        assert initial.tolist() == [1.0, 1.0, 1.0, 9.0]
        assert identity.tolist() == [0.0] * 4

    def test_append_takes_ownership(self):
        history = DependencyHistory(np.ones(2), np.zeros(2))
        values = np.array([9.0])
        history.append(IterationRecord(np.array([0]), values,
                                       np.array([0]), values))
        assert history.records[0].g_values is values

    def test_advance_past_horizon_raises(self):
        roll = make_history().rolling()
        roll.advance()
        roll.advance()
        with pytest.raises(IndexError):
            roll.advance()

    def test_extended_replay(self):
        history = make_history()
        roll = history.rolling(
            extended_initial=np.array([1.0, 1.0, 1.0, 9.0]),
            extended_identity=np.zeros(4),
        )
        roll.advance()
        # New vertex never changes during replay.
        assert roll.c.tolist() == [2.0, 1.0, 1.0, 9.0]
        assert roll.g[3] == 0.0

    def test_extension_cannot_shrink(self):
        with pytest.raises(ValueError):
            make_history().rolling(extended_initial=np.ones(2),
                                   extended_identity=np.zeros(2))

    def test_replay_does_not_mutate_history(self):
        history = make_history()
        roll = history.rolling()
        roll.advance()
        roll.c[0] = 123.0
        roll2 = history.rolling()
        roll2.advance()
        assert roll2.c[0] == 2.0

    def test_vector_values(self):
        initial = np.ones((2, 3))
        identity = np.zeros((2, 3))
        history = DependencyHistory(initial, identity)
        history.record(np.array([1]), np.array([[1.0, 2.0, 3.0]]),
                       np.array([1]), np.array([[4.0, 5.0, 6.0]]))
        roll = history.rolling()
        roll.advance()
        assert roll.g[1].tolist() == [1.0, 2.0, 3.0]
        assert roll.c[1].tolist() == [4.0, 5.0, 6.0]


class TestExactChangedRows:
    """What decides a history record's rows: any component differing,
    bit for bit -- no tolerance, NaN never equal to itself."""

    @pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3)])
    def test_equals_any_over_components(self, shape):
        rng = np.random.default_rng(7)
        old = rng.normal(size=(40, *shape))
        new = old.copy()
        moved = np.arange(10, 19)
        new[moved] = np.nextafter(new[moved], np.inf)   # one ulp
        new.reshape(40, -1)[3, -1] = np.nan
        new.reshape(40, -1)[5, 0] = -old.reshape(40, -1)[5, 0]
        expect = (old != new).reshape(40, -1).any(axis=1)
        got = exact_changed_rows(old, new)
        assert expect.sum() == 11
        assert got.dtype == bool and got.shape == (40,)
        assert np.array_equal(got, expect)

    def test_zero_signs_are_equal_and_empty_is_empty(self):
        assert not exact_changed_rows(np.zeros((2, 3)),
                                      -np.zeros((2, 3))).any()
        assert exact_changed_rows(np.empty((0, 3)),
                                  np.empty((0, 3))).shape == (0,)
        # Zero-width rows have no component that could differ.
        assert exact_changed_rows(np.empty((4, 0)),
                                  np.empty((4, 0))).tolist() == [False] * 4
