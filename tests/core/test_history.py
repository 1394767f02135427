"""Unit tests for dependency history storage and rolling replay."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import (DependencyHistory, IterationRecord,
                                RollingState, record_half)
from repro.ligra.delta import exact_changed_rows
from tests.conftest import all_sparse, copy_history


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
        roll = RollingState(make_history())
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
        records = list(history.records)
        roll = RollingState(history)
        g = history.identity_aggregate.copy()
        c = history.initial_values.copy()
        for iteration, record in enumerate(records, start=1):
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
        roll = RollingState(make_history(), extended_initial=initial,
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
        roll = RollingState(make_history())
        roll.advance()
        roll.advance()
        with pytest.raises(IndexError):
            roll.advance()

    def test_extended_replay(self):
        history = make_history()
        roll = RollingState(
            history,
            extended_initial=np.array([1.0, 1.0, 1.0, 9.0]),
            extended_identity=np.zeros(4),
        )
        roll.advance()
        # New vertex never changes during replay.
        assert roll.c.tolist() == [2.0, 1.0, 1.0, 9.0]
        assert roll.g[3] == 0.0

    def test_extension_cannot_shrink(self):
        with pytest.raises(ValueError):
            RollingState(make_history(), extended_initial=np.ones(2),
                         extended_identity=np.zeros(2))

    def test_replay_does_not_mutate_history(self):
        history = make_history()
        roll = RollingState(copy_history(history))
        roll.advance()
        roll.c[0] = 123.0
        roll2 = RollingState(history)
        roll2.advance()
        assert roll2.c[0] == 2.0

    def test_vector_values(self):
        initial = np.ones((2, 3))
        identity = np.zeros((2, 3))
        history = DependencyHistory(initial, identity)
        history.record(np.array([1]), np.array([[1.0, 2.0, 3.0]]),
                       np.array([1]), np.array([[4.0, 5.0, 6.0]]))
        roll = RollingState(history)
        roll.advance()
        assert roll.g[1].tolist() == [1.0, 2.0, 3.0]
        assert roll.c[1].tolist() == [4.0, 5.0, 6.0]


def halves_history(forms):
    """A 4-row history whose record ``k`` has ``forms[k]``'s halves
    (``"dense"`` / ``"sparse"``, g then c), with weakrefs to each
    record's value arrays and nothing else holding them."""
    history = DependencyHistory(np.zeros(4), np.zeros(4))
    for k, pair in enumerate(forms):
        halves = []
        for form in pair:
            values = np.full(4, k + 1.0)
            halves += ([None, values] if form == "dense"
                       else [np.array([k % 4]), values[:1].copy()])
        history.append(IterationRecord(*halves))
    refs = [(weakref.ref(record.g_values), weakref.ref(record.c_values))
            for record in history.records]
    return history, refs


def alive(refs, half, passed):
    """The records among the first ``passed`` whose ``half`` (0: g,
    1: c) is still held."""
    return [k for k, pair in enumerate(refs[:passed])
            if pair[half]() is not None]


class TestRelease:
    """A replay takes its history's records and drops each half once
    nothing ahead can read it."""

    def test_replay_takes_the_records(self):
        history = make_history()
        roll = RollingState(history)
        assert history.records == [] and history.horizon == 0
        assert roll.horizon == 2
        roll.advance()
        roll.advance()
        assert roll.c.tolist() == [2.0, 4.0, 1.0]

    def test_dense_halves_supersede_and_c_prev_passes(self):
        history, refs = halves_history([("dense", "dense")] * 5)
        roll = RollingState(history)
        del history
        for k in range(5):
            roll.advance()
            assert alive(refs, 0, k + 1) == [k]                # g
            assert alive(refs, 1, k + 1) == [k - 1, k][-k - 1:]  # c_prev, c
        assert roll.c_prev.tolist() == [4.0] * 4

    def test_sparse_halves_wait_for_a_read_or_a_dense_half(self):
        forms = [("sparse", "sparse")] * 2 + [("dense", "dense")] * 2
        history, refs = halves_history(forms)
        roll = RollingState(history)
        del history
        roll.advance()
        roll.advance()
        assert alive(refs, 0, 2) == [0, 1]
        assert roll.g.tolist() == [1.0, 2.0, 0.0, 0.0]
        assert alive(refs, 0, 2) == []                # read: overlaid
        roll.advance()
        assert alive(refs, 1, 3) == [0, 1, 2]         # c_prev unread
        roll.advance()
        assert alive(refs, 1, 4) == [2, 3]            # a dense c half
        assert alive(refs, 0, 4) == [3]


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


# ----------------------------------------------------------------------
# The two forms of a record half
# ----------------------------------------------------------------------
@st.composite
def mixed_runs(draw):
    """A run's g / c arrays, iteration by iteration (each changes a
    drawn subset of rows), encoded with each half's form drawn, and
    optionally replayed over a grown vertex set."""
    rows = draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(), (2,)]))
    grown = draw(st.integers(0, 3))
    iterations = draw(st.integers(1, 6))
    cells = st.integers(-4, 4).map(float)
    start = lambda: np.array(  # noqa: E731
        draw(st.lists(cells, min_size=rows * max(math.prod(shape), 1),
                      max_size=rows * max(math.prod(shape), 1))),
        dtype=np.float64).reshape((rows, *shape))
    history = DependencyHistory(start(), start())
    g, c = history.identity_aggregate, history.initial_values
    for _ in range(iterations):
        halves = []
        for before in (g, c):
            after = before.copy()
            for row in draw(st.sets(st.integers(0, rows - 1))):
                after[row] = after[row] + draw(st.integers(1, 3))
            if draw(st.booleans()):
                after.flags.writeable = False
                halves.append((None, after))
            else:
                idx = np.flatnonzero(exact_changed_rows(before, after))
                halves.append((idx, after[idx]))
            halves.append(after)
        (g_half, g), (c_half, c) = halves[:2], halves[2:]
        history.append(IterationRecord(*g_half, *c_half))
    reads = draw(st.lists(st.booleans(), min_size=iterations,
                          max_size=iterations))
    return history, grown, reads


class TestMixedForms:
    """A dense half is the iteration's array by reference; a history of
    mixed halves replays exactly like the all-sparse encoding."""

    @given(mixed_runs())
    @settings(max_examples=150, deadline=None)
    def test_replay_equals_the_all_sparse_encoding(self, run):
        history, grown, reads = run
        sparse = all_sparse(history)
        assert all(record.g_idx is not None and record.c_idx is not None
                   for record in sparse.records)
        records = history.records + sparse.records
        stored = [(r.g_values.tobytes(), r.c_values.tobytes())
                  for r in records]

        def extended(array):
            return np.concatenate(
                [array, np.full((grown, *array.shape[1:]), 7.0)])

        rolls = [RollingState(h, extended(h.initial_values),
                              extended(h.identity_aggregate))
                 for h in (history, sparse)]
        for read in reads:
            for roll in rolls:
                roll.advance()
            arrays = ["c"] + (["g", "c_prev"] if read else [])
            for name in arrays:
                mixed, plain = (getattr(roll, name) for roll in rolls)
                assert mixed.tobytes() == plain.tobytes(), name
        for name in ("g", "c", "c_prev"):
            mixed, plain = (getattr(roll, name) for roll in rolls)
            assert mixed.tobytes() == plain.tobytes(), name
        # Replay never writes a record.
        assert stored == [(r.g_values.tobytes(), r.c_values.tobytes())
                          for r in records]

    def test_dense_half_is_held_by_reference(self):
        history = DependencyHistory(np.zeros(4), np.zeros(4))
        g = np.arange(4.0)
        c = np.arange(4.0) + 1.0
        g.flags.writeable = c.flags.writeable = False
        history.append(IterationRecord(None, g, None, c))
        assert history.nbytes == g.nbytes + c.nbytes
        assert history.records[0].forms == {"g_half": "dense",
                                            "c_half": "dense"}
        roll = RollingState(history)
        roll.advance()
        assert roll.c is c and roll.g is g
        assert roll.c_prev is history.initial_values


class TestRecordHalf:
    """The byte rule: ``k`` changed rows of ``w`` bytes stay sparse
    while ``k * (8 + w) < V * w``."""

    @pytest.mark.parametrize("shape,sparse_up_to", [
        ((), 49),          # w = 8:  k * 16 < 800
        ((5,), 83),        # w = 40: k * 48 < 4 000
    ])
    def test_break_even(self, shape, sparse_up_to):
        before = np.zeros((100, *shape))
        for count in (0, sparse_up_to, sparse_up_to + 1, 100):
            after = before.copy()
            after[:count] = 1.0
            idx, values = record_half(
                after, exact_changed_rows(before, after), None)
            if count <= sparse_up_to:
                assert idx.tolist() == list(range(count))
                assert np.array_equal(values, after[:count])
                assert after.flags.writeable
            else:
                assert idx is None and values is after
                assert not after.flags.writeable

    def test_rows_map_a_touched_mask_to_ids(self):
        after = np.arange(10.0)
        touched = np.array([2, 5, 7])
        idx, values = record_half(after, np.array([True, False, True]),
                                  touched)
        assert idx.tolist() == [2, 7] and values.tolist() == [2.0, 7.0]
