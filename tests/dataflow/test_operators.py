"""Unit and property tests for the streaming differential operators.

The central property: accumulating a stream of diffs through the
dataflow equals applying the batch calculus (:class:`Collection`) to the
accumulated input -- the differential correctness contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.dataflow.collection import Collection
from repro.dataflow.operators import Dataflow


def accumulate(probe):
    return Collection(list(probe.state().items()))


class TestStatelessOperators:
    def test_map(self):
        df = Dataflow()
        inp = df.input()
        probe = inp.stream.map(lambda r: (r[0], r[1] * 2)).probe()
        inp.send_records([("a", 1), ("b", 3)])
        df.run()
        assert probe.state() == {("a", 2): 1, ("b", 6): 1}

    def test_filter(self):
        df = Dataflow()
        inp = df.input()
        probe = inp.stream.filter(lambda r: r[1] > 1).probe()
        inp.send_records([("a", 1), ("b", 3)])
        df.run()
        assert probe.state() == {("b", 3): 1}

    def test_negate_concat_cancel(self):
        df = Dataflow()
        inp, negated = df.input(), df.input()
        probe = inp.stream.concat(negated.stream).probe()
        inp.send_records([("a", 1)])
        negated.send([(("a", 1), -1)])
        df.run()
        assert probe.state() == {}


class TestJoin:
    def test_join_and_retraction(self):
        df = Dataflow()
        left = df.input()
        right = df.input()
        probe = left.stream.join(right.stream).probe()
        left.send_records([("k", 1)])
        right.send_records([("k", "x")])
        df.run()
        assert probe.state() == {("k", (1, "x")): 1}

        df.advance_epoch()
        left.send([(("k", 1), -1), (("k", 2), 1)])
        df.run()
        assert probe.state() == {("k", (2, "x")): 1}

    def test_same_time_both_sides(self):
        df = Dataflow()
        left = df.input()
        right = df.input()
        probe = left.stream.join(right.stream).probe()
        left.send_records([("k", "l")])
        right.send_records([("k", "r")])
        df.run()
        # dA⋈B + A⋈dB + dA⋈dB must count the cross term exactly once.
        assert probe.state() == {("k", ("l", "r")): 1}


class TestReduce:
    def test_sum_by_key_with_corrections(self):
        df = Dataflow()
        inp = df.input()
        probe = inp.stream.sum_by_key().probe()
        inp.send_records([("k", 2.0), ("k", 3.0), ("j", 1.0)])
        df.run()
        assert probe.state() == {("k", 5.0): 1, ("j", 1.0): 1}

        df.advance_epoch()
        inp.send([(("k", 2.0), -1)])
        df.run()
        assert probe.state() == {("k", 3.0): 1, ("j", 1.0): 1}

    def test_group_disappears_when_empty(self):
        df = Dataflow()
        inp = df.input()
        probe = inp.stream.sum_by_key().probe()
        inp.send_records([("k", 1.0)])
        df.run()
        df.advance_epoch()
        inp.send([(("k", 1.0), -1)])
        df.run()
        assert probe.state() == {}

    def test_min_by_key(self):
        df = Dataflow()
        inp = df.input()
        probe = inp.stream.min_by_key().probe()
        inp.send_records([("k", 5.0), ("k", 2.0)])
        df.run()
        assert probe.state() == {("k", 2.0): 1}
        # Retracting the minimum re-exposes the runner-up.
        df.advance_epoch()
        inp.send([(("k", 2.0), -1)])
        df.run()
        assert probe.state() == {("k", 5.0): 1}

    def test_count_and_distinct(self):
        df = Dataflow()
        inp = df.input()
        count_probe = inp.stream.reduce(
            lambda key, values: [len(values)]).probe()
        distinct_probe = (
            inp.stream.map(lambda record: (record, ()))
            .reduce(lambda key, values: [()])
            .map(lambda record: record[0])
            .probe()
        )
        inp.send([(("k", "a"), 2), (("k", "b"), 1)])
        df.run()
        assert count_probe.state() == {("k", 3): 1}
        assert distinct_probe.state() == {("k", "a"): 1, ("k", "b"): 1}

    def test_negative_multiset_rejected(self):
        df = Dataflow()
        inp = df.input()
        inp.stream.sum_by_key().probe()
        inp.send([(("k", 1.0), -1)])
        with pytest.raises(ValueError):
            df.run()


class TestProbeFeedbackView:
    def test_records_processed_counter(self):
        df = Dataflow()
        inp = df.input()
        inp.stream.map(lambda r: r).probe()
        inp.send_records([("a", 1), ("b", 1)])
        df.run()
        assert df.records_processed >= 4  # input + map + probe


record_strategy = st.tuples(st.integers(0, 3), st.integers(0, 4))
diff_strategy = st.tuples(record_strategy, st.integers(-2, 2))


class TestDifferentialContract:
    @given(st.lists(st.lists(diff_strategy, max_size=6), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_streaming_map_filter_equals_batch(self, epochs):
        df = Dataflow()
        inp = df.input()
        probe = (
            inp.stream
            .map(lambda r: (r[0], r[1] + 1))
            .filter(lambda r: r[1] % 2 == 0)
            .probe()
        )
        everything = []
        for batch in epochs:
            inp.send(batch)
            df.run()
            df.advance_epoch()
            everything.extend(batch)
        expected = (
            Collection(everything)
            .map(lambda r: (r[0], r[1] + 1))
            .filter(lambda r: r[1] % 2 == 0)
        )
        assert accumulate(probe) == expected

    @given(
        st.lists(st.lists(diff_strategy, max_size=5), min_size=1,
                 max_size=3),
        st.lists(st.lists(diff_strategy, max_size=5), min_size=1,
                 max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_streaming_join_equals_batch(self, left_epochs, right_epochs):
        df = Dataflow()
        left = df.input()
        right = df.input()
        probe = left.stream.join(right.stream).probe()
        left_all, right_all = [], []
        for i in range(max(len(left_epochs), len(right_epochs))):
            if i < len(left_epochs):
                left.send(left_epochs[i])
                left_all.extend(left_epochs[i])
            if i < len(right_epochs):
                right.send(right_epochs[i])
                right_all.extend(right_epochs[i])
            df.run()
            df.advance_epoch()
        expected = Collection(left_all).join(Collection(right_all))
        assert accumulate(probe) == expected

    @given(
        st.lists(
            st.lists(st.tuples(record_strategy, st.integers(0, 2)),
                     max_size=6),
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_streaming_reduce_equals_batch(self, epochs):
        # Reduce requires positive collections; feed additions and
        # retract a random prefix later via negations of earlier diffs.
        df = Dataflow()
        inp = df.input()
        probe = inp.stream.sum_by_key().probe()
        everything = []
        for batch in epochs:
            inp.send(batch)
            df.run()
            df.advance_epoch()
            everything.extend(batch)
        collected = Collection(everything)
        expected = collected.reduce(lambda key, values: [sum(values)])
        assert accumulate(probe) == expected
