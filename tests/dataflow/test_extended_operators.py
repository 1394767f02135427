"""Relational operators composed from the core differential operators.

Semijoin, antijoin and join-map are not operators of their own: each is
a chain of ``map`` / ``concat`` / ``join`` / ``reduce``.  These tests
pin that the chains stay differentially correct when either side
retracts.
"""

from repro.dataflow.operators import Dataflow


def semijoin(data, keys):
    """``(k, v)`` records of ``data`` whose key appears in ``keys``
    (bare-key records ``(k,)``); each key counts once."""
    present = keys.map(lambda rec: (rec[0], ())).reduce(
        lambda key, values: [()])
    return data.join(present).map(lambda rec: (rec[0], rec[1][0]))


def antijoin(data, keys):
    """``(k, v)`` records of ``data`` whose key does NOT appear in
    ``keys``."""
    tagged = data.map(lambda rec: (rec[0], ("data", rec[1]))).concat(
        keys.map(lambda rec: (rec[0], ("key",))))
    return tagged.reduce(
        lambda key, values: [] if ("key",) in values
        else [value[1] for value in values])


class TestSemijoin:
    def test_filters_by_key_presence(self):
        df = Dataflow()
        data = df.input()
        keys = df.input()
        probe = semijoin(data.stream, keys.stream).probe()
        data.send_records([("a", 1), ("b", 2)])
        keys.send_records([("a",)])
        df.run()
        assert probe.state() == {("a", 1): 1}

    def test_key_retraction_removes_matches(self):
        df = Dataflow()
        data = df.input()
        keys = df.input()
        probe = semijoin(data.stream, keys.stream).probe()
        data.send_records([("a", 1)])
        keys.send_records([("a",)])
        df.run()
        df.advance_epoch()
        keys.send([(("a",), -1)])
        df.run()
        assert probe.state() == {}

    def test_duplicate_keys_do_not_multiply(self):
        df = Dataflow()
        data = df.input()
        keys = df.input()
        probe = semijoin(data.stream, keys.stream).probe()
        data.send_records([("a", 1)])
        keys.send([(("a",), 3)])
        df.run()
        assert probe.state() == {("a", 1): 1}


class TestAntijoin:
    def test_keeps_unmatched(self):
        df = Dataflow()
        data = df.input()
        keys = df.input()
        probe = antijoin(data.stream, keys.stream).probe()
        data.send_records([("a", 1), ("b", 2)])
        keys.send_records([("a",)])
        df.run()
        assert probe.state() == {("b", 2): 1}

    def test_key_arrival_evicts(self):
        df = Dataflow()
        data = df.input()
        keys = df.input()
        probe = antijoin(data.stream, keys.stream).probe()
        data.send_records([("a", 1)])
        df.run()
        assert probe.state() == {("a", 1): 1}
        df.advance_epoch()
        keys.send_records([("a",)])
        df.run()
        assert probe.state() == {}


class TestJoinMap:
    def test_applies_function(self):
        df = Dataflow()
        left = df.input()
        right = df.input()
        probe = left.stream.join(right.stream).map(
            lambda rec: (rec[0], rec[1][0] + rec[1][1])
        ).probe()
        left.send_records([("k", 1)])
        right.send_records([("k", 10)])
        df.run()
        assert probe.state() == {("k", 11): 1}
