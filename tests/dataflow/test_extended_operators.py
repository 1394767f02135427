"""Tests for the extended differential operators."""

from repro.dataflow.operators import Dataflow


class TestSemijoin:
    def test_filters_by_key_presence(self):
        df = Dataflow()
        data = df.input()
        keys = df.input()
        probe = data.stream.semijoin(keys.stream).probe()
        data.send_records([("a", 1), ("b", 2)])
        keys.send_records([("a",)])
        df.run()
        assert probe.state() == {("a", 1): 1}

    def test_key_retraction_removes_matches(self):
        df = Dataflow()
        data = df.input()
        keys = df.input()
        probe = data.stream.semijoin(keys.stream).probe()
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
        probe = data.stream.semijoin(keys.stream).probe()
        data.send_records([("a", 1)])
        keys.send([(("a",), 3)])
        df.run()
        assert probe.state() == {("a", 1): 1}


class TestAntijoin:
    def test_keeps_unmatched(self):
        df = Dataflow()
        data = df.input()
        keys = df.input()
        probe = data.stream.antijoin(keys.stream).probe()
        data.send_records([("a", 1), ("b", 2)])
        keys.send_records([("a",)])
        df.run()
        assert probe.state() == {("b", 2): 1}

    def test_key_arrival_evicts(self):
        df = Dataflow()
        data = df.input()
        keys = df.input()
        probe = data.stream.antijoin(keys.stream).probe()
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
        probe = left.stream.join_map(
            right.stream, lambda k, a, b: (k, a + b)
        ).probe()
        left.send_records([("k", 1)])
        right.send_records([("k", 10)])
        df.run()
        assert probe.state() == {("k", 11): 1}

