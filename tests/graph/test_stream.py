"""Unit tests for buffered mutation streams."""

from repro.graph.mutation import MutationBatch
from repro.graph.stream import MutationStream, coalesce_batches


def batch(additions=(), deletions=(), weights=None):
    return MutationBatch.from_edges(additions, deletions,
                                    add_weights=weights)


class TestQueueBasics:
    def test_fifo_order(self):
        stream = MutationStream([batch([(0, 1)]), batch([(1, 2)])])
        first = stream.take()
        second = stream.take()
        assert list(first.additions())[0][:2] == (0, 1)
        assert list(second.additions())[0][:2] == (1, 2)
        assert stream.take() is None

    def test_push_and_len(self):
        stream = MutationStream()
        assert not stream
        stream.push(batch([(0, 1)]))
        assert len(stream) == 1
        assert stream.pushed == 1

    def test_push_edges_convenience(self):
        stream = MutationStream()
        stream.push_edges(additions=[(0, 1)])
        assert stream.take().num_additions == 1

    def test_iteration_drains(self):
        stream = MutationStream([batch([(0, 1)]), batch([(2, 3)])])
        assert len(list(stream)) == 2
        assert not stream


class TestRefinementBuffering:
    def test_take_blocked_while_refining(self):
        stream = MutationStream([batch([(0, 1)])])
        stream.begin_refinement()
        assert stream.refining
        assert stream.take() is None
        assert stream.take_all() is None
        stream.end_refinement()
        assert stream.take() is not None

    def test_push_allowed_while_refining(self):
        stream = MutationStream()
        stream.begin_refinement()
        stream.push(batch([(0, 1)]))
        stream.end_refinement()
        assert len(stream) == 1

    def test_take_all_coalesces(self):
        stream = MutationStream([
            batch([(0, 1)]),
            batch([(1, 2)], deletions=[(0, 1)]),
        ])
        merged = stream.take_all()
        assert not stream
        # (0,1) added then deleted: the pending add is dropped, but the
        # delete stays (the original add may have been a skipped re-add
        # of a pre-existing edge).
        assert merged.num_additions == 1
        assert merged.num_deletions == 1

    def test_take_all_single_batch_passthrough(self):
        only = batch([(0, 1)])
        stream = MutationStream([only])
        assert stream.take_all() is only


class TestCoalesce:
    def test_delete_then_add_then_add_keeps_first_readd(self):
        merged = coalesce_batches([
            batch(deletions=[(0, 1)]),
            batch([(0, 1)], weights=[1.0]),
            batch([(0, 1)], weights=[5.0]),
        ])
        assert dict(
            ((s, d), w) for s, d, w in merged.additions()
        )[(0, 1)] == 1.0

    def test_delete_then_add_keeps_both(self):
        merged = coalesce_batches([
            batch(deletions=[(0, 1)]),
            batch([(0, 1)], weights=[2.0]),
        ])
        # Expressed against the pre-stream graph: delete old, add new.
        assert merged.num_deletions == 1
        assert merged.num_additions == 1

    def test_add_then_delete_becomes_delete(self):
        merged = coalesce_batches([
            batch([(5, 6)]),
            batch(deletions=[(5, 6)]),
        ])
        assert merged.num_additions == 0
        assert merged.num_deletions == 1

    def test_duplicate_adds_keep_first_weight(self):
        merged = coalesce_batches([
            batch([(0, 1)], weights=[1.5]),
            batch([(0, 1)], weights=[9.0]),
        ])
        assert list(merged.additions()) == [(0, 1, 1.5)]

    def test_grow_to_takes_max(self):
        merged = coalesce_batches([
            MutationBatch(grow_to=5),
            MutationBatch(grow_to=9),
            MutationBatch(grow_to=7),
        ])
        assert merged.grow_to == 9
