"""Unit tests for mutation batches."""

import numpy as np
import pytest

from repro.graph.mutation import MutationBatch, coalesce_batches


class TestConstruction:
    def test_empty(self):
        batch = MutationBatch.empty()
        assert len(batch) == 0
        assert not batch

    def test_counts(self):
        batch = MutationBatch.from_edges(
            additions=[(0, 1), (1, 2)], deletions=[(2, 3)]
        )
        assert batch.num_additions == 2
        assert batch.num_deletions == 1
        assert len(batch) == 3
        assert batch

    def test_grow_to_only_batch_is_truthy(self):
        assert MutationBatch(grow_to=10)

    def test_default_weights(self):
        batch = MutationBatch.from_edges(additions=[(0, 1)])
        assert batch.add_weight.tolist() == [1.0]

    def test_explicit_weights(self):
        batch = MutationBatch.from_edges(
            additions=[(0, 1), (2, 3)], add_weights=[0.5, 1.5]
        )
        assert batch.add_weight.tolist() == [0.5, 1.5]

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            MutationBatch(add_src=[-1], add_dst=[0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="match"):
            MutationBatch(add_src=[0, 1], add_dst=[1])
        with pytest.raises(ValueError, match="match"):
            MutationBatch(del_src=[0], del_dst=[1, 2])
        with pytest.raises(ValueError, match="weights"):
            MutationBatch(add_src=[0], add_dst=[1], add_weight=[1.0, 2.0])


class TestNormalisation:
    def test_duplicate_additions_deduped_first_wins(self):
        batch = MutationBatch.from_edges(
            additions=[(0, 1), (0, 1), (1, 2)], add_weights=[2.0, 9.0, 1.0]
        )
        assert batch.num_additions == 2
        adds = dict(((s, d), w) for s, d, w in batch.additions())
        assert adds[(0, 1)] == 2.0

    def test_duplicate_deletions_deduped(self):
        batch = MutationBatch.from_edges(deletions=[(0, 1), (0, 1)])
        assert batch.num_deletions == 1

    def test_add_and_delete_of_same_edge_kept_as_replace(self):
        # Deletions apply before additions, so the pair means "replace".
        batch = MutationBatch.from_edges(
            additions=[(0, 1), (1, 2)], deletions=[(0, 1)]
        )
        assert batch.num_additions == 2
        assert batch.num_deletions == 1

    def test_self_loops_dropped(self):
        batch = MutationBatch.from_edges(
            additions=[(3, 3), (0, 1)], deletions=[(2, 2)]
        )
        assert batch.num_additions == 1
        assert batch.num_deletions == 0
        assert batch.dropped_self_loops == 2


class TestQueries:
    def test_max_vertex(self):
        batch = MutationBatch.from_edges(
            additions=[(0, 9)], deletions=[(4, 2)]
        )
        assert batch.max_vertex() == 9

    def test_max_vertex_includes_grow_to(self):
        batch = MutationBatch(grow_to=20)
        assert batch.max_vertex() == 19

    def test_max_vertex_empty(self):
        assert MutationBatch.empty().max_vertex() == -1

    def test_iterators(self):
        batch = MutationBatch.from_edges(
            additions=[(0, 1)], deletions=[(2, 3)], add_weights=[0.25]
        )
        assert list(batch.additions()) == [(0, 1, 0.25)]
        assert list(batch.deletions()) == [(2, 3)]

    def test_repr(self):
        batch = MutationBatch.from_edges(additions=[(0, 1)], grow_to=5)
        text = repr(batch)
        assert "+1" in text and "grow_to=5" in text

    def test_numpy_inputs(self):
        batch = MutationBatch(
            add_src=np.array([0, 1]), add_dst=np.array([1, 2])
        )
        assert batch.num_additions == 2


class TestStreamEdgeCases:
    """Edge cases the differential fuzzer exercises routinely; these pin
    the structure-adjustment semantics the engines rely on."""

    def _streaming(self):
        from repro.graph.csr import CSRGraph
        from repro.graph.mutable import StreamingGraph

        graph = CSRGraph.from_edges(
            [(0, 1), (1, 2), (2, 0)], num_vertices=3,
            weights=[1.0, 2.0, 3.0],
        )
        return StreamingGraph(graph)

    def test_delete_nonexistent_edge_is_skipped(self):
        streaming = self._streaming()
        result = streaming.apply_batch(
            MutationBatch.from_edges(deletions=[(0, 2)])
        )
        assert result.skipped_deletions == 1
        assert result.del_src.size == 0
        assert streaming.graph.num_edges == 3
        assert streaming.graph.num_vertices == 3

    def test_delete_beyond_capacity_skips_without_growing(self):
        # A deletion names an edge, and no edge exists at a vertex the
        # graph does not have: the stale record is skipped and sizes
        # nothing (additions and grow_to do).
        streaming = self._streaming()
        result = streaming.apply_batch(
            MutationBatch.from_edges(deletions=[(7, 8)])
        )
        assert result.skipped_deletions == 1
        assert streaming.graph.num_vertices == 3
        assert streaming.graph.num_edges == 3
        assert not result.grew()

    def test_duplicate_insertions_first_weight_wins(self):
        batch = MutationBatch.from_edges(
            additions=[(0, 2), (0, 2)], add_weights=[5.0, 9.0]
        )
        assert batch.num_additions == 1
        assert batch.add_weight.tolist() == [5.0]
        streaming = self._streaming()
        streaming.apply_batch(batch)
        assert streaming.graph.num_edges == 4
        src, dst, weight = streaming.graph.all_edges()
        edges = {(int(u), int(v)): float(w)
                 for u, v, w in zip(src, dst, weight)}
        assert edges[(0, 2)] == 5.0

    def test_duplicate_of_existing_edge_is_skipped(self):
        streaming = self._streaming()
        result = streaming.apply_batch(
            MutationBatch.from_edges(additions=[(0, 1)],
                                     add_weights=[9.0])
        )
        assert result.skipped_additions == 1
        src, dst, weight = streaming.graph.all_edges()
        edges = {(int(u), int(v)): float(w)
                 for u, v, w in zip(src, dst, weight)}
        assert edges[(0, 1)] == 1.0  # original weight preserved

    def test_addition_beyond_capacity_grows_graph(self):
        streaming = self._streaming()
        result = streaming.apply_batch(
            MutationBatch.from_edges(additions=[(1, 20)])
        )
        assert streaming.graph.num_vertices == 21
        assert streaming.graph.num_edges == 4
        assert result.grew()
        # The grown id range is reported as changed so engines extend
        # their value arrays.
        assert 20 in result.in_changed_vertices().tolist()

    def test_engines_survive_all_edge_cases_end_to_end(self):
        # The refinement engine must stay BSP-equivalent through the
        # full gauntlet applied as one stream.
        import numpy as np

        from repro.algorithms import PageRank
        from repro.core.engine import GraphBoltEngine
        from repro.ligra.engine import LigraEngine

        streaming = self._streaming()
        engine = GraphBoltEngine(PageRank(tolerance=1e-9),
                                 num_iterations=8)
        engine.run(streaming.graph)
        gauntlet = [
            MutationBatch.from_edges(deletions=[(0, 2)]),
            MutationBatch.from_edges(deletions=[(7, 8)]),
            MutationBatch.from_edges(additions=[(0, 2), (0, 2)],
                                     add_weights=[5.0, 9.0]),
            MutationBatch.from_edges(additions=[(1, 20)]),
            MutationBatch.empty(),
        ]
        for batch in gauntlet:
            values = engine.apply_mutations(batch)
            truth = LigraEngine(PageRank(tolerance=1e-9)).run(
                engine.graph, 8
            )
            assert np.allclose(values, truth, atol=1e-9)


class TestValidate:
    """The ingest-boundary check the admission controller relies on."""

    def test_clean_batch_passes(self):
        batch = MutationBatch.from_edges(additions=[(0, 5)],
                                         deletions=[(1, 2)])
        batch.validate(6)  # no exception
        batch.validate(6, max_growth=0)

    def test_deletion_endpoint_out_of_range(self):
        batch = MutationBatch.from_edges(deletions=[(1, 99)])
        with pytest.raises(ValueError, match="deletion endpoint"):
            batch.validate(10)
        batch.validate(100)  # in range once the graph is big enough

    def test_additions_may_grow_without_a_budget(self):
        batch = MutationBatch.from_edges(additions=[(0, 500)])
        batch.validate(10)  # implicit growth is fine by default

    def test_growth_budget_enforced(self):
        batch = MutationBatch.from_edges(additions=[(0, 15)])
        batch.validate(10, max_growth=6)
        with pytest.raises(ValueError, match="growth budget"):
            batch.validate(10, max_growth=5)

    def test_grow_to_counts_against_the_budget(self):
        batch = MutationBatch.from_edges(grow_to=20)
        batch.validate(10, max_growth=10)
        with pytest.raises(ValueError, match="growth budget"):
            batch.validate(10, max_growth=9)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            MutationBatch.empty().validate(-1)


class TestConstructionBoundaries:
    def test_float_ids_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="integer dtype"):
            MutationBatch.from_edges(additions=[(0.5, 1.5)])

    def test_string_ids_rejected(self):
        with pytest.raises(ValueError, match="integer dtype"):
            MutationBatch(add_src=["a"], add_dst=["b"])

    def test_empty_lists_are_fine_despite_float64_default(self):
        batch = MutationBatch(add_src=[], add_dst=[], del_src=[],
                              del_dst=[])
        assert len(batch) == 0

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MutationBatch.from_edges(additions=[(0, 1)],
                                     add_weights=[float("nan")])
        with pytest.raises(ValueError, match="finite"):
            MutationBatch.from_edges(additions=[(0, 1)],
                                     add_weights=[float("inf")])

    def test_fractional_grow_to_rejected(self):
        with pytest.raises(ValueError, match="integer vertex count"):
            MutationBatch.from_edges(grow_to=7.5)
        assert MutationBatch.from_edges(grow_to=7.0).grow_to == 7

    def test_negative_grow_to_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            MutationBatch.from_edges(grow_to=-3)


class TestMerge:
    """The edge-level state machine behind the coalesce policy."""

    def test_delete_then_add_is_a_replacement(self):
        first = MutationBatch.from_edges(deletions=[(0, 1)])
        second = MutationBatch.from_edges(additions=[(0, 1)],
                                          add_weights=[4.0])
        merged = first.merge(second)
        assert list(merged.deletions()) == [(0, 1)]
        assert list(merged.additions()) == [(0, 1, 4.0)]

    def test_add_then_delete_is_a_delete(self):
        first = MutationBatch.from_edges(additions=[(0, 1)])
        second = MutationBatch.from_edges(deletions=[(0, 1)])
        merged = first.merge(second)
        assert list(merged.deletions()) == [(0, 1)]
        assert merged.num_additions == 0

    def test_first_add_wins(self):
        # Stream semantics: the second add would be skipped as a
        # re-addition, so the merged batch must carry the first weight.
        first = MutationBatch.from_edges(additions=[(2, 3)],
                                         add_weights=[1.5])
        second = MutationBatch.from_edges(additions=[(2, 3)],
                                          add_weights=[9.9])
        merged = first.merge(second)
        assert list(merged.additions()) == [(2, 3, 1.5)]

    def test_grow_to_takes_the_maximum(self):
        first = MutationBatch.from_edges(grow_to=10)
        second = MutationBatch.from_edges(grow_to=7)
        assert first.merge(second).grow_to == 10
        assert second.merge(first).grow_to == 10
        third = MutationBatch.from_edges(additions=[(0, 1)])
        assert third.merge(first).grow_to == 10
        assert third.merge(MutationBatch.empty()).grow_to is None

    def test_merge_matches_sequential_application(self):
        from repro.graph.generators import rmat
        from repro.graph.mutable import StreamingGraph
        from tests.conftest import make_random_batch

        rng = np.random.default_rng(31)
        for trial in range(10):
            graph = rmat(scale=5, edge_factor=3, seed=trial,
                         weighted=True)
            batches = []
            live = StreamingGraph(graph)
            for _ in range(3):
                batch = make_random_batch(live.graph, rng, 6, 6)
                batches.append(batch)
                live.apply_batch(batch)
            merged = batches[0]
            for batch in batches[1:]:
                merged = merged.merge(batch)
            folded = StreamingGraph(graph)
            folded.apply_batch(merged)
            seq_src, seq_dst, seq_w = live.graph.all_edges()
            fold_src, fold_dst, fold_w = folded.graph.all_edges()
            assert np.array_equal(seq_src, fold_src), trial
            assert np.array_equal(seq_dst, fold_dst), trial
            assert np.array_equal(seq_w, fold_w), trial


def batch(additions=(), deletions=(), weights=None):
    return MutationBatch.from_edges(additions, deletions,
                                    add_weights=weights)


class TestCoalesce:
    """The n-ary fold of :meth:`MutationBatch.merge` that the admission
    queue's ``coalesce`` policy applies to a backlog."""

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

    def test_single_batch_passes_through_and_none_is_empty(self):
        only = batch([(0, 1)])
        assert coalesce_batches([only]) is only
        assert not coalesce_batches([])
