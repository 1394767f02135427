"""A history record half is its changed rows or the whole array.

Each half of an :class:`~repro.core.history.IterationRecord` is kept in
whichever form is fewer bytes.  The form is a storage choice only:
refinement from either encoding is byte-equal, a dense half costs no
copy (it *is* the iteration's array), and a history is never larger
than its all-sparse encoding.
"""

import numpy as np
import pytest

from repro.algorithms import LabelPropagation, PageRank, SSSP
from repro.core.engine import GraphBoltEngine
from repro.core.hybrid import hybrid_forward
from repro.core.refinement import refine
from repro.graph.generators import rmat
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.ligra.delta import DeltaEngine
from repro.obs import trace
from repro.obs.trace import Tracer
from repro.runtime.metrics import EngineMetrics
from tests.conftest import all_sparse, make_random_batch

FACTORIES = [
    pytest.param(lambda: PageRank(), id="pagerank"),
    pytest.param(lambda: LabelPropagation(num_labels=3), id="lp"),
    pytest.param(lambda: SSSP(source=0), id="sssp"),
]

#: Loose enough that forward execution steps sparsely.


#: Loose enough that forward execution steps sparsely.


@pytest.fixture
def graph():
    return rmat(scale=8, edge_factor=6, seed=4, weighted=True)


def refined_engine(factory, graph, rng):
    """An engine whose history came out of a refine."""
    engine = GraphBoltEngine(factory(), num_iterations=10)
    engine.run(graph)
    engine.apply_mutations(make_random_batch(engine.graph, rng, 10, 10))
    return engine


def next_mutation(engine, rng, grow):
    batch = make_random_batch(engine.graph, rng, 8, 8)
    if grow:
        num_vertices = engine.graph.num_vertices
        batch = batch.merge(MutationBatch.from_edges(
            additions=[(3, num_vertices + 2), (num_vertices + 1, 5)]))
    return StreamingGraph(engine.graph).apply_batch(batch)


def halves(record):
    return (record.g_idx, record.g_values, record.c_idx, record.c_values)


class TestEitherEncoding:
    @pytest.mark.parametrize("grow", [False, True], ids=["same", "grown"])
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_refining_either_encoding_is_byte_equal(self, factory, graph,
                                                    rng, grow):
        engine = refined_engine(factory, graph, rng)
        history = engine.history
        sparse = all_sparse(history)
        mutation = next_mutation(engine, rng, grow)
        runs = [refine(engine.algorithm, mutation, h, EngineMetrics())
                for h in (history, sparse)]
        (state, refined), (plain_state, plain_refined) = runs
        for name in ("values", "prev_values", "aggregate", "frontier"):
            assert (getattr(state, name).tobytes()
                    == getattr(plain_state, name).tobytes()), name
        assert refined.horizon == plain_refined.horizon == history.horizon
        for ours, theirs in zip(refined.records, plain_refined.records):
            for mine, other in zip(halves(ours), halves(theirs)):
                assert (mine is None) == (other is None)
                if mine is not None:
                    assert mine.tobytes() == other.tobytes()

    def test_pagerank_halves_go_dense_sssp_halves_stay_sparse(self, graph, rng):
        """PageRank refines densely at its tolerance and its halves go
        dense; SSSP's frontier is narrow and its halves stay sparse."""
        dense = refined_engine(lambda: PageRank(), graph, rng).history
        assert all(record.forms == {"g_half": "dense", "c_half": "dense"}
                   for record in dense.records)
        sparse = refined_engine(lambda: SSSP(source=0), graph, rng).history
        assert any(record.forms == {"g_half": "sparse", "c_half": "sparse"}
                   for record in sparse.records)


class TestAllocation:
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_never_larger_than_all_sparse(self, factory, graph, rng):
        engine = GraphBoltEngine(factory(), num_iterations=10)
        engine.run(graph)
        sizes = [(engine.history.nbytes,
                  all_sparse(engine.history).nbytes)]
        for _ in range(3):
            engine.apply_mutations(
                make_random_batch(engine.graph, rng, 10, 10))
            sizes.append((engine.history.nbytes,
                           all_sparse(engine.history).nbytes))
        assert all(ours <= plain for ours, plain in sizes)

    def test_dense_half_is_the_iterations_array(self, graph, rng):
        """No gather: refine's last dense halves are the state it hands
        to forward execution, and the tracked run's are the step's."""
        engine = refined_engine(lambda: PageRank(), graph, rng)
        mutation = next_mutation(engine, rng, grow=False)
        state, history = refine(engine.algorithm, mutation, engine.history,
                                EngineMetrics())
        last = history.records[-1]
        assert last.g_idx is None and last.c_idx is None
        assert np.shares_memory(last.g_values, state.aggregate)
        assert np.shares_memory(last.c_values, state.values)
        previous = history.records[-2]
        assert np.shares_memory(previous.c_values, state.prev_values)

        delta = DeltaEngine(PageRank())
        state = delta.initial_state(graph)
        record = delta.step(graph, state, record_changes=True)
        assert record.g_idx is None and record.c_idx is None
        assert np.shares_memory(record.g_values, state.aggregate)
        assert np.shares_memory(record.c_values, state.values)


class TestInPlaceWrites:
    """Only a step's aggregate is written in place; one a dense half
    holds is read-only, and the step copies it first."""

    @pytest.mark.parametrize("factory", [
        pytest.param(lambda: PageRank(), id="delta"),
        pytest.param(lambda: SSSP(source=0), id="pull"),
    ])
    def test_sparse_step_copies_a_held_aggregate(self, factory, graph):
        delta = DeltaEngine(factory())
        state = delta.initial_state(graph)
        delta.step(graph, state)
        held = state.aggregate
        held.flags.writeable = False
        before = held.tobytes()
        state.frontier = np.flatnonzero(state.values != state.prev_values
                                        )[:2]
        assert state.frontier.size
        delta.step(graph, state)
        assert held.tobytes() == before
        assert state.aggregate is not held
        assert state.aggregate.flags.writeable

    def test_forward_past_a_dense_half_leaves_it(self, graph, rng):
        """Hybrid execution continues from refined state past a short
        horizon.  Its first step, sparse here, copies the aggregate the
        last dense half holds; the history keeps every byte."""
        engine = GraphBoltEngine(PageRank(), num_iterations=8, horizon=4)
        engine.run(graph)
        mutation = next_mutation(engine, rng, grow=False)
        state, history = refine(engine.algorithm, mutation, engine.history,
                                EngineMetrics())
        last = history.records[-1]
        assert last.g_idx is None and state.aggregate is last.g_values
        stored = [[None if a is None else a.tobytes() for a in halves(r)]
                  for r in history.records]
        state.frontier = state.frontier[:2]
        hybrid_forward(DeltaEngine(engine.algorithm), mutation.new_graph,
                       state, total_iterations=8, until_convergence=False)
        assert state.iteration == 8
        assert state.aggregate is not last.g_values
        assert stored == [[None if a is None else a.tobytes()
                           for a in halves(r)] for r in history.records]


class TestSpans:
    def test_iteration_spans_name_each_halfs_form(self, graph, rng):
        tracer = Tracer()
        with trace.activated(tracer):
            refined_engine(lambda: PageRank(), graph, rng)
        spans = [event for event in tracer.events()
                 if event["name"] == "iteration"
                 and ("tracked" in event["tags"] or "mode" in event["tags"])]
        assert len(spans) == 20          # 10 tracked, 10 refined
        for event in spans:
            assert event["tags"]["g_half"] in ("dense", "sparse")
            assert event["tags"]["c_half"] in ("dense", "sparse")
