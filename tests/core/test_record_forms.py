"""A history record half is its changed rows or the whole array.

Each half of an :class:`~repro.core.history.IterationRecord` from the
tracked run or a sparsely refined iteration is kept in whichever form
is fewer bytes; a densely refined iteration's halves are its arrays.
The form is a storage choice only: refinement from either encoding is
byte-equal, a dense half costs no copy (it *is* the iteration's array),
and a byte-ruled half is never larger than its sparse encoding.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.algorithms import LabelPropagation, PageRank, SSSP
from repro.core.engine import GraphBoltEngine
from repro.core.history import DependencyHistory, RollingState
from repro.core.refinement import refine
from repro.graph.generators import rmat
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.ligra import delta
from repro.ligra.delta import DeltaEngine, exact_changed_rows
from repro.obs import trace
from repro.obs.trace import Tracer
from tests.conftest import all_sparse, make_random_batch, pin_refine_modes

FACTORIES = [
    pytest.param(lambda: PageRank(), id="pagerank"),
    pytest.param(lambda: LabelPropagation(num_labels=3), id="lp"),
    pytest.param(lambda: SSSP(source=0), id="sssp"),
]

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
        horizon = history.horizon
        sparse = all_sparse(history)
        mutation = next_mutation(engine, rng, grow)
        runs = [refine(DeltaEngine(engine.algorithm), mutation, h)
                for h in (history, sparse)]
        (state, refined), (plain_state, plain_refined) = runs
        for name in ("values", "prev_values", "aggregate", "frontier"):
            assert (getattr(state, name).tobytes()
                    == getattr(plain_state, name).tobytes()), name
        assert refined.horizon == plain_refined.horizon == horizon
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
    def test_never_larger_than_all_sparse(self, factory, graph, rng,
                                          monkeypatch):
        """The byte rule holds for the tracked run and for every
        sparsely refined iteration; a densely refined iteration's halves
        are its arrays, whatever they changed."""
        engine = GraphBoltEngine(factory(), num_iterations=10)
        engine.run(graph)
        assert engine.history.nbytes <= all_sparse(engine.history).nbytes
        pin_refine_modes(monkeypatch, True, False, False)
        modes = []
        for _ in range(3):
            tracer = Tracer()
            with trace.activated(tracer):
                engine.apply_mutations(
                    make_random_batch(engine.graph, rng, 10, 10))
            history = engine.history
            batch_modes = [event["tags"]["mode"]
                           for event in tracer.events()
                           if event["name"] == "iteration"
                           and "mode" in event["tags"]]
            assert len(batch_modes) == history.horizon
            for mode, ours, plain in zip(batch_modes, history.records,
                                         all_sparse(history).records):
                if mode == "dense":
                    assert ours.forms == {"g_half": "dense",
                                          "c_half": "dense"}
                else:
                    assert ours.nbytes <= plain.nbytes
            modes += batch_modes
        assert "dense" in modes and set(modes) - {"dense"}

    def test_dense_half_is_the_iterations_array(self, graph, rng):
        """No gather: refine's last dense halves are the state it hands
        to forward execution, and the tracked run's are the step's."""
        engine = refined_engine(lambda: PageRank(), graph, rng)
        mutation = next_mutation(engine, rng, grow=False)
        state, history = refine(DeltaEngine(engine.algorithm), mutation,
                                engine.history)
        last = history.records[-1]
        assert last.g_idx is None and last.c_idx is None
        assert np.shares_memory(last.g_values, state.aggregate)
        assert np.shares_memory(last.c_values, state.values)
        previous = history.records[-2]
        assert np.shares_memory(previous.c_values, state.prev_values)

        delta = DeltaEngine(PageRank())
        state = delta.initial_state(graph)
        record = delta.step(graph, state, DependencyHistory(state.values,
                                                             state.aggregate))
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
        state, history = refine(DeltaEngine(engine.algorithm), mutation,
                                engine.history)
        last = history.records[-1]
        assert last.g_idx is None and state.aggregate is last.g_values
        stored = [[None if a is None else a.tobytes() for a in halves(r)]
                  for r in history.records]
        state.frontier = state.frontier[:2]
        DeltaEngine(engine.algorithm).forward(mutation.new_graph, state, 8)
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

    def test_refine_span_names_the_bytes_released_and_recorded(self,
                                                                 graph,
                                                                 rng):
        engine = refined_engine(lambda: LabelPropagation(num_labels=3),
                                graph, rng)
        previous = engine.history.nbytes
        tracer = Tracer()
        with trace.activated(tracer):
            engine.apply_mutations(
                make_random_batch(engine.graph, rng, 10, 10))
        (event,) = [event for event in tracer.events()
                    if event["name"] == "refine"]
        assert event["tags"]["released_bytes"] == previous > 0
        assert event["tags"]["history_bytes"] == engine.history.nbytes


#: The two engines the dense-record guards run on: LP (K = 5) and
#: PageRank, refining 8 iterations of an RMAT scale-10 graph.
DENSE_FACTORIES = [
    pytest.param(lambda: LabelPropagation(), id="lp"),
    pytest.param(lambda: PageRank(), id="pagerank"),
]


def dense_engine(factory):
    engine = GraphBoltEngine(factory(), num_iterations=8)
    engine.run(rmat(scale=10, edge_factor=8, seed=3, weighted=True))
    return engine


class TestDenseRecord:
    """A densely refined iteration's record is its two output arrays:
    no compare, no gather."""

    @pytest.mark.parametrize("factory", DENSE_FACTORIES)
    def test_halves_are_the_iterations_arrays(self, factory, rng,
                                              monkeypatch):
        engine = dense_engine(factory)
        outputs = []                       # (g_i, c_i) per iteration
        step, apply = delta.propagate, engine.algorithm.apply

        def spied_step(*args, **kwargs):
            g, touched = step(*args, **kwargs)
            outputs.append([g])
            return g, touched

        def spied_apply(*args):
            c = apply(*args)
            outputs[-1].append(c)
            return c

        compares = []

        def counted(old, new):
            compares.append(old.shape)
            return exact_changed_rows(old, new)

        monkeypatch.setattr(delta, "propagate", spied_step)
        monkeypatch.setattr(engine.algorithm, "apply", spied_apply)
        monkeypatch.setattr(delta, "exact_changed_rows", counted)
        pin_refine_modes(monkeypatch, True)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 50, 50))
        records = engine.history.records
        assert len(outputs) == len(records) == 8
        for record, (g, c) in zip(records, outputs):
            assert record.g_idx is None and record.c_idx is None
            assert np.shares_memory(record.g_values, g)
            assert np.shares_memory(record.c_values, c)
            assert not (record.g_values.flags.writeable
                        or record.c_values.flags.writeable)
        assert compares == []

        # A sparsely refined iteration still compares both halves.
        pin_refine_modes(monkeypatch, False, True)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 5, 5))
        assert len(compares) == 2 * 4


class TestRelease:
    """Refinement consumes the previous history: a record is released
    once the replay has passed it, so two whole histories never
    coexist."""

    @pytest.mark.parametrize("factory", DENSE_FACTORIES)
    def test_previous_records_die_as_the_replay_passes(self, factory, rng,
                                                        monkeypatch):
        engine = dense_engine(factory)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 50, 50))
        records = engine.history.records
        assert all(record.forms == {"g_half": "dense", "c_half": "dense"}
                   for record in records[1:])
        refs = [[weakref.ref(array) for array in halves(record)
                 if array is not None] for record in records]
        del records
        advance, alive = RollingState.advance, []

        def checked(roll):
            # About to take record k, the replay still holds records
            # k - 2 (as c_prev) and k - 1 (as c and g); the engine's
            # state holds no other.  Every earlier record is gone.
            gc.collect()
            alive.append([index for index, arrays
                          in enumerate(refs[:max(roll.iteration - 2, 0)])
                          if any(ref() is not None for ref in arrays)])
            return advance(roll)

        monkeypatch.setattr(RollingState, "advance", checked)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 50, 50))
        assert alive == [[]] * 8
        gc.collect()
        assert not [ref for arrays in refs for ref in arrays if ref()]
