"""A dense refine iteration compares only as far as the price needs.

After a dense iteration the diverged mask is read only to price the
next iteration and, if that one goes sparse, to seed it.  So the compare
fills the mask in id order and stops once the compared rows alone price
the next iteration dense (``compare_until_priced``); the last iteration
compares nothing.  Against a forced full compare, every value, history
record, mode and work counter is equal -- including a sparse iteration
pinned right after a stopped compare, which completes it first.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.algorithms import (
    BeliefPropagation,
    CollaborativeFiltering,
    LabelPropagation,
    PageRank,
    SSSP,
)
from repro.core.engine import GraphBoltEngine
from repro.graph.generators import bipartite_graph, rmat
from repro.graph.mutation import MutationBatch
from repro.ligra import delta
from repro.obs import trace
from repro.obs.trace import Tracer
from tests.conftest import make_random_batch, pin_refine_modes


def full_compare(algorithm, graph, old, new, diverged, fixed_edges,
                 contrib_mask):
    """The compare as it was: every row, priced by one product (the
    fixed price less the contribution-changed sources' is the batch's
    edges)."""
    diverged[:] = algorithm.values_changed(old, new)
    degrees = graph.out_degrees()
    sources, batch_edges = diverged, fixed_edges
    if contrib_mask is not None:
        sources = diverged | contrib_mask
        batch_edges -= int(degrees @ contrib_mask)
    return diverged.size, int(degrees @ sources) + batch_edges


def run_stream(factory, graph, iterations, batches, adds, grow=False):
    """Refine ``batches`` random batches of ``adds`` additions and half
    as many deletions (the second one growing the graph when ``grow``);
    returns what a compare must not change and the refine
    ``iteration`` spans' tags."""
    rng = np.random.default_rng(17)
    engine = GraphBoltEngine(factory(), num_iterations=iterations)
    engine.run(graph)
    tags, states = [], []
    for step in range(batches):
        batch = make_random_batch(engine.graph, rng, adds, adds // 2)
        if grow and step == 1:
            fresh = engine.graph.num_vertices
            batch = batch.merge(MutationBatch.from_edges(
                additions=[(3, fresh + 2), (fresh + 1, 5), (fresh, 0)]))
        tracer = Tracer()
        with trace.activated(tracer):
            engine.apply_mutations(batch)
        batch_tags = [event["tags"] for event in tracer.events()
                      if event["name"] == "iteration"
                      and "mode" in event["tags"]]
        tags.append(batch_tags)
        states.append((
            engine.values.tobytes(),
            [None if half is None else half.tobytes()
             for record in engine.history.records
             for half in (record.g_idx, record.g_values,
                          record.c_idx, record.c_values)],
            [tag["mode"] for tag in batch_tags],
            {spec.name: getattr(engine.metrics, spec.name)
             for spec in fields(engine.metrics)
             if spec.name != "phase_seconds"},
        ))
    return states, tags


def both_ways(monkeypatch, *args, **kwargs):
    """The stream with the early stop, then with a full compare."""
    states, tags = run_stream(*args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(delta, "compare_until_priced", full_compare)
        full_states, _ = run_stream(*args, **kwargs)
    return states, full_states, tags


def stopped(batch_tags, num_vertices):
    """Indices (into the batch's iterations) of dense iterations whose
    compare stopped short of the last row."""
    return [position for position, tag in enumerate(batch_tags[:-1])
            if tag["mode"] == "dense" and tag["compared"] < num_vertices]


def rmat_graph():
    return rmat(scale=10, edge_factor=8, seed=5, weighted=True)


CASES = [
    # Contribution-changed sources seed the price.
    pytest.param(lambda: PageRank(), rmat_graph, 10, 30, False,
                 id="pagerank"),
    pytest.param(lambda: LabelPropagation(num_labels=5), rmat_graph, 10,
                 30, False, id="lp-k5"),
    pytest.param(lambda: CollaborativeFiltering(num_factors=3),
                 lambda: bipartite_graph(300, 150, 6, seed=7), 10, 30,
                 False, id="cf"),
    # Re-evaluation, and an apply that reads the previous value.
    pytest.param(lambda: SSSP(source=0), rmat_graph, 40, 40, False,
                 id="sssp"),
    pytest.param(lambda: PageRank(), rmat_graph, 10, 30, True, id="grown"),
]


class TestEarlyStopIsExact:
    @pytest.mark.parametrize("factory,graph,iterations,adds,grow", CASES)
    def test_equals_a_full_compare(self, factory, graph, iterations, adds,
                                   grow, monkeypatch):
        states, full_states, tags = both_ways(
            monkeypatch, factory, graph(), iterations, 3, adds, grow=grow)
        assert states == full_states
        num_vertices = graph().num_vertices
        assert any(stopped(batch_tags, num_vertices)
                   for batch_tags in tags)
        for batch_tags in tags:
            last = batch_tags[-1]
            if last["mode"] == "dense":
                assert last["compared"] == last["diverged"] == 0

    @pytest.mark.parametrize("factory,iterations,adds", [
        pytest.param(lambda: LabelPropagation(num_labels=5), 10, 30,
                     id="lp"),
        pytest.param(lambda: SSSP(source=0), 40, 40, id="sssp"),
    ])
    def test_sparse_pin_after_a_stopped_compare_completes_it(
            self, factory, iterations, adds, monkeypatch):
        """Pinned sparse right after a compare that stopped: the
        completed mask seeds it (and, for SSSP, its self-dependent
        re-applies) exactly as a full compare's would."""
        pin_refine_modes(monkeypatch, True, False)
        states, full_states, tags = both_ways(
            monkeypatch, factory, rmat_graph(), iterations, 2, adds)
        assert states == full_states
        num_vertices = rmat_graph().num_vertices
        after_stop = [batch_tags[position + 1]["mode"]
                      for batch_tags in tags
                      for position in stopped(batch_tags, num_vertices)]
        assert after_stop and "dense" not in after_stop

    def test_a_batch_that_prices_dense_alone_still_needs_a_source(
            self, monkeypatch):
        """SSSP's 90-edge batch alone exceeds its dense price, but with
        no diverged source the switch goes sparse: the compare stops
        only once a compared row has diverged."""
        states, full_states, tags = both_ways(
            monkeypatch, lambda: SSSP(source=0), rmat_graph(), 40, 2, 60)
        assert states == full_states
        num_vertices = rmat_graph().num_vertices
        stops = [batch_tags[position] for batch_tags in tags
                 for position in stopped(batch_tags, num_vertices)]
        assert stops and all(tag["diverged"] for tag in stops)

    def test_a_compare_that_runs_to_the_end_prices_sparse(self,
                                                          monkeypatch):
        """BP's values settle late in a 10-iteration window (its τ is
        relative): the compare after its last dense iteration finds too
        few sources to price dense, so it runs to the last row and the
        next iteration goes sparse."""
        graph = lambda: rmat(scale=9, edge_factor=6, seed=3, weighted=True)
        states, full_states, tags = both_ways(
            monkeypatch, lambda: BeliefPropagation(num_states=2,
                                                   tolerance=1e-4),
            graph(), 10, 2, 5)
        assert states == full_states
        num_vertices = graph().num_vertices
        ran_out = [(tag, following)
                   for batch_tags in tags
                   for tag, following in zip(batch_tags, batch_tags[1:])
                   if tag["mode"] == "dense"
                   and following["mode"] != "dense"]
        assert ran_out
        assert all(tag["compared"] == num_vertices for tag, _ in ran_out)
