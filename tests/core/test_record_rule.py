"""The record rule: a history records what its aggregates absorbed.

Selective scheduling pushes no move of τ or less, so a vertex whose
value moved that little keeps, in the record, the value its
out-neighbours' aggregates absorbed (``ligra/delta.py::vertex_map``,
``hold_back``).  Then every tracked ``g_i`` is the aggregation, over
the current graph, of the recorded ``c_{i-1}`` -- however many batches
the stream has refined -- and the error a stream holds back stays the
error of one run at τ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    SSSP,
    BeliefPropagation,
    CoEM,
    CollaborativeFiltering,
    LabelPropagation,
    PageRank,
)
from repro.bench.workloads import uniform_batch
from repro.core.engine import GraphBoltEngine
from repro.core.history import RollingState
from repro.graph.generators import rmat
from repro.ligra import delta
from repro.ligra.delta import dense_preferred
from repro.ligra.engine import LigraEngine
from repro.obs import trace
from repro.obs.trace import Tracer
from repro.runtime import exec as kernels
from repro.runtime.validation import relative_errors
from tests.conftest import copy_history, pin_refine_modes


def assert_history_absorbs_its_values(engine) -> None:
    """Replay ``engine``'s history: each ``g_i`` equals the aggregation
    of the replayed ``c_{i-1}`` over the engine's graph, to rounding."""
    graph, algorithm = engine.graph, engine.algorithm
    replay = RollingState(copy_history(engine.history))
    for index in range(replay.horizon):
        replay.advance()
        expected = kernels.aggregate_all(graph, algorithm, replay.c_prev,
                                         None)
        finite = np.isfinite(expected)
        assert np.array_equal(finite, np.isfinite(replay.g)), index + 1
        scale = max(1.0, float(np.abs(expected[finite]).max(initial=0.0)))
        error = float(np.abs(replay.g[finite] - expected[finite])
                      .max(initial=0.0))
        assert error <= 1e-10 * scale, (index + 1, error)


def stream(monkeypatch, factory, scale, batch_size, num_batches,
           check=None):
    """Refine ``num_batches`` uniform batches on RMAT ``scale``; after
    each, call ``check(engine)``.  Returns the engine and the mode
    hand-offs, e.g. ``("dense", "sparse")``, of the tracked run's steps
    and of each refinement's iterations."""
    decisions = []

    def recorded(*args):
        decisions.append("dense" if dense_preferred(*args) else "sparse")
        return decisions[-1] == "dense"

    monkeypatch.setattr(delta, "dense_preferred", recorded)
    engine = GraphBoltEngine(factory(), num_iterations=10)
    engine.run(rmat(scale, 16, seed=37, weighted=True))
    modes = ["dense"] + decisions     # a run's first step is dense
    handoffs = set(zip(modes, modes[1:]))
    for index in range(num_batches):
        tracer = Tracer()
        with trace.activated(tracer):
            engine.apply_mutations(uniform_batch(
                engine.graph, batch_size, seed=1000 + index))
        modes = ["dense" if event["tags"]["mode"] == "dense" else "sparse"
                 for event in tracer.events()
                 if event["name"] == "iteration" and "mode" in event["tags"]]
        handoffs.update(zip(modes, modes[1:]))
        if check is not None:
            check(engine)
    return engine, handoffs


ALGORITHMS = {
    "PR": lambda tau: PageRank(tolerance=tau),
    "LP": lambda tau: LabelPropagation(num_labels=3, seed_every=3,
                                       tolerance=tau),
    "CF": lambda tau: CollaborativeFiltering(num_factors=3, tolerance=tau),
    "CoEM": lambda tau: CoEM(seed_every=3, tolerance=tau),
    "BP": lambda tau: BeliefPropagation(num_states=2, tolerance=tau),
}

#: (algorithm, τ, RMAT scale, batch size, pinned refine modes): sizes at
#: which the switch hands a dense step to a sparse one and a sparse step
#: to a sparse one.  CF, and CoEM at 1e-3, never go from dense to sparse
#: at these sizes, so their refinement is pinned to dense, sparse, sparse.
ROSTER = [
    ("PR", 1e-3, 12, 10, None), ("PR", 1e-2, 10, 15, None),
    ("LP", 1e-3, 11, 15, None), ("LP", 1e-2, 10, 15, None),
    ("CF", 1e-3, 10, 15, (True, False, False)),
    ("CF", 1e-2, 10, 15, (True, False, False)),
    ("CoEM", 1e-3, 11, 15, (True, False, False)),
    ("CoEM", 1e-2, 11, 15, None),
    ("BP", 1e-3, 10, 15, None), ("BP", 1e-2, 11, 15, None),
]


class TestRecordedAggregatesAbsorbRecordedValues:
    """Theorem 4.1 under selective scheduling, after every batch."""

    @pytest.mark.parametrize(
        "name,tau,scale,batch_size,pinned", ROSTER,
        ids=[f"{case[0]}@{case[1]:g}" for case in ROSTER])
    def test_every_tracked_aggregate(self, monkeypatch, name, tau, scale,
                                     batch_size, pinned):
        if pinned:
            pin_refine_modes(monkeypatch, *pinned)
        _, handoffs = stream(monkeypatch, lambda: ALGORITHMS[name](tau),
                             scale, batch_size, 12,
                             assert_history_absorbs_its_values)
        assert {("sparse", "sparse"), ("dense", "sparse")} <= handoffs

    def test_min_re_evaluation(self, monkeypatch):
        stream(monkeypatch, lambda: SSSP(source=0), 11, 20, 12,
               assert_history_absorbs_its_values)

    def test_alternating_refine_modes(self, monkeypatch):
        pin_refine_modes(monkeypatch, True, False)
        stream(monkeypatch, lambda: PageRank(tolerance=1e-2), 10, 10, 8,
               assert_history_absorbs_its_values)

    def test_forward_from_a_dense_refined_iteration(self, monkeypatch):
        """Past the horizon a refined state goes on forward: its last
        (dense) iteration's unmoved rows are held back before the first
        sparse step, so the final aggregate absorbed the final c_{i-1}."""
        pin_refine_modes(monkeypatch, True)
        decisions = []

        def recorded(*args):
            decisions.append(dense_preferred(*args))
            return decisions[-1]

        monkeypatch.setattr(delta, "dense_preferred", recorded)
        engine = GraphBoltEngine(ALGORITHMS["LP"](1e-2), num_iterations=10,
                                 horizon=3)
        engine.run(rmat(10, 16, seed=37, weighted=True))
        for index in range(4):
            del decisions[:]
            engine.apply_mutations(uniform_batch(engine.graph, 10,
                                                 seed=1000 + index))
            assert decisions and not decisions[0]   # forward starts sparse
            state = engine._state
            expected = kernels.aggregate_all(engine.graph, engine.algorithm,
                                             state.prev_values, None)
            scale = max(1.0, float(np.abs(expected).max()))
            assert np.abs(state.aggregate - expected).max() <= 1e-10 * scale


#: Per algorithm: its τ, the RMAT scale and length of its stream (PR's
#: error is still settling over the first 300 batches), and the factor
#: by which the stream's final error may exceed a fresh run's at that τ
#: on the same snapshot: the measured ratio rounded up (PR 2.5, LP 0.5).
#: PR cannot meet 2× at scale 10: sampled every 100 batches, its stream
#: reads 0.023-0.028 while a fresh run's error swings 0.009-0.022 from
#: snapshot to snapshot, and the last is a 0.009 one (on scale 12 over
#: 1 500 batches, EXPERIMENTS.md, PR reads 1.5×).
DRIFT = [
    pytest.param(lambda tau: PageRank(tolerance=tau), 1e-2, 10, 1000, 3.0,
                 id="PR"),
    pytest.param(lambda tau: LabelPropagation(num_labels=3, seed_every=3,
                                              tolerance=tau),
                 1e-3, 11, 600, 2.0, id="LP"),
]


class TestDriftIsBounded:
    """A long stream at τ errs like one run at τ, and does not grow."""

    @pytest.mark.parametrize("factory,tau,scale,length,factor", DRIFT)
    def test_long_stream(self, monkeypatch, factory, tau, scale, length,
                         factor):
        errors = []

        def exact(graph):
            return LigraEngine(factory(1e-12)).run(graph, 10)

        def error_against_exact(engine):
            if engine.batches_applied % 50 == 0:
                errors.append(relative_errors(
                    engine.values, exact(engine.graph)).max())

        engine, _ = stream(monkeypatch, lambda: factory(tau), scale, 100,
                           length, error_against_exact)
        fresh = GraphBoltEngine(factory(tau), num_iterations=10).run(
            engine.graph)
        half = len(errors) // 2
        assert max(errors[half:]) <= 1.25 * max(errors[:half]), errors
        assert errors[-1] <= factor * relative_errors(
            fresh, exact(engine.graph)).max(), errors
