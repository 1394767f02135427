"""Dependency-driven value refinement (paper section 3.3).

Given a mutation ``E_a``/``E_d`` and the tracked history of the
pre-mutation run, refinement transforms the tracked values iteration by
iteration into what a from-scratch synchronous run on the mutated graph
produces.  It is the run loop, :meth:`~repro.ligra.delta.DeltaEngine.advance`,
over a replayed base (:class:`Replay`): each step starts from the old
run's tracked aggregate instead of the refined run's own.  What to
refine is the endpoints of mutated edges (direct impact) plus the
out-neighbours of vertices whose value or contribution function changed
(transitive impact); how is one :func:`~repro.ligra.delta.propagate`
with the batch (⊎ adds the added edges' contributions, ⋃– retracts the
deleted ones', reproduced on the fly from old values on the old
snapshot, ⋃△ swaps old for new along retained edges, never along an
added one; min/max re-pull their targets' in-edges instead) or a dense
rebuild; what to record is the record rule of
:func:`~repro.ligra.delta.vertex_map`, so at τ > 0 refinement is a
from-scratch run under that rule.  The old history is released as the
replay passes each record; forward execution continues from the
returned state.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.history import DependencyHistory, RollingState
from repro.core.model import IncrementalAlgorithm
from repro.graph.mutable import MutationResult
from repro.ligra.delta import DeltaEngine, DeltaState
from repro.ligra.frontier import union_ids
from repro.obs import trace
from repro.runtime.metrics import Timer

__all__ = ["Replay", "refine"]


def refine(engine: DeltaEngine, mutation: MutationResult,
           history: DependencyHistory
           ) -> Tuple[DeltaState, DependencyHistory]:
    """Refine tracked values for one mutation: ``engine``'s run loop
    over ``history`` replayed with the batch; see module docstring.

    Returns ``(state, new_history)``: the dense rolling state of the
    refined run at the tracked horizon (ready for hybrid forward
    execution) and the refined run's own dependency history.
    ``history`` is consumed: its records are released as the replay
    passes them, so a caller that refines one history twice passes a
    copy.
    """
    with trace.span("refine", horizon=history.horizon,
                    additions=int(mutation.add_src.size),
                    deletions=int(mutation.del_src.size),
                    released_bytes=history.nbytes) as span, \
            Timer(engine.metrics, "refine"):
        replay = Replay(engine.algorithm, mutation, history)
        new_history = DependencyHistory(replay.initial, replay.identity)
        state = DeltaState(values=replay.initial,
                           prev_values=replay.initial,
                           aggregate=replay.identity,
                           frontier=np.empty(0, dtype=np.int64),
                           iteration=0, held=True)
        engine.advance(mutation.new_graph, state, replay.horizon,
                       history=new_history, replay=replay)
        # Forward goes on against the refined run's own previous values.
        state.frontier = np.flatnonzero(engine.algorithm.values_changed(
            state.prev_values, state.values))
        state.held = False
        span.tag(history_bytes=new_history.nbytes)
        return state, new_history


class Replay(RollingState):
    """A refinement's base: the old run's history, replayed over the new
    snapshot's id space, plus what the batch changed.

    :meth:`~repro.ligra.delta.DeltaEngine.step` advances it one record
    per step and reads ``batch``, ``contrib_params`` and
    ``apply_params`` (constant across steps), the switch's fixed price,
    and what a dense step's compare left (``compared``, ``priced``).
    """

    def __init__(self, algorithm: IncrementalAlgorithm,
                 mutation: MutationResult,
                 history: DependencyHistory) -> None:
        graph = mutation.new_graph
        num_vertices = graph.num_vertices
        # Initial values are a function of the vertex id alone: the old
        # run's bases serve unless the graph grew, and then replay it
        # unchanged over the extended id space.  Neither is written to.
        self.initial, self.identity = (history.initial_values,
                                       history.identity_aggregate)
        if history.num_vertices != num_vertices:
            self.initial = algorithm.initial_values(graph)
            self.identity = algorithm.identity_aggregate(num_vertices)
        super().__init__(history, self.initial, self.identity)
        self.batch = mutation
        # Vertices whose contribution function changed (e.g. PageRank
        # out-degree), and those whose apply did plus brand-new ones:
        # the extended old run never applied them.
        self.contrib_params = algorithm.contribution_params_changed(mutation)
        self.apply_params = union_ids(
            num_vertices, algorithm.apply_params_changed(mutation),
            np.arange(mutation.old_graph.num_vertices, num_vertices,
                      dtype=np.int64))
        # The switch's price before any moved source: the batch's edges
        # plus the contribution-changed sources' out-edges (a mask, so a
        # dense step's compare counts each once).
        self.batch_edges = mutation.add_src.size + mutation.del_src.size
        self.fixed_edges, self.contrib_mask = self.batch_edges, None
        if self.contrib_params.size:
            self.contrib_mask = np.zeros(num_vertices, dtype=bool)
            self.contrib_mask[self.contrib_params] = True
            self.fixed_edges += int(graph.out_degrees() @ self.contrib_mask)
        self.compared = self.priced = 0
        # Every id, for a dense step's whole-array apply (once per batch).
        self.all_vertices = np.arange(num_vertices, dtype=np.int64)
