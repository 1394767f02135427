"""Unit tests for the unpruned default of GraphBoltEngine's tracking.

With no horizon every iteration is tracked (no horizontal pruning), and
each record holds only the rows that changed (vertical pruning is the
history's storage format, paper section 3.2).  The horizon cut-offs are
pinned in ``test_engine.py``.
"""

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.core.engine import GraphBoltEngine
from repro.graph.generators import rmat
from repro.obs import trace
from repro.obs.trace import Tracer


@pytest.fixture
def graph():
    return rmat(scale=8, edge_factor=6, seed=4, weighted=True)


class TestValidation:
    def test_default_prunes_nothing(self, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=10)
        assert engine.horizon is None
        engine.run(graph)
        history = engine.history
        assert history.horizon == 10
        values = history.initial_values.copy()
        aggregate = history.identity_aggregate.copy()
        for record in history.records:
            # Only changed rows are stored ...
            assert np.all(record.c_values != values[record.c_idx])
            assert np.all(record.g_values != aggregate[record.g_idx])
            values[record.c_idx] = record.c_values
            aggregate[record.g_idx] = record.g_values
        # ... and every changed row is: the records replay the run.
        assert np.array_equal(values, engine.values)


class TestHorizontal:
    def test_no_pruning_tracks_forever(self, graph):
        tracer = Tracer()
        with trace.activated(tracer):
            GraphBoltEngine(PageRank(), num_iterations=40).run(graph)
        tracked = [event["tags"]["tracked"] for event in tracer.events()
                   if event["name"] == "iteration"]
        assert tracked == [True] * 40
