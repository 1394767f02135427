"""Unit tests for the unpruned default of GraphBoltEngine's tracking.

With no horizon every iteration is tracked (no horizontal pruning), and
each record half holds only the rows that changed (vertical pruning is
the history's storage format, paper section 3.2) -- unless the whole
array is no larger, and then it holds that.  The horizon cut-offs are
pinned in ``test_engine.py``.
"""

import numpy as np
import pytest

from repro.algorithms import LabelPropagation, PageRank
from repro.core.engine import GraphBoltEngine
from repro.graph.generators import rmat
from repro.ligra.delta import exact_changed_rows
from repro.obs import trace
from repro.obs.trace import Tracer


@pytest.fixture
def graph():
    return rmat(scale=8, edge_factor=6, seed=4, weighted=True)


class TestValidation:
    def test_default_prunes_nothing(self, graph):
        """PageRank at its tolerance changes most rows every iteration
        (dense halves); three-label LP changes fewer than the byte rule's
        break-even (sparse halves)."""
        forms = set()
        for algorithm in (PageRank(), LabelPropagation(num_labels=3)):
            engine = GraphBoltEngine(algorithm, num_iterations=10)
            assert engine.horizon is None
            engine.run(graph)
            history = engine.history
            assert history.horizon == 10
            values = history.initial_values.copy()
            aggregate = history.identity_aggregate.copy()
            for record in history.records:
                for idx, rows, before in (
                        (record.c_idx, record.c_values, values),
                        (record.g_idx, record.g_values, aggregate)):
                    forms.add(idx is None)
                    row = before.nbytes // before.shape[0]
                    if idx is None:
                        # A whole array is stored only where the changed
                        # rows, as id + row, would be no smaller ...
                        changed = int(exact_changed_rows(before, rows).sum())
                        assert changed * (8 + row) >= before.nbytes
                        before[:] = rows
                    else:
                        # ... and otherwise only changed rows are stored ...
                        assert np.all(exact_changed_rows(rows, before[idx]))
                        assert idx.size * (8 + row) < before.nbytes
                        before[idx] = rows
            # ... and every changed row is: the records replay the run.
            assert np.array_equal(values, engine.values)
        assert forms == {True, False}


class TestHorizontal:
    def test_no_pruning_tracks_forever(self, graph):
        tracer = Tracer()
        with trace.activated(tracer):
            GraphBoltEngine(PageRank(), num_iterations=40).run(graph)
        tracked = [event["tags"]["tracked"] for event in tracer.events()
                   if event["name"] == "iteration"]
        assert tracked == [True] * 40
