"""The paper's Figure 2 scenario on its exact 5-vertex graph.

Figure 2 shows a 5-vertex streaming graph G mutating to G^T by adding
edge (1, 2), and demonstrates for Label Propagation that:

- from-scratch results on G^T differ from results on G;
- *naively* continuing from G's results converges to values that are
  close to G's results and wrong for G^T (highlighted red in the paper);
- GraphBolt's dependency-driven refinement produces exactly the
  from-scratch values for G^T.
"""

import numpy as np
import pytest

from repro.algorithms import LabelPropagation
from repro.core.engine import GraphBoltEngine
from repro.graph.csr import CSRGraph
from repro.graph.mutation import MutationBatch
from repro.ligra.engine import LigraEngine
from tests.conftest import pin_refine_modes

#: Figure 2a: G, with 5 vertices.  Edges read off the figure's arrows
#: (2 -> 0, 0 -> 1, 2 -> 1, 1 -> 2 absent in G, 3 -> 2, 3 -> 4, 4 -> 3
#: and 2's self-dependencies via its neighbours).
G_EDGES = [(2, 0), (0, 1), (2, 1), (3, 2), (3, 4), (4, 3)]
#: Figure 2b: G^T = G plus the new edge (1, 2).
NEW_EDGE = (1, 2)
ITERATIONS = 10


@pytest.fixture
def algorithm_factory():
    return lambda: LabelPropagation(num_labels=2, seed_every=3, salt=0)


def graph_before():
    return CSRGraph.from_edges(G_EDGES, num_vertices=5)


def graph_after():
    return CSRGraph.from_edges(G_EDGES + [NEW_EDGE], num_vertices=5)


class TestFigure2:
    def test_mutation_changes_results(self, algorithm_factory):
        before = LigraEngine(algorithm_factory()).run(graph_before(),
                                                      ITERATIONS)
        after = LigraEngine(algorithm_factory()).run(graph_after(),
                                                     ITERATIONS)
        assert not np.allclose(before, after)

    def test_naive_reuse_is_incorrect(self, algorithm_factory):
        engine = GraphBoltEngine(algorithm_factory(),
                                 num_iterations=ITERATIONS,
                                 strategy="naive")
        engine.run(graph_before())
        naive = engine.apply_mutations(
            MutationBatch.from_edges(additions=[NEW_EDGE])
        )
        truth = LigraEngine(algorithm_factory()).run(graph_after(),
                                                     ITERATIONS)
        assert not np.allclose(naive, truth, atol=1e-6)

    def test_refinement_is_correct(self, algorithm_factory):
        engine = GraphBoltEngine(algorithm_factory(),
                                 num_iterations=ITERATIONS)
        engine.run(graph_before())
        refined = engine.apply_mutations(
            MutationBatch.from_edges(additions=[NEW_EDGE])
        )
        truth = LigraEngine(algorithm_factory()).run(graph_after(),
                                                     ITERATIONS)
        assert np.allclose(refined, truth, atol=1e-9)

    def test_refinement_reuses_unaffected_work(self, algorithm_factory,
                                               monkeypatch):
        pin_refine_modes(monkeypatch, False)
        engine = GraphBoltEngine(algorithm_factory(),
                                 num_iterations=ITERATIONS)
        engine.run(graph_before())
        before = engine.metrics.snapshot()
        engine.apply_mutations(
            MutationBatch.from_edges(additions=[NEW_EDGE])
        )
        delta = engine.metrics.delta_since(before)
        # Fewer edge computations than reprocessing the whole graph for
        # all iterations (the figure's point: refinement touches far
        # fewer dependency edges than Figure 3b's full dependence graph).
        full_work = graph_after().num_edges * ITERATIONS
        assert delta.edge_computations < full_work
