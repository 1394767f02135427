"""Property-based verification of Theorem 4.1.

Hypothesis drives random graphs, random mutation streams (including
vertex growth and weight replacement) and random pruning horizons
through GraphBolt for three representative algorithm classes, asserting
refinement-equals-from-scratch at every step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import LabelPropagation, PageRank, SSSP
from repro.core.engine import GraphBoltEngine
from repro.graph.csr import CSRGraph
from repro.graph.mutation import MutationBatch
from repro.ligra.engine import LigraEngine


@st.composite
def scenario(draw):
    num_vertices = draw(st.integers(3, 14))

    def edge():
        return st.tuples(
            st.integers(0, num_vertices - 1),
            st.integers(0, num_vertices - 1),
        ).filter(lambda e: e[0] != e[1])

    edges = draw(st.lists(edge(), max_size=30))
    weights = draw(
        st.lists(
            st.floats(0.1, 5.0, allow_nan=False),
            min_size=len(set(edges)),
            max_size=len(set(edges)),
        )
    )
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        additions = draw(st.lists(edge(), max_size=6))
        deletions = draw(st.lists(edge(), max_size=6))
        add_weights = draw(
            st.lists(
                st.floats(0.1, 5.0, allow_nan=False),
                min_size=len(additions), max_size=len(additions),
            )
        )
        grow = draw(st.booleans())
        batches.append(
            MutationBatch.from_edges(
                additions=additions, deletions=deletions,
                add_weights=add_weights,
                grow_to=num_vertices + 2 if grow else None,
            )
        )
    horizon = draw(st.one_of(st.none(), st.integers(0, 8)))
    return num_vertices, sorted(set(edges)), weights, batches, horizon


def run_and_check(algorithm_factory, data, iterations, tolerance=1e-6):
    num_vertices, edges, weights, batches, horizon = data
    graph = CSRGraph.from_edges(edges, num_vertices=num_vertices,
                                weights=weights)
    engine = GraphBoltEngine(algorithm_factory(), num_iterations=iterations,
                             horizon=horizon)
    engine.run(graph)
    for batch in batches:
        values = engine.apply_mutations(batch)
        truth = LigraEngine(algorithm_factory()).run(engine.graph,
                                                     iterations)
        filled = np.where(np.isinf(values), -1.0, values)
        filled_truth = np.where(np.isinf(truth), -1.0, truth)
        diff = np.abs(filled - filled_truth)
        while diff.ndim > 1:
            diff = diff.max(axis=-1)
        assert diff.max() <= tolerance, (
            f"diverged by {diff.max()} at vertex {int(diff.argmax())}"
        )


class TestTheorem41:
    @given(scenario())
    @settings(max_examples=50, deadline=None)
    def test_pagerank(self, data):
        run_and_check(lambda: PageRank(), data, iterations=8)

    @given(scenario())
    @settings(max_examples=50, deadline=None)
    def test_label_propagation(self, data):
        run_and_check(
            lambda: LabelPropagation(num_labels=3), data, iterations=8
        )

    @given(scenario())
    @settings(max_examples=50, deadline=None)
    def test_sssp(self, data):
        run_and_check(lambda: SSSP(source=0), data, iterations=30)


class TestTheorem41MoreAlgorithmClasses:
    """Extend the property net to the remaining algebra corners:
    apply-parameter algorithms (CoEM), log-product aggregation (BP),
    and the bare-sum recurrence (Katz)."""

    @given(scenario())
    @settings(max_examples=40, deadline=None)
    def test_coem(self, data):
        from repro.algorithms import CoEM

        run_and_check(lambda: CoEM(), data, iterations=8)

    @given(scenario())
    @settings(max_examples=40, deadline=None)
    def test_belief_propagation(self, data):
        from repro.algorithms import BeliefPropagation

        run_and_check(
            lambda: BeliefPropagation(num_states=2), data, iterations=8,
            tolerance=1e-5,
        )

    @given(scenario())
    @settings(max_examples=40, deadline=None)
    def test_katz(self, data):
        from repro.algorithms import KatzCentrality

        run_and_check(
            lambda: KatzCentrality(alpha=0.05), data, iterations=8
        )
