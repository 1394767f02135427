"""Property/metamorphic tests on top of the differential harness.

Three invariants any correct streaming engine must satisfy, checked as
fast, seed-pinned tier-1 tests:

- **batch splitting**: applying one batch of 2k mutations is equivalent
  to applying two batches of k (the BSP contract is about the final
  snapshot, not the batch boundaries);
- **round trip**: inserting edges and deleting exactly those edges is a
  no-op on the final values;
- **permutation invariance**: relabelling vertex ids permutes the
  results and changes nothing else (for id-independent algorithms).
"""

import numpy as np
import pytest

from repro.algorithms import PageRank, SSSP
from repro.core.engine import GraphBoltEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.graph.mutation import MutationBatch
from repro.ligra.delta import ITERATION_CAP
from repro.ligra.engine import LigraEngine

ITERATIONS = 8
SEED = 2024


def pinned_graph(num_vertices=32, num_edges=90):
    return erdos_renyi(num_vertices, num_edges, seed=SEED)


def fresh_pairs(graph, rng, count):
    """Distinct vertex pairs that are not edges of ``graph``."""
    src, dst, _ = graph.all_edges()
    existing = set(zip(src.tolist(), dst.tolist()))
    pairs = []
    while len(pairs) < count:
        u = int(rng.integers(0, graph.num_vertices))
        v = int(rng.integers(0, graph.num_vertices))
        if u != v and (u, v) not in existing and (u, v) not in pairs:
            pairs.append((u, v))
    return pairs


class TestBatchSplitting:
    @pytest.mark.parametrize("k", [3, 8])
    def test_one_batch_of_2k_equals_two_of_k(self, k):
        graph = pinned_graph()
        rng = np.random.default_rng(SEED)
        adds = fresh_pairs(graph, rng, 2 * k)
        weights = (rng.random(2 * k) + 0.5).tolist()

        combined = GraphBoltEngine(PageRank(tolerance=1e-9),
                                   num_iterations=ITERATIONS)
        combined.run(graph)
        whole = combined.apply_mutations(MutationBatch.from_edges(
            additions=adds, add_weights=weights,
        ))

        split = GraphBoltEngine(PageRank(tolerance=1e-9),
                                num_iterations=ITERATIONS)
        split.run(graph)
        split.apply_mutations(MutationBatch.from_edges(
            additions=adds[:k], add_weights=weights[:k],
        ))
        halves = split.apply_mutations(MutationBatch.from_edges(
            additions=adds[k:], add_weights=weights[k:],
        ))

        assert np.allclose(whole, halves, atol=1e-9)
        truth = LigraEngine(PageRank(tolerance=1e-9)).run(
            combined.graph, ITERATIONS
        )
        assert np.allclose(whole, truth, atol=1e-9)

    def test_splitting_deletions(self):
        graph = pinned_graph()
        src, dst, _ = graph.all_edges()
        doomed = [(int(src[i]), int(dst[i])) for i in range(0, 12, 2)]

        combined = GraphBoltEngine(PageRank(tolerance=1e-9),
                                   num_iterations=ITERATIONS)
        combined.run(graph)
        whole = combined.apply_mutations(
            MutationBatch.from_edges(deletions=doomed)
        )

        split = GraphBoltEngine(PageRank(tolerance=1e-9),
                                num_iterations=ITERATIONS)
        split.run(graph)
        split.apply_mutations(
            MutationBatch.from_edges(deletions=doomed[:3])
        )
        halves = split.apply_mutations(
            MutationBatch.from_edges(deletions=doomed[3:])
        )
        assert np.allclose(whole, halves, atol=1e-9)


class TestRoundTrip:
    @pytest.mark.parametrize("algorithm_factory", [
        lambda: PageRank(tolerance=1e-9),
        lambda: SSSP(source=0),
    ], ids=["pagerank", "sssp"])
    def test_insert_then_delete_is_noop(self, algorithm_factory):
        graph = pinned_graph()
        rng = np.random.default_rng(SEED + 1)
        adds = fresh_pairs(graph, rng, 6)
        weights = (rng.random(6) + 0.5).tolist()

        algorithm = algorithm_factory()
        engine = GraphBoltEngine(
            algorithm, ITERATION_CAP if algorithm.uses_previous_value
            else ITERATIONS,
        )
        baseline = engine.run(graph).copy()
        engine.apply_mutations(MutationBatch.from_edges(
            additions=adds, add_weights=weights,
        ))
        returned = engine.apply_mutations(
            MutationBatch.from_edges(deletions=adds)
        )

        finite = np.isfinite(baseline)
        assert np.array_equal(finite, np.isfinite(returned))
        assert np.allclose(returned[finite], baseline[finite],
                           atol=1e-9)

    def test_round_trip_of_existing_edges_restores_weights(self):
        graph = pinned_graph()
        src, dst, weight = graph.all_edges()
        doomed = [(int(src[i]), int(dst[i])) for i in range(4)]
        doomed_weights = [float(weight[i]) for i in range(4)]

        engine = GraphBoltEngine(PageRank(tolerance=1e-9),
                                 num_iterations=ITERATIONS)
        baseline = engine.run(graph).copy()
        engine.apply_mutations(
            MutationBatch.from_edges(deletions=doomed)
        )
        returned = engine.apply_mutations(MutationBatch.from_edges(
            additions=doomed, add_weights=doomed_weights,
        ))
        assert np.allclose(returned, baseline, atol=1e-9)


class TestPermutationInvariance:
    def _permuted(self, graph, perm):
        src, dst, weight = graph.all_edges()
        return CSRGraph.from_edges(
            [(int(perm[u]), int(perm[v])) for u, v in zip(src, dst)],
            num_vertices=graph.num_vertices,
            weights=weight.tolist(),
        )

    def test_pagerank_is_permutation_invariant(self):
        graph = pinned_graph()
        rng = np.random.default_rng(SEED + 2)
        perm = rng.permutation(graph.num_vertices)

        adds = fresh_pairs(graph, rng, 5)
        weights = (rng.random(5) + 0.5).tolist()
        dels_src, dels_dst, _ = graph.all_edges()
        dels = [(int(dels_src[i]), int(dels_dst[i])) for i in (0, 7, 13)]

        original = GraphBoltEngine(PageRank(tolerance=1e-9),
                                   num_iterations=ITERATIONS)
        original.run(graph)
        base_values = original.apply_mutations(MutationBatch.from_edges(
            additions=adds, deletions=dels, add_weights=weights,
        ))

        relabeled = GraphBoltEngine(PageRank(tolerance=1e-9),
                                    num_iterations=ITERATIONS)
        relabeled.run(self._permuted(graph, perm))
        perm_values = relabeled.apply_mutations(
            MutationBatch.from_edges(
                additions=[(int(perm[u]), int(perm[v]))
                           for u, v in adds],
                deletions=[(int(perm[u]), int(perm[v]))
                           for u, v in dels],
                add_weights=weights,
            )
        )
        assert np.allclose(perm_values[perm], base_values, atol=1e-9)

    def test_sssp_is_invariant_with_relocated_source(self):
        graph = pinned_graph()
        rng = np.random.default_rng(SEED + 3)
        # Keep the source fixed at id 0 so both runs use the same
        # algorithm config; permute every other vertex.
        perm = np.concatenate([
            [0], 1 + rng.permutation(graph.num_vertices - 1)
        ]).astype(np.int64)

        original = GraphBoltEngine(SSSP(source=0), ITERATION_CAP)
        base_values = original.run(graph)

        relabeled = GraphBoltEngine(SSSP(source=0), ITERATION_CAP)
        perm_values = relabeled.run(self._permuted(graph, perm))

        base_finite = np.isfinite(base_values)
        assert np.array_equal(np.isfinite(perm_values[perm]),
                              base_finite)
        assert np.allclose(perm_values[perm][base_finite],
                           base_values[base_finite], atol=1e-9)
