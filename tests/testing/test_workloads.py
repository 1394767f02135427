"""Unit tests for deterministic workload generation."""

import numpy as np
import pytest

from repro.algorithms.registry import REGISTRY
from repro.core.model import IncrementalAlgorithm
from repro.graph.mutation import MutationBatch
from repro.ligra.delta import ITERATION_CAP
from repro.testing.workloads import (
    BATCH_KINDS,
    FUZZ_ALGORITHMS,
    Workload,
    generate_workload,
)


class TestDeterminism:
    def test_same_seed_same_workload(self):
        first = generate_workload(42)
        second = generate_workload(42)
        assert first.algorithm == second.algorithm
        assert first.num_vertices == second.num_vertices
        assert first.edges == second.edges
        assert first.kinds == second.kinds
        assert len(first.schedule) == len(second.schedule)
        for a, b in zip(first.schedule, second.schedule):
            assert list(a.additions()) == list(b.additions())
            assert list(a.deletions()) == list(b.deletions())
            assert a.grow_to == b.grow_to

    def test_different_seeds_differ(self):
        workloads = [generate_workload(seed) for seed in range(10)]
        signatures = {
            (w.algorithm, w.num_vertices, len(w.edges)) for w in workloads
        }
        assert len(signatures) > 1


class TestGeneration:
    def test_graph_builds_and_matches_counts(self):
        workload = generate_workload(7)
        graph = workload.build_graph()
        assert graph.num_vertices == workload.num_vertices
        assert graph.num_edges == len(workload.edges)

    def test_roster_restriction(self):
        workload = generate_workload(3, algorithms=["pagerank"])
        assert workload.algorithm == "pagerank"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz algorithms"):
            generate_workload(0, algorithms=["page-rank-typo"])

    def test_all_kinds_reachable(self):
        seen = set()
        for seed in range(120):
            seen.update(generate_workload(seed).kinds)
        expected = set(BATCH_KINDS) | {"churn_insert", "churn_delete"}
        assert expected <= seen

    def test_churn_delete_follows_insert(self):
        for seed in range(120):
            workload = generate_workload(seed)
            for index, kind in enumerate(workload.kinds):
                if kind != "churn_delete":
                    continue
                assert workload.kinds[index - 1] == "churn_insert"
                inserted = {
                    (u, v) for u, v, _ in
                    workload.schedule[index - 1].additions()
                }
                deleted = set(workload.schedule[index].deletions())
                assert deleted == inserted

    def test_monotonic_and_vector_profiles_present(self):
        profiles = FUZZ_ALGORITHMS.values()
        assert any(p.num_iterations == ITERATION_CAP for p in profiles)
        assert any(p.vector for p in profiles)
        assert len(FUZZ_ALGORITHMS) >= 3

    def test_weights_are_finite_and_positive(self):
        for seed in range(30):
            workload = generate_workload(seed)
            for _, _, weight in workload.edges:
                assert np.isfinite(weight) and weight > 0
            for batch in workload.schedule:
                for _, _, weight in batch.additions():
                    assert np.isfinite(weight) and weight > 0


class TestRegistryContract:
    """What seeds and the end-to-end benchmark read from the registry."""

    def test_fuzz_roster_is_the_six_keys_in_sorted_order(self):
        # generate_workload maps a seed to sorted(FUZZ_ALGORITHMS)[i]:
        # a roster change re-deals every seed's algorithm.
        assert sorted(FUZZ_ALGORITHMS) == [
            "bfs", "coem", "connected-components", "label-propagation",
            "pagerank", "sssp",
        ]
        assert all(FUZZ_ALGORITHMS[key] is REGISTRY[key]
                   for key in FUZZ_ALGORITHMS)

    def test_pagerank_oracle_tolerance(self):
        # benchmarks/e2e checks Theorem 4.1 at this tolerance.
        assert FUZZ_ALGORITHMS["pagerank"].tolerance == 1e-6

    def test_every_entry_builds_a_fresh_instance(self):
        for name, spec in REGISTRY.items():
            first = spec.factory()
            assert isinstance(first, IncrementalAlgorithm), name
            assert spec.factory() is not first, name


class TestWorkloadHelpers:
    def test_with_schedule_truncates_kinds(self):
        workload = generate_workload(11)
        truncated = workload.with_schedule(workload.schedule[:1])
        assert len(truncated.schedule) == 1
        assert truncated.kinds == workload.kinds[:1]
        # The original is untouched (shrinker relies on this).
        assert len(workload.schedule) >= 1

    def test_total_mutations(self):
        workload = Workload(
            seed=0, algorithm="pagerank", num_vertices=3,
            edges=[(0, 1, 1.0)],
            schedule=[
                MutationBatch.from_edges(additions=[(1, 2)]),
                MutationBatch.from_edges(deletions=[(0, 1)]),
            ],
        )
        assert workload.total_mutations() == 2
