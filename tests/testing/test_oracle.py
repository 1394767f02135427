"""Unit tests for the cross-engine equivalence oracle."""

import numpy as np
import pytest

from repro.graph.mutation import MutationBatch
from repro.testing.oracle import (
    available_engines,
    build_runner,
    check_workload,
    compare_snapshots,
)
from repro.testing.workloads import (
    FUZZ_ALGORITHMS,
    Workload,
    generate_workload,
)


class TestCompareSnapshots:
    def test_equal_within_tolerance(self):
        assert compare_snapshots([1.0, 2.0], [1.0, 2.0 + 1e-9],
                                 tolerance=1e-6) is None

    def test_value_divergence_reports_vertex(self):
        kind, detail, max_error = compare_snapshots(
            [1.0, 3.0], [1.0, 2.0], tolerance=1e-6
        )
        assert kind == "values"
        assert "vertex 1" in detail
        assert max_error == pytest.approx(0.5)

    def test_matching_infinities_agree(self):
        assert compare_snapshots(
            [0.0, np.inf], [0.0, np.inf], tolerance=1e-9
        ) is None

    def test_mismatched_infinity_diverges(self):
        kind, detail, _ = compare_snapshots(
            [0.0, 5.0], [0.0, np.inf], tolerance=1e-9
        )
        assert kind == "finite-mask"
        assert "vertex 1" in detail

    def test_shape_mismatch(self):
        kind, _, _ = compare_snapshots(
            np.zeros(3), np.zeros(4), tolerance=1e-9
        )
        assert kind == "shape"

    def test_vector_values(self):
        actual = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = np.array([[1.0, 2.0], [3.0, 4.5]])
        kind, detail, _ = compare_snapshots(actual, expected,
                                            tolerance=1e-6)
        assert kind == "values"
        assert "vertex 1" in detail


class TestEngineSelection:
    def test_monotonic_gets_extra_engines(self):
        profile = FUZZ_ALGORITHMS["sssp"]
        engines = available_engines(profile, num_vertices=20)
        assert "kickstarter" in engines
        assert "dataflow" in engines

    def test_dataflow_gated_by_size(self):
        profile = FUZZ_ALGORITHMS["sssp"]
        engines = available_engines(profile, num_vertices=1000)
        assert "dataflow" not in engines

    def test_fixed_point_roster(self):
        profile = FUZZ_ALGORITHMS["pagerank"]
        engines = available_engines(profile, num_vertices=20)
        assert engines == ["ligra", "gbreset", "graphbolt"]

    def test_build_runner_rejects_mismatches(self):
        with pytest.raises(ValueError):
            build_runner("kickstarter", FUZZ_ALGORITHMS["pagerank"])
        with pytest.raises(ValueError):
            build_runner("no-such-engine", FUZZ_ALGORITHMS["pagerank"])


def _naive_trap() -> Workload:
    """A 12-cycle workload on which naive value reuse measurably
    diverges (a structural change far from the converged fixpoint) while
    every honest engine agrees; diverges before the final batch so
    ``stop_at_first`` has something to skip."""
    n = 12
    edges = [(v, v + 1, 1.0) for v in range(n - 1)] + [(n - 1, 0, 1.0)]
    return Workload(
        seed=0, algorithm="pagerank", num_vertices=n, edges=edges,
        schedule=[
            MutationBatch.from_edges(deletions=[(n - 1, 0)]),
            MutationBatch.from_edges(additions=[(0, n // 2)]),
            MutationBatch.empty(),
        ],
    )


class TestCheckWorkload:
    def test_seeded_workloads_agree(self):
        # A pinned mini-campaign: every engine agrees on every batch.
        for seed in range(6):
            report = check_workload(generate_workload(seed))
            assert report.ok, "\n".join(
                str(d) for d in report.divergences
            )
            assert report.batches_checked == len(
                report.workload.schedule
            )

    def test_naive_strategy_is_caught(self):
        report = check_workload(_naive_trap(), include_naive=True)
        assert not report.ok
        assert all(d.engine == "naive" for d in report.divergences)

    def test_empty_batch_work_sanity_recorded(self):
        workload = Workload(
            seed=0, algorithm="pagerank", num_vertices=4,
            edges=[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
            schedule=[MutationBatch.empty()],
        )
        report = check_workload(workload)
        assert report.ok
        # Refinement does no edge work on a no-op batch; restart does.
        assert report.edge_work["graphbolt"][-1] == 0
        assert report.edge_work["ligra"][-1] > 0

    def test_stop_at_first_halts_early(self):
        workload = _naive_trap()
        report = check_workload(workload, include_naive=True,
                                stop_at_first=True)
        assert not report.ok
        assert report.batches_checked < len(workload.schedule)

    def test_crashing_engine_reported_not_raised(self, monkeypatch):
        import repro.testing.oracle as oracle_module

        workload = generate_workload(0, algorithms=["pagerank"])
        real_build = oracle_module.build_runner

        def flaky_build(engine, profile, **kwargs):
            runner = real_build(engine, profile, **kwargs)
            if engine == "graphbolt":
                def boom(batch):
                    raise RuntimeError("kaboom")
                runner.apply = boom
            return runner

        monkeypatch.setattr(oracle_module, "build_runner", flaky_build)
        report = oracle_module.check_workload(workload)
        crashes = [d for d in report.divergences if d.kind == "crash"]
        assert crashes and "kaboom" in crashes[0].detail
