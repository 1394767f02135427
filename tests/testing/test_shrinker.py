"""Shrinker tests, including the plant-a-bug harness self-test.

The self-test is the proof the whole subsystem is live: a deliberately
broken engine (``NaiveRunner``, the incorrect reuse of Figure 2 /
Table 1) must be *detected* by the oracle and the failure
must *shrink* to a tiny repro -- demonstrating the harness catches real
divergence rather than passing vacuously.
"""

import pytest

from repro.graph.mutation import MutationBatch
from repro.testing import shrinker
from repro.testing.oracle import check_workload
from repro.testing.shrinker import _ddmin, shrink, to_pytest
from repro.testing.workloads import Workload, generate_workload


def naive_fails(workload: Workload) -> bool:
    return not check_workload(workload, include_naive=True,
                              stop_at_first=True).ok


class TestDdmin:
    def test_minimises_to_single_culprit(self):
        items = list(range(20))
        result = _ddmin(items, lambda subset: 13 in subset)
        assert result == [13]

    def test_keeps_interacting_pair(self):
        items = list(range(10))
        result = _ddmin(
            items, lambda subset: 2 in subset and 7 in subset
        )
        assert sorted(result) == [2, 7]

    def test_empty_ok(self):
        assert _ddmin([], lambda subset: True) == []


class TestShrink:
    def test_requires_failing_input(self):
        healthy = generate_workload(0)
        with pytest.raises(ValueError, match="failing workload"):
            shrink(healthy, lambda w: False)

    def test_budget_exhaustion_returns_failing_workload(self, monkeypatch):
        monkeypatch.setattr(shrinker, "MAX_CHECKS", 3)
        workload = _planted_workload()
        result = shrink(workload, naive_fails)
        assert result.exhausted
        assert naive_fails(result.workload)


def _planted_workload() -> Workload:
    """A 24-vertex workload on which naive reuse diverges."""
    edges = [(v, (v + 1) % 24, 1.0) for v in range(24)]
    return Workload(
        seed=999, algorithm="pagerank", num_vertices=24, edges=edges,
        schedule=[
            MutationBatch.from_edges(additions=[(0, 12)],
                                     add_weights=[1.0]),
            MutationBatch.from_edges(deletions=[(5, 6)]),
        ],
        kinds=["uniform", "delete_heavy"],
    )


class TestPlantABug:
    def test_oracle_detects_and_shrinks_naive_strategy(self):
        workload = _planted_workload()

        report = check_workload(workload, include_naive=True)
        assert not report.ok, "oracle failed to catch the planted bug"
        assert any(d.engine == "naive" for d in report.divergences)

        # Without the broken engine the same workload is clean: the
        # detection is the bug, not harness noise.
        assert check_workload(workload).ok

        result = shrink(workload, naive_fails)
        shrunk = result.workload
        assert naive_fails(shrunk)
        assert shrunk.num_vertices <= 20
        assert len(shrunk.edges) <= len(workload.edges)
        assert len(shrunk.schedule) <= len(workload.schedule)

    def test_emitted_repro_is_executable(self):
        workload = _planted_workload()
        result = shrink(workload, naive_fails)
        source = to_pytest(result.workload, include_naive=True,
                           expect_divergence=True)
        assert "def test_fuzz_seed_999_pagerank" in source
        assert "include_naive=True" in source
        namespace = {}
        exec(compile(source, "<repro>", "exec"), namespace)  # noqa: S102
        test_fn = namespace["test_fuzz_seed_999_pagerank"]
        test_fn()  # the planted divergence still reproduces


class TestToPytest:
    def test_passing_repro_asserts_ok(self):
        workload = generate_workload(1)
        source = to_pytest(workload)
        assert "assert report.ok" in source
        namespace = {}
        exec(compile(source, "<repro>", "exec"), namespace)  # noqa: S102
        [test_fn] = [fn for name, fn in namespace.items()
                     if name.startswith("test_")]
        test_fn()

    def test_empty_batch_rendered(self):
        workload = Workload(
            seed=5, algorithm="pagerank", num_vertices=2,
            edges=[(0, 1, 1.0)], schedule=[MutationBatch.empty()],
        )
        assert "MutationBatch.empty()" in to_pytest(workload)
