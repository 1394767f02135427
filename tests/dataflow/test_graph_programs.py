"""Correctness of the differential graph programs."""

import numpy as np
import pytest

from repro.algorithms import PageRank, SSSP
from repro.dataflow.graph_programs import DifferentialPageRank, DifferentialSSSP
from repro.graph.generators import cycle_graph, rmat
from repro.graph.mutation import MutationBatch
from repro.ligra.engine import LigraEngine
from tests.conftest import make_random_batch


@pytest.fixture(scope="module")
def graph():
    return rmat(scale=6, edge_factor=4, seed=30, weighted=True)


class TestDifferentialPageRank:
    def test_initial_matches_engine(self, graph):
        dd = DifferentialPageRank(graph, num_iterations=8)
        truth = LigraEngine(PageRank()).run(graph, 8)
        assert np.allclose(dd.values, truth, atol=1e-9)

    def test_updates_match_engine(self, graph, rng):
        dd = DifferentialPageRank(graph, num_iterations=6)
        for _ in range(3):
            batch = make_random_batch(dd.graph, rng, 4, 4)
            dd.apply_mutations(batch)
            truth = LigraEngine(PageRank()).run(dd.graph, 6)
            assert np.allclose(dd.values, truth, atol=1e-9)

    def test_vertex_growth(self, graph):
        dd = DifferentialPageRank(graph, num_iterations=5)
        grown = graph.num_vertices + 2
        dd.apply_mutations(
            MutationBatch.from_edges(additions=[(0, grown - 1)],
                                     grow_to=grown)
        )
        truth = LigraEngine(PageRank()).run(dd.graph, 5)
        assert dd.values.shape == (grown,)
        assert np.allclose(dd.values, truth, atol=1e-9)

    def test_update_work_less_than_initial(self, graph):
        dd = DifferentialPageRank(graph, num_iterations=6)
        initial_work = dd.dataflow.records_processed
        rng = np.random.default_rng(1)
        dd.apply_mutations(make_random_batch(dd.graph, rng, 1, 0))
        update_work = dd.dataflow.records_processed - initial_work
        assert update_work < initial_work


class TestDifferentialSSSP:
    def test_initial_matches_engine(self, graph):
        dd = DifferentialSSSP(graph, source=0, num_stages=24)
        truth = LigraEngine(SSSP(0)).run(graph, until_convergence=True)
        both_inf = np.isinf(dd.values) & np.isinf(truth)
        assert np.allclose(dd.values[~both_inf], truth[~both_inf])
        assert np.array_equal(np.isinf(dd.values), np.isinf(truth))

    def test_updates_match_engine(self, graph, rng):
        dd = DifferentialSSSP(graph, source=0, num_stages=24)
        for _ in range(3):
            batch = make_random_batch(dd.graph, rng, 5, 5)
            dd.apply_mutations(batch)
            truth = LigraEngine(SSSP(0)).run(dd.graph,
                                             until_convergence=True)
            both_inf = np.isinf(dd.values) & np.isinf(truth)
            assert np.allclose(dd.values[~both_inf], truth[~both_inf])

    def test_deletion_reroutes(self):
        graph = cycle_graph(5)
        dd = DifferentialSSSP(graph, source=0, num_stages=10)
        assert dd.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        dd.apply_mutations(
            MutationBatch.from_edges(additions=[(0, 3)],
                                     deletions=[(2, 3)])
        )
        assert dd.values.tolist() == [0.0, 1.0, 2.0, 1.0, 2.0]

    def test_stage_truncation_bounds_distances(self):
        # With fewer stages than the diameter, distances beyond the
        # window stay unreached -- the documented fixed-window semantic.
        graph = cycle_graph(10)
        dd = DifferentialSSSP(graph, source=0, num_stages=3)
        assert dd.values[3] == 3.0
        assert np.isinf(dd.values[9])


class TestDiamondFanOut:
    """Every unrolled stage is a diamond (``dists`` feeds the join and
    the concat), so an operator that answers each queued message on its
    own doubles the message count per stage.  Fuzz workload seed 33
    (SSSP, V = 40) is the case the fuzz-smoke campaign met: its batch 3
    took 9.2 M records before ``drain`` merged arrivals per
    ``(port, time)``."""

    def test_fuzz_workload_33_passes_the_oracle(self):
        from repro.testing.oracle import check_workload
        from repro.testing.workloads import generate_workload

        workload = generate_workload(33)
        assert workload.algorithm == "sssp"
        report = check_workload(workload)
        assert "dataflow" in report.engines
        assert report.ok, report.divergences

    def test_fuzz_workload_33_work_is_bounded(self):
        from repro.testing.oracle import build_runner
        from repro.testing.workloads import generate_workload

        workload = generate_workload(33)
        runner = build_runner("dataflow", workload.profile)
        runner.setup(workload.build_graph())
        for batch in workload.schedule[:3]:
            runner.apply(batch)
        dataflow = runner.engine.dataflow
        before = dataflow.records_processed
        runner.apply(workload.schedule[3])
        assert dataflow.records_processed - before <= 200_000
