"""Unit tests for the streaming runners and measurement harness."""

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.bench.harness import (
    DeltaRunner,
    GraphBoltRunner,
    LigraRunner,
    run_stream,
)
from repro.bench.workloads import uniform_batch
from repro.graph.generators import rmat


@pytest.fixture(scope="module")
def graph():
    return rmat(scale=7, edge_factor=5, seed=41, weighted=True)


@pytest.fixture(scope="module")
def batches(graph):
    return [uniform_batch(graph, 20, seed=s) for s in range(3)]


class TestRunnersAgree:
    def test_all_three_produce_same_values(self, graph, batches):
        results = {}
        for runner in (
            LigraRunner(lambda: PageRank(), 8),
            DeltaRunner(lambda: PageRank(), 8),
            GraphBoltRunner(lambda: PageRank(), 8),
        ):
            results[runner.name] = run_stream(runner, graph, batches)
        ligra = results["Ligra"].final_values
        for name, result in results.items():
            assert np.allclose(result.final_values, ligra, atol=1e-7), name

    def test_rp_mode_renames_runner(self):
        runner = GraphBoltRunner(lambda: PageRank(), retract=True)
        assert runner.name == "GraphBolt-RP"


class TestMeasurement:
    def test_per_batch_records(self, graph, batches):
        result = run_stream(GraphBoltRunner(lambda: PageRank(), 8),
                            graph, batches)
        assert len(result.batches) == 3
        assert result.setup_seconds > 0
        for batch in result.batches:
            assert batch.total_seconds >= batch.seconds >= 0
            assert batch.edge_computations > 0

    def test_aggregates(self, graph, batches):
        result = run_stream(DeltaRunner(lambda: PageRank(), 8),
                            graph, batches)
        assert result.total_apply_seconds == pytest.approx(
            sum(b.seconds for b in result.batches)
        )
        assert result.total_edge_computations == sum(
            b.edge_computations for b in result.batches
        )

    def test_structure_adjustment_excluded_from_compute(self, graph):
        batch = uniform_batch(graph, 10, seed=11)
        result = run_stream(LigraRunner(lambda: PageRank(), 8),
                            graph, [batch])
        measured = result.batches[0]
        assert measured.total_seconds > measured.seconds

    def test_empty_stream(self, graph):
        result = run_stream(LigraRunner(lambda: PageRank(), 4), graph, [])
        assert result.total_apply_seconds == 0.0
        assert result.batches == []
