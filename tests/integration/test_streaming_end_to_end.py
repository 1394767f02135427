"""End-to-end integration: long streams through every engine at once.

Simulates the paper's full pipeline -- load 50% of a graph, stream the
rest mixed with deletions (section 5.1) -- and checks that Ligra,
GB-Reset, GraphBolt (with and without pruning) and, for SSSP,
KickStarter and the mini-DD agree on every intermediate snapshot.
"""

import numpy as np
import pytest

from repro.algorithms import PageRank, SSSP
from repro.bench.harness import (
    DeltaRunner,
    GraphBoltRunner,
    LigraRunner,
    run_stream,
)
from repro.bench.workloads import mixed_stream, split_initial_graph
from repro.dataflow.graph_programs import DifferentialSSSP
from repro.graph.generators import rmat
from repro.graph.mutation import MutationBatch, coalesce_batches
from repro.kickstarter.engine import KickStarterEngine
from repro.ligra.delta import ITERATION_CAP
from repro.ligra.engine import LigraEngine
from tests.conftest import edge_set


class TestPaperMethodologyStream:
    def test_all_engines_agree_across_stream(self):
        full = rmat(scale=8, edge_factor=6, seed=50, weighted=True)
        initial, batches = mixed_stream(full, num_batches=6,
                                        batch_size=30, seed=50)
        runners = [
            LigraRunner(lambda: PageRank(), 10),
            DeltaRunner(lambda: PageRank(), 10),
            GraphBoltRunner(lambda: PageRank(), 10),
            GraphBoltRunner(lambda: PageRank(), 10, horizon=4),
        ]
        for runner in runners:
            runner.setup(initial)
        for batch in batches:
            values = [runner.apply(batch) for runner in runners]
            for other in values[1:]:
                assert np.allclose(values[0], other, atol=1e-7)

    def test_final_graph_is_the_full_graph_when_no_deletions(self):
        full = rmat(scale=7, edge_factor=4, seed=51, weighted=True)
        initial, src, dst, weight = split_initial_graph(full, seed=51)
        batches = [
            MutationBatch.from_edges(
                additions=list(zip(src[i:i + 100].tolist(),
                                   dst[i:i + 100].tolist())),
                add_weights=weight[i:i + 100].tolist(),
            )
            for i in range(0, src.size, 100)
        ]
        runner = GraphBoltRunner(lambda: PageRank(), 5)
        runner.setup(initial)
        for batch in batches:
            runner.apply(batch)
        assert edge_set(runner.graph) == edge_set(full)


class TestSSSPAcrossAllEngines:
    def test_four_way_agreement(self):
        graph = rmat(scale=7, edge_factor=4, seed=52, weighted=True)
        initial, batches = mixed_stream(graph, num_batches=4,
                                        batch_size=20, seed=52)
        kick = KickStarterEngine(initial, source=0)
        bolt = GraphBoltRunner(lambda: SSSP(source=0), ITERATION_CAP)
        bolt.setup(initial)
        dd = DifferentialSSSP(initial, source=0, num_stages=30)
        for batch in batches:
            kick_values = kick.apply_mutations(batch)
            bolt_values = bolt.apply(batch)
            dd_values = dd.apply_mutations(batch)
            truth = LigraEngine(SSSP(source=0)).run(kick.graph, ITERATION_CAP)
            for values in (kick_values, bolt_values, dd_values):
                both_inf = np.isinf(values) & np.isinf(truth)
                assert np.allclose(values[~both_inf], truth[~both_inf])
                assert np.array_equal(np.isinf(values), np.isinf(truth))


class TestBufferedStreamConsumption:
    def test_coalesced_catchup_matches_one_by_one(self):
        graph = rmat(scale=7, edge_factor=4, seed=54, weighted=True)
        _, batches = mixed_stream(graph, num_batches=4, batch_size=15,
                                  seed=54)

        one_by_one = GraphBoltRunner(lambda: PageRank(), 8)
        one_by_one.setup(graph)
        for batch in batches:
            one_by_one.apply(batch)

        coalesced = GraphBoltRunner(lambda: PageRank(), 8)
        coalesced.setup(graph)
        # A backlog folded into one batch (the admission queue's
        # coalesce policy) lands on the same graph and values.
        coalesced.apply(coalesce_batches(batches))

        assert edge_set(coalesced.graph) == edge_set(one_by_one.graph)
        assert np.allclose(coalesced.engine.values,
                           one_by_one.engine.values, atol=1e-7)
