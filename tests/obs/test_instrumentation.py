"""End-to-end checks that the engines emit the documented span tree."""

import numpy as np

from repro import GraphBoltEngine, MutationBatch, PageRank, rmat
from repro.kickstarter.engine import KickStarterEngine
from repro.ligra.engine import LigraEngine
from repro.obs import trace
from repro.obs.registry import scoped_registry
from repro.obs.render import build_tree
from repro.obs.trace import Tracer


def mutation_batches(graph, batches, seed=3, size=20):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(batches):
        additions = [
            (int(rng.integers(0, graph.num_vertices)),
             int(rng.integers(0, graph.num_vertices)))
            for _ in range(size)
        ]
        out.append(MutationBatch.from_edges(additions=additions))
    return out


def run_graphbolt(tracer, batches=3):
    graph = rmat(scale=7, edge_factor=4, seed=1)
    with trace.activated(tracer):
        engine = GraphBoltEngine(PageRank(), num_iterations=6)
        engine.run(graph)
        for batch in mutation_batches(engine.graph, batches):
            engine.apply_mutations(batch)
    return tracer.events()


class TestGraphBoltSpans:
    def test_every_batch_has_refine_and_forward(self):
        batches = 3
        events = run_graphbolt(Tracer(), batches=batches)
        roots = build_tree(events)
        assert [root["name"] for root in roots] == (
            ["initial_run"] + ["batch"] * batches
        )
        for index, root in enumerate(roots[1:]):
            assert root["tags"]["index"] == index
            phases = [child["name"] for child in root["children"]]
            assert "adjust_structure" in phases
            assert "refine" in phases
            assert "forward" in phases

    def test_refine_iterations_tag_mode(self):
        events = run_graphbolt(Tracer())
        modes = [
            event["tags"]["mode"] for event in events
            if event["name"] == "iteration" and "mode" in event["tags"]
        ]
        assert modes  # refine loop tagged which path it took
        assert set(modes) <= {"dense", "decomposable", "reevaluate"}

    def test_span_tree_is_deterministic(self):
        def shape(events):
            return [(e["id"], e["parent"], e["name"]) for e in events]

        assert shape(run_graphbolt(Tracer())) == shape(
            run_graphbolt(Tracer())
        )

    def test_span_tree_covers_batches(self):
        events = run_graphbolt(Tracer(), batches=2)
        batches = [root for root in build_tree(events)
                   if root["name"] == "batch"]
        assert len(batches) == 2
        for root in batches:
            names = {child["name"] for child in root["children"]}
            assert {"refine", "forward"} <= names

    def test_gauges_published(self):
        with scoped_registry() as registry:
            run_graphbolt(Tracer(), batches=1)
            gauges = registry.to_json()["gauges"]
        assert "graphbolt.frontier_density" in gauges
        assert "graphbolt.history_window" in gauges
        assert gauges["graphbolt.dependency_bytes"] > 0


class TestOtherEngines:
    def test_ligra_emits_compute_iterations(self):
        graph = rmat(scale=7, edge_factor=4, seed=1)
        tracer = Tracer()
        with trace.activated(tracer):
            LigraEngine(PageRank()).run(graph, 5)
        (root,) = build_tree(tracer.events())
        assert root["name"] == "compute"
        assert root["tags"]["engine"] == "Ligra"
        assert all(c["name"] == "iteration" for c in root["children"])

    def test_kickstarter_emits_trim_and_propagate(self):
        graph = rmat(scale=7, edge_factor=4, seed=1, weighted=True)
        tracer = Tracer()
        with trace.activated(tracer):
            engine = KickStarterEngine(graph, source=0)
            for batch in mutation_batches(graph, 2, size=10):
                engine.apply_mutations(batch)
        roots = build_tree(tracer.events())
        batches = [r for r in roots if r["name"] == "batch"]
        assert len(batches) == 2
        for root in batches:
            names = [child["name"] for child in root["children"]]
            assert "trim" in names
            assert "propagate" in names
