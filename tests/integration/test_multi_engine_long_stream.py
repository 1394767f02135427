"""Long-stream soak test: 20 batches, every engine family at once.

The most end-to-end check in the suite: a single mutation stream driven
simultaneously through GraphBolt (pruned and unpruned, delta and RP
modes) with per-batch cross-validation, finishing
with a checkpoint/restore and continued processing.
"""

import numpy as np
import pytest

from repro.algorithms import LabelPropagation
from repro.core.engine import GraphBoltEngine
from repro.graph.generators import rmat
from repro.ligra.engine import LigraEngine
from repro.runtime.checkpoint import load_engine, save_engine
from tests.conftest import make_random_batch

ITERATIONS = 8


def factory():
    return LabelPropagation(num_labels=3, seed_every=4)


@pytest.mark.parametrize("label,kwargs", [
    ("plain", {}),
    ("pruned", {"horizon": 3}),
    ("rp", {"retract": True}),
])
def test_twenty_batch_soak(label, kwargs, rng):
    graph = rmat(scale=7, edge_factor=5, seed=110, weighted=True)
    engine = GraphBoltEngine(factory(), num_iterations=ITERATIONS,
                             **kwargs)
    engine.run(graph)
    for index in range(20):
        batch = make_random_batch(engine.graph, rng, 8, 8)
        values = engine.apply_mutations(batch)
        if index % 5 == 4:
            truth = LigraEngine(factory()).run(engine.graph, ITERATIONS)
            assert np.allclose(values, truth, atol=1e-6), (label, index)


def test_soak_with_mid_stream_checkpoint(tmp_path, rng):
    graph = rmat(scale=7, edge_factor=5, seed=111, weighted=True)
    engine = GraphBoltEngine(factory(), num_iterations=ITERATIONS)
    engine.run(graph)
    for _ in range(10):
        engine.apply_mutations(make_random_batch(engine.graph, rng, 8, 8))

    path = str(tmp_path / "soak.ckpt")
    save_engine(engine, path)
    restored = load_engine(path, factory())

    for _ in range(10):
        batch = make_random_batch(engine.graph, rng, 8, 8)
        original = engine.apply_mutations(batch)
        resumed = restored.apply_mutations(batch)
        assert np.array_equal(original, resumed)
    truth = LigraEngine(factory()).run(engine.graph, ITERATIONS)
    assert np.allclose(engine.values, truth, atol=1e-6)
