"""Tests for engine checkpoint/restore."""

import os

import numpy as np
import pytest

from repro.algorithms import LabelPropagation, PageRank, SSSP
from repro.core.engine import GraphBoltEngine
from repro.core.pruning import PruningPolicy
from repro.graph.generators import rmat
from repro.ligra.engine import LigraEngine
from repro.runtime.checkpoint import (
    _payload_crc32,
    load_engine,
    read_checkpoint_extra,
    save_engine,
)
from tests.conftest import make_random_batch


@pytest.fixture
def graph():
    return rmat(scale=7, edge_factor=5, seed=90, weighted=True)


def checkpoint_roundtrip(tmp_path, factory, graph, rng, iterations=8):
    engine = GraphBoltEngine(factory(), num_iterations=iterations)
    engine.run(graph)
    engine.apply_mutations(make_random_batch(engine.graph, rng, 10, 10))
    path = str(tmp_path / "engine.npz")
    save_engine(engine, path)
    restored = load_engine(path, factory())
    return engine, restored


class TestRoundtrip:
    def test_values_survive(self, tmp_path, graph, rng):
        engine, restored = checkpoint_roundtrip(
            tmp_path, lambda: PageRank(), graph, rng
        )
        assert np.array_equal(engine.values, restored.values)
        assert restored.graph.edge_set() == engine.graph.edge_set()
        assert restored.history.horizon == engine.history.horizon

    def test_restored_engine_continues_incrementally(self, tmp_path,
                                                     graph, rng):
        engine, restored = checkpoint_roundtrip(
            tmp_path, lambda: LabelPropagation(num_labels=3), graph, rng
        )
        batch = make_random_batch(engine.graph, rng, 12, 12)
        original = engine.apply_mutations(batch)
        resumed = restored.apply_mutations(batch)
        assert np.array_equal(original, resumed)
        truth = LigraEngine(LabelPropagation(num_labels=3)).run(
            restored.graph, 8
        )
        assert np.allclose(resumed, truth, atol=1e-7)

    def test_vector_values_roundtrip(self, tmp_path, graph, rng):
        engine, restored = checkpoint_roundtrip(
            tmp_path, lambda: LabelPropagation(num_labels=4), graph, rng
        )
        assert restored.values.shape == engine.values.shape

    def test_inf_values_roundtrip(self, tmp_path, graph, rng):
        engine, restored = checkpoint_roundtrip(
            tmp_path, lambda: SSSP(source=0), graph, rng, iterations=40
        )
        assert np.array_equal(
            np.isinf(engine.values), np.isinf(restored.values)
        )


class TestGuards:
    def test_algorithm_mismatch_rejected(self, tmp_path, graph, rng):
        engine = GraphBoltEngine(PageRank(), num_iterations=5)
        engine.run(graph)
        path = str(tmp_path / "engine.npz")
        save_engine(engine, path)
        with pytest.raises(ValueError, match="mismatch"):
            load_engine(path, LabelPropagation())

    def test_unrun_engine_rejected(self, tmp_path):
        engine = GraphBoltEngine(PageRank())
        with pytest.raises(RuntimeError):
            save_engine(engine, str(tmp_path / "x.npz"))


class TestAtomicWrite:
    def test_returns_real_path_when_suffix_missing(self, tmp_path, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        returned = save_engine(engine, str(tmp_path / "ckpt"))
        assert returned == str(tmp_path / "ckpt.npz")
        assert os.path.exists(returned)
        restored = load_engine(returned, PageRank())
        assert np.array_equal(restored.values, engine.values)

    def test_no_temp_droppings(self, tmp_path, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        save_engine(engine, str(tmp_path / "a.npz"))
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_overwrite_is_atomic_replace(self, tmp_path, graph, rng):
        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        path = str(tmp_path / "gen.npz")
        save_engine(engine, path)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 5, 5))
        save_engine(engine, path)
        restored = load_engine(path, PageRank())
        assert np.array_equal(restored.values, engine.values)

    def test_extra_metadata_roundtrip(self, tmp_path, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        path = save_engine(engine, str(tmp_path / "m.npz"),
                           extra={"recovery_seq": np.int64(42)})
        extra = read_checkpoint_extra(path)
        assert int(extra["recovery_seq"]) == 42
        # Extras do not leak into the engine reconstruction.
        restored = load_engine(path, PageRank())
        assert np.array_equal(restored.values, engine.values)


def _saved_path(tmp_path, graph, rng):
    engine = GraphBoltEngine(PageRank(), num_iterations=4)
    engine.run(graph)
    engine.apply_mutations(make_random_batch(engine.graph, rng, 5, 5))
    return save_engine(engine, str(tmp_path / "victim.npz"))


def _tamper(path, mutate):
    """Rewrite a checkpoint through ``mutate(payload_dict)``."""
    with np.load(path, allow_pickle=False) as data:
        payload = {key: data[key].copy() for key in data.files}
    mutate(payload)
    with open(path, "wb") as stream:
        np.savez_compressed(stream, **payload)


class TestValidationOnLoad:
    def test_bitrot_fails_checksum(self, tmp_path, graph, rng):
        path = _saved_path(tmp_path, graph, rng)

        def flip_values(payload):
            payload["values"] = payload["values"] + 1e-3

        _tamper(path, flip_values)
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_engine(path, PageRank())

    def test_out_of_range_index_rejected(self, tmp_path, graph, rng):
        path = _saved_path(tmp_path, graph, rng)

        def corrupt_targets(payload):
            payload["out_targets"] = payload["out_targets"].copy()
            payload["out_targets"][0] = int(payload["num_vertices"]) + 5
            refresh_crc(payload)

        def refresh_crc(payload):
            del payload["payload_crc32"]
            payload["payload_crc32"] = np.uint32(_payload_crc32(payload))

        _tamper(path, corrupt_targets)
        with pytest.raises(ValueError,
                           match="out_targets indexes outside"):
            load_engine(path, PageRank())

    def test_wrong_values_length_rejected(self, tmp_path, graph, rng):
        path = _saved_path(tmp_path, graph, rng)

        def shrink_values(payload):
            payload["values"] = payload["values"][:-3]
            payload["prev_values"] = payload["prev_values"][:-3]
            del payload["payload_crc32"]
            payload["payload_crc32"] = np.uint32(_payload_crc32(payload))

        _tamper(path, shrink_values)
        with pytest.raises(ValueError, match="values length"):
            load_engine(path, PageRank())

    def test_unsupported_version_rejected(self, tmp_path, graph, rng):
        path = _saved_path(tmp_path, graph, rng)

        def age(payload):
            payload["format_version"] = np.int64(1)
            del payload["payload_crc32"]
            payload["payload_crc32"] = np.uint32(_payload_crc32(payload))

        _tamper(path, age)
        with pytest.raises(ValueError, match="version"):
            load_engine(path, PageRank())

    def test_truncated_file_rejected(self, tmp_path, graph, rng):
        path = _saved_path(tmp_path, graph, rng)
        size = os.path.getsize(path)
        with open(path, "r+b") as stream:
            stream.truncate(size // 2)
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            load_engine(path, PageRank())

    def test_not_a_checkpoint_rejected(self, tmp_path, graph):
        path = str(tmp_path / "other.npz")
        np.savez(path, something=np.arange(4))
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            load_engine(path, PageRank())


class TestConfigurationRoundtrip:
    def test_non_default_pruning_policy(self, tmp_path, graph, rng):
        policy = PruningPolicy(horizon=2, vertical=True)
        engine = GraphBoltEngine(PageRank(), num_iterations=6,
                                 pruning=policy)
        engine.run(graph)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 8, 8))
        path = save_engine(engine, str(tmp_path / "pruned.npz"))
        restored = load_engine(path, PageRank(), pruning=policy)
        assert np.array_equal(restored.values, engine.values)
        # Oracle-style: the next refinement must agree bit-for-bit.
        batch = make_random_batch(engine.graph, rng, 8, 8)
        assert np.array_equal(engine.apply_mutations(batch),
                              restored.apply_mutations(batch))

    def test_until_convergence_engine(self, tmp_path, graph, rng):
        engine = GraphBoltEngine(SSSP(source=0), until_convergence=True,
                                 max_iterations=200)
        engine.run(graph)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 6, 6))
        path = save_engine(engine, str(tmp_path / "conv.npz"))
        restored = load_engine(path, SSSP(source=0), max_iterations=200)
        assert restored.until_convergence
        assert np.array_equal(restored.values, engine.values)
        batch = make_random_batch(engine.graph, rng, 6, 6)
        assert np.array_equal(engine.apply_mutations(batch),
                              restored.apply_mutations(batch))
