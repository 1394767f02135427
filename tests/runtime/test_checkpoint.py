"""Tests for engine checkpoint/restore."""

import json
import os
import zlib

import numpy as np
import pytest

from repro.algorithms import LabelPropagation, PageRank, SSSP
from repro.core.engine import GraphBoltEngine
from repro.graph.generators import rmat
from repro.graph.storage import MmapStore, _HEADER_SIZE, _pack_header
from repro.ligra.engine import LigraEngine
from repro.runtime.checkpoint import (
    _pack,
    load_engine,
    open_checkpoint,
    pack_state,
    read_checkpoint_extra,
    read_store_manifest,
    save_engine,
    unpack_state,
    verify_checkpoint_blob,
)
from repro.testing.faults import flip_byte
from tests.conftest import edge_set, make_random_batch


@pytest.fixture
def graph():
    return rmat(scale=7, edge_factor=5, seed=90, weighted=True)


def checkpoint_roundtrip(tmp_path, factory, graph, rng, iterations=8,
                         **engine_kwargs):
    engine = GraphBoltEngine(factory(), num_iterations=iterations,
                             **engine_kwargs)
    engine.run(graph)
    engine.apply_mutations(make_random_batch(engine.graph, rng, 10, 10))
    path = str(tmp_path / "engine.ckpt")
    save_engine(engine, path)
    restored = load_engine(path, factory(), **engine_kwargs)
    return engine, restored


class TestRoundtrip:
    def test_values_survive(self, tmp_path, graph, rng):
        engine, restored = checkpoint_roundtrip(
            tmp_path, lambda: PageRank(), graph, rng
        )
        assert np.array_equal(engine.values, restored.values)
        assert edge_set(restored.graph) == edge_set(engine.graph)
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
        for ours, theirs in zip(restored.history.records,
                                engine.history.records):
            assert np.array_equal(ours.g_values, theirs.g_values)
            assert np.array_equal(ours.c_idx, theirs.c_idx)

    def test_inf_values_roundtrip(self, tmp_path, graph, rng):
        engine, restored = checkpoint_roundtrip(
            tmp_path, lambda: SSSP(source=0), graph, rng, iterations=40
        )
        assert np.array_equal(
            np.isinf(engine.values), np.isinf(restored.values)
        )

    @pytest.mark.parametrize("factory", [
        lambda: PageRank(), lambda: LabelPropagation(num_labels=3)])
    def test_empty_history_roundtrip(self, tmp_path, graph, rng, factory):
        engine, restored = checkpoint_roundtrip(
            tmp_path, factory, graph, rng, horizon=0)
        assert engine.history.horizon == restored.history.horizon == 0
        batch = make_random_batch(engine.graph, rng, 6, 6)
        assert np.array_equal(engine.apply_mutations(batch),
                              restored.apply_mutations(batch))

    def test_mmap_manifest_roundtrip(self, tmp_path, rng):
        """A store-backed engine checkpoints a reference, not the edge
        arrays; restore reopens the segment files and pins them."""
        store = MmapStore(str(tmp_path / "store"))
        graph = store.publish(
            rmat(scale=7, edge_factor=5, seed=90, weighted=True))
        engine, restored = checkpoint_roundtrip(
            tmp_path, lambda: PageRank(), graph, rng)
        path = str(tmp_path / "engine.ckpt")
        opened = open_checkpoint(path)
        assert opened.index["graph_mode"] == "manifest"
        assert "out_targets" not in opened.arrays
        assert (read_store_manifest(path)["snapshot"]
                == engine.graph.snapshot_id == restored.graph.snapshot_id)
        assert isinstance(restored.graph.out_targets, np.memmap)
        batch = make_random_batch(engine.graph, rng, 6, 6)
        assert np.array_equal(engine.apply_mutations(batch),
                              restored.apply_mutations(batch))

    def test_restore_copies_only_what_the_engine_mutates(
            self, tmp_path, graph, rng):
        _, restored = checkpoint_roundtrip(
            tmp_path, lambda: PageRank(), graph, rng)
        state = restored._state
        for array in (state.values, state.prev_values, state.aggregate,
                      state.frontier):
            assert array.flags.writeable and array.flags.owndata
        assert not restored.history.records[0].g_values.flags.writeable
        assert not restored.graph.out_targets.flags.writeable


class TestGuards:
    def test_algorithm_mismatch_rejected(self, tmp_path, graph, rng):
        engine = GraphBoltEngine(PageRank(), num_iterations=5)
        engine.run(graph)
        path = str(tmp_path / "engine.ckpt")
        save_engine(engine, path)
        with pytest.raises(ValueError, match="mismatch"):
            load_engine(path, LabelPropagation())

    def test_unrun_engine_rejected(self, tmp_path):
        engine = GraphBoltEngine(PageRank())
        with pytest.raises(RuntimeError):
            save_engine(engine, str(tmp_path / "x.ckpt"))


class TestAtomicWrite:
    def test_returns_real_path_when_suffix_missing(self, tmp_path, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        returned = save_engine(engine, str(tmp_path / "ckpt"))
        # The file lands under exactly the name given: no suffix is
        # appended (the npz writer used to add one).
        assert returned == str(tmp_path / "ckpt")
        assert os.listdir(tmp_path) == ["ckpt"]
        restored = load_engine(returned, PageRank())
        assert np.array_equal(restored.values, engine.values)

    def test_no_temp_droppings(self, tmp_path, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        save_engine(engine, str(tmp_path / "a.ckpt"))
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_overwrite_is_atomic_replace(self, tmp_path, graph, rng):
        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        path = str(tmp_path / "gen.ckpt")
        save_engine(engine, path)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 5, 5))
        save_engine(engine, path)
        restored = load_engine(path, PageRank())
        assert np.array_equal(restored.values, engine.values)

    def test_extra_metadata_roundtrip(self, tmp_path, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        path = save_engine(engine, str(tmp_path / "m.ckpt"),
                           extra={"recovery_seq": np.int64(42)})
        extra = read_checkpoint_extra(path)
        assert int(extra["recovery_seq"]) == 42
        # Extras do not leak into the engine reconstruction.
        restored = load_engine(path, PageRank())
        assert np.array_equal(restored.values, engine.values)

    def test_file_then_directory_are_fsynced_before_the_name_lands(
            self, tmp_path, graph, monkeypatch):
        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        path = str(tmp_path / "durable.ckpt")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(source, target):
            events.append(("replace", os.stat(source).st_ino))
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_engine(engine, path)
        file_inode = os.stat(path).st_ino
        assert events == [("fsync", file_inode), ("replace", file_inode),
                          ("fsync", os.stat(tmp_path).st_ino)]


# ----------------------------------------------------------------------
# The format, by damage class
# ----------------------------------------------------------------------
def _saved_path(tmp_path, graph, rng):
    engine = GraphBoltEngine(PageRank(), num_iterations=4)
    engine.run(graph)
    engine.apply_mutations(make_random_batch(engine.graph, rng, 5, 5))
    return save_engine(engine, str(tmp_path / "victim.ckpt"))


def _tamper(path, mutate):
    """Rewrite a checkpoint through ``mutate(index_fields, arrays)``,
    every CRC recomputed: only the structural rules can object."""
    index, arrays, _ = open_checkpoint(path)
    fields = {key: value for key, value in index.items()
              if key != "arrays"}
    arrays = {name: array.copy() for name, array in arrays.items()}
    mutate(fields, arrays)
    with open(path, "wb") as stream:
        stream.writelines(_pack(fields, arrays))


def _regions(blob):
    """``[(name, start, end)]`` of every region of a checkpoint image:
    the index header, the index, then each array's header and payload."""
    index = open_checkpoint(blob).index
    start = _HEADER_SIZE + int.from_bytes(blob[16:24], "little")
    regions = [("index", 0, _HEADER_SIZE), ("index", _HEADER_SIZE, start)]
    for meta in index["arrays"]:
        header = start + meta["offset"]
        end = header + _HEADER_SIZE + 8 * int(np.prod(meta["shape"]))
        regions += [(meta["name"], header, header + _HEADER_SIZE),
                    (meta["name"], header + _HEADER_SIZE, end)]
    assert regions[-1][2] == len(blob)
    return regions


def _reindexed(blob, mutate):
    """``blob`` with its index rewritten by ``mutate(index)`` under a
    valid index CRC, the data region untouched."""
    start = _HEADER_SIZE + int.from_bytes(blob[16:24], "little")
    index = json.loads(blob[_HEADER_SIZE:start])
    mutate(index)
    text = json.dumps(index, sort_keys=True).encode("utf-8")
    text += b" " * (-len(text) % 8)
    return (_pack_header("|u1", len(text), zlib.crc32(text)) + text
            + blob[start:])


def _rejected(tmp_path, blob, match):
    """``blob`` is refused with a message naming ``match`` -- as bytes
    before they land, and as a file by every reader."""
    with pytest.raises(ValueError, match=match):
        verify_checkpoint_blob(blob)
    path = str(tmp_path / "damaged.ckpt")
    with open(path, "wb") as stream:
        stream.write(blob)
    for reader in (open_checkpoint, read_checkpoint_extra,
                   lambda path: load_engine(path, PageRank())):
        with pytest.raises(ValueError, match=match):
            reader(path)


class TestValidationOnLoad:
    @pytest.fixture
    def blob(self, tmp_path, graph, rng):
        with open(_saved_path(tmp_path, graph, rng), "rb") as stream:
            return stream.read()

    def test_bitrot_fails_checksum(self, tmp_path, blob):
        """One flipped byte per region: the index, the index CRC, an
        array header, and the first / middle / last array payloads."""
        regions = _regions(blob)
        payloads = [region for region in regions[2:]
                    if region[2] - region[1] > _HEADER_SIZE]
        _rejected(tmp_path, flip_byte(blob, 24), "index payload CRC")
        _rejected(tmp_path, flip_byte(blob, _HEADER_SIZE + 40),
                  "index payload CRC")
        name, start, _ = regions[4]  # the second array's header
        _rejected(tmp_path, flip_byte(blob, start + 16),
                  f"array '{name}'")
        _rejected(tmp_path, flip_byte(blob, start + 40),
                  f"array '{name}' has a non-canonical header")
        for name, start, end in (payloads[0],
                                 payloads[len(payloads) // 2],
                                 payloads[-1]):
            _rejected(tmp_path, flip_byte(blob, (start + end) // 2),
                      f"array '{name}' payload CRC mismatch")

    def test_every_single_byte_flip_is_rejected(self, tmp_path, rng):
        """Every byte of the file is under a CRC or compared with one
        that is (the npz container let 2 271 of 10 293 flips through)."""
        small = rmat(scale=4, edge_factor=3, seed=3, weighted=True)
        with open(_saved_path(tmp_path, small, rng), "rb") as stream:
            blob = stream.read()
        verify_checkpoint_blob(blob)
        for position in range(len(blob)):
            with pytest.raises(ValueError, match="corrupt checkpoint"):
                verify_checkpoint_blob(flip_byte(blob, position))

    def test_truncated_file_rejected(self, tmp_path, blob):
        """A cut at every region boundary, and one inside a payload."""
        cuts = {0, len(blob) // 2} | {end for _, _, end in _regions(blob)}
        for cut in sorted(cuts - {len(blob)}):
            _rejected(tmp_path, blob[:cut], "corrupt checkpoint")
        _rejected(tmp_path, blob[:len(blob) - 8],
                  "array 'in_weights': size")

    def test_length_extended_file_rejected(self, tmp_path, blob):
        _rejected(tmp_path, blob + b"\0" * 8,
                  "8 bytes follow the last array")

    def test_length_prefix_past_eof_is_a_size_mismatch(self, tmp_path,
                                                       blob):
        """A count that promises an exabyte is a ``ValueError``, never an
        allocation."""
        huge = (1 << 60).to_bytes(8, "little")
        _rejected(tmp_path, blob[:16] + huge + blob[24:], "index: size")

    def test_not_a_checkpoint_rejected(self, tmp_path, graph):
        """Valid segments that are not a checkpoint: raw bytes that are
        not an index, and a store generation's array file."""
        text = b'{"format": "something else"}   '
        _rejected(tmp_path,
                  _pack_header("|u1", len(text), zlib.crc32(text)) + text,
                  "does not start with a checkpoint index")
        store = MmapStore(str(tmp_path / "store"))
        published = store.publish(graph)
        segment = tmp_path / "store" / store.segment_files(
            published.snapshot_id)[1]
        _rejected(tmp_path, segment.read_bytes(), "corrupt checkpoint")

    def test_npz_checkpoint_is_unsupported(self, tmp_path):
        path = str(tmp_path / "old.npz")
        np.savez(path, format_version=np.int64(3), values=np.arange(4.0))
        with open(path, "rb") as stream:
            _rejected(tmp_path, stream.read(),
                      "unsupported checkpoint format")

    def test_offsets_that_overlap_or_leave_the_file_rejected(
            self, tmp_path, blob):
        def overlap(index):
            index["arrays"][2]["offset"] = index["arrays"][1]["offset"]

        def past_eof(index):
            index["arrays"][-1]["offset"] += len(blob)

        def bad_shape(index):
            index["arrays"][0]["shape"] = [-1]

        def grown(index):
            index["arrays"][-1]["shape"][0] += 1

        for mutate in (overlap, past_eof, bad_shape):
            _rejected(tmp_path, _reindexed(blob, mutate),
                      "overlaps its neighbour or leaves the file")
        _rejected(tmp_path, _reindexed(blob, grown),
                  "array 'in_weights' header disagrees with the index")

    def test_index_disagreeing_with_a_header_rejected(self, tmp_path, blob):
        def wrong_crc(index):
            index["arrays"][0]["crc32"] ^= 1

        _rejected(tmp_path, _reindexed(blob, wrong_crc),
                  "array 'values' header disagrees with the index")

    def test_out_of_range_index_rejected(self, tmp_path, graph, rng):
        for name in ("out_targets", "frontier", "hist_c_idx"):
            path = _saved_path(tmp_path, graph, rng)

            def corrupt(fields, arrays):
                arrays[name][0] = fields["num_vertices"] + 5

            _tamper(path, corrupt)
            with pytest.raises(ValueError,
                               match=f"{name} indexes outside"):
                load_engine(path, PageRank())

    def test_wrong_values_length_rejected(self, tmp_path, graph, rng):
        path = _saved_path(tmp_path, graph, rng)

        def shrink_values(fields, arrays):
            arrays["values"] = arrays["values"][:-3]
            arrays["prev_values"] = arrays["prev_values"][:-3]

        _tamper(path, shrink_values)
        with pytest.raises(ValueError, match="values length"):
            load_engine(path, PageRank())

    def test_history_rows_must_match_their_offsets(self, tmp_path, graph,
                                                   rng):
        path = _saved_path(tmp_path, graph, rng)

        def drop_a_row(fields, arrays):
            arrays["hist_g_values"] = arrays["hist_g_values"][:-1]

        _tamper(path, drop_a_row)
        with pytest.raises(ValueError, match="history g rows"):
            load_engine(path, PageRank())

    def test_manifest_reference_fields_checked(self, tmp_path, rng):
        store = MmapStore(str(tmp_path / "store"))
        graph = store.publish(
            rmat(scale=5, edge_factor=4, seed=9, weighted=True))
        path = _saved_path(tmp_path, graph, rng)

        def forget_snapshot(fields, arrays):
            del fields["store_manifest"]["snapshot"]

        _tamper(path, forget_snapshot)
        for reader in (read_store_manifest, open_checkpoint):
            with pytest.raises(ValueError,
                               match="store manifest is missing"):
                reader(path)

    def test_unsupported_version_rejected(self, tmp_path, graph, rng):
        path = _saved_path(tmp_path, graph, rng)

        def age(fields, arrays):
            fields["version"] = 3

        _tamper(path, age)
        with pytest.raises(ValueError, match="unsupported checkpoint "
                                             "version"):
            load_engine(path, PageRank())


class TestConfigurationRoundtrip:
    def test_non_default_pruning_policy(self, tmp_path, graph, rng):
        # The horizon steers only the initial run; the restored engine
        # is handed none and refines over the stored window.
        engine = GraphBoltEngine(PageRank(), num_iterations=6, horizon=2)
        engine.run(graph)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 8, 8))
        path = save_engine(engine, str(tmp_path / "pruned.ckpt"))
        restored = load_engine(path, PageRank())
        assert restored.horizon is None
        assert restored.history.horizon == engine.history.horizon == 2
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
        path = save_engine(engine, str(tmp_path / "conv.ckpt"))
        restored = load_engine(path, SSSP(source=0), max_iterations=200)
        assert restored.until_convergence
        assert np.array_equal(restored.values, engine.values)
        batch = make_random_batch(engine.graph, rng, 6, 6)
        assert np.array_equal(engine.apply_mutations(batch),
                              restored.apply_mutations(batch))


class TestStateBlob:
    """The state a replication writer ships: the checkpoint framing over
    the four state arrays, read back through the same member reader."""

    def refined_state(self, graph, rng, factory=PageRank):
        engine = GraphBoltEngine(factory(), num_iterations=6)
        engine.run(graph)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 8, 8))
        return engine._state

    @pytest.mark.parametrize("factory", [
        PageRank, lambda: LabelPropagation(num_labels=3)],
        ids=["scalar", "vector"])
    def test_roundtrip_is_exact_and_read_only(self, graph, rng, factory):
        state = self.refined_state(graph, rng, factory)
        unpacked = unpack_state(pack_state(state))
        assert unpacked.iteration == state.iteration
        for name in ("values", "prev_values", "aggregate", "frontier"):
            array = getattr(unpacked, name)
            assert np.array_equal(array, getattr(state, name)), name
            assert not array.flags.writeable, name

    def test_every_single_byte_flip_is_rejected(self, graph, rng):
        blob = pack_state(self.refined_state(graph, rng))
        for offset in rng.choice(len(blob), size=64, replace=False):
            with pytest.raises(ValueError):
                unpack_state(flip_byte(blob, int(offset)))

    def test_a_checkpoint_is_not_a_state(self, tmp_path, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=3)
        engine.run(graph)
        path = save_engine(engine, str(tmp_path / "e.ckpt"))
        with open(path, "rb") as stream:
            with pytest.raises(ValueError, match="not start with a state"):
                unpack_state(stream.read())
