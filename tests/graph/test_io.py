"""Round-trip tests for graph serialisation."""

import numpy as np
import pytest

from repro.graph import io
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch, coalesce_batches
from repro.graph.storage import ARRAY_NAMES
from tests.conftest import edge_set, edge_weights


@pytest.fixture
def graph():
    return rmat(scale=6, edge_factor=4, seed=2, weighted=True)


class TestEdgeListText:
    def test_roundtrip_weighted(self, graph, tmp_path):
        path = str(tmp_path / "graph.txt")
        io.save_edge_list(graph, path)
        loaded = io.load_edge_list(path)
        assert edge_set(loaded) == edge_set(graph)
        assert np.allclose(
            sorted(loaded.out_weights), sorted(graph.out_weights)
        )

    def test_roundtrip_unweighted(self, graph, tmp_path):
        path = str(tmp_path / "graph.txt")
        io.save_edge_list(graph, path, write_weights=False)
        loaded = io.load_edge_list(path)
        assert edge_set(loaded) == edge_set(graph)
        assert np.all(loaded.out_weights == 1.0)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n\n% another\n0 1\n1 2 2.5\n")
        loaded = io.load_edge_list(str(path))
        assert edge_weights(loaded) == {(0, 1): 1.0, (1, 2): 2.5}

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("42\n")
        with pytest.raises(ValueError, match="malformed"):
            io.load_edge_list(str(path))

    def test_explicit_vertex_count(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n")
        loaded = io.load_edge_list(str(path), num_vertices=10)
        assert loaded.num_vertices == 10


class TestNpz:
    def test_roundtrip(self, graph, tmp_path):
        path = str(tmp_path / "graph.npz")
        io.save_npz(graph, path)
        loaded = io.load_npz(path)
        assert loaded.num_vertices == graph.num_vertices
        assert edge_set(loaded) == edge_set(graph)


class TestRepeatedPairs:
    """A file with a repeated ``(src, dst)`` pair loads as a simple
    graph, keeping the first: coalescing batches is exact only there."""

    @pytest.fixture(params=["text", "npz"])
    def loaded(self, request, tmp_path):
        if request.param == "text":
            path = tmp_path / "graph.txt"
            path.write_text("0 1 1.0\n0 1 2.0\n1 2\n")
            return io.load_edge_list(str(path))
        path = str(tmp_path / "graph.npz")
        io.save_npz(CSRGraph(3, [0, 0, 1], [1, 1, 2], [1.0, 2.0, 1.0]),
                    path)
        return io.load_npz(path)

    def test_the_first_of_each_pair_is_kept(self, loaded):
        assert loaded.num_edges == 2
        assert edge_weights(loaded) == {(0, 1): 1.0, (1, 2): 1.0}

    def test_coalescing_equals_the_sequence(self, loaded):
        batches = [MutationBatch.from_edges(deletions=[(0, 1)]),
                   MutationBatch.from_edges(additions=[(0, 1)],
                                            add_weights=[5.0])]
        sequential, coalesced = StreamingGraph(loaded), StreamingGraph(loaded)
        for batch in batches:
            sequential.apply_batch(batch)
        coalesced.apply_batch(coalesce_batches(batches))
        for name in ARRAY_NAMES:
            assert np.array_equal(getattr(coalesced.graph, name),
                                  getattr(sequential.graph, name)), name
        assert edge_weights(sequential.graph) == {(0, 1): 5.0,
                                                  (1, 2): 1.0}

