"""Round-trip tests for graph serialisation."""

import numpy as np
import pytest

from repro.graph import io
from repro.graph.generators import rmat
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

