"""Unit tests for dependency trees and segmented argmin."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.kickstarter.trees import (
    NO_PARENT,
    DependencyTree,
    segmented_argmin,
)
from tests.conftest import tree_depths


class TestSegmentedArgmin:
    def test_basic(self):
        values = np.array([3.0, 1.0, 2.0, 0.5])
        segments = np.array([0, 0, 1, 1])
        segs, idx = segmented_argmin(values, segments)
        assert segs.tolist() == [0, 1]
        assert idx.tolist() == [1, 3]

    def test_ties_break_by_position(self):
        values = np.array([1.0, 1.0])
        segments = np.array([5, 5])
        _, idx = segmented_argmin(values, segments)
        assert idx.tolist() == [0]

    def test_empty(self):
        segs, idx = segmented_argmin(np.array([]), np.array([]))
        assert segs.size == 0 and idx.size == 0

    def test_single_element_segments(self):
        values = np.array([4.0, 2.0, 9.0])
        segments = np.array([1, 3, 7])
        segs, idx = segmented_argmin(values, segments)
        assert segs.tolist() == [1, 3, 7]
        assert idx.tolist() == [0, 1, 2]


class TestDependencyTree:
    def make_tree(self):
        # 0 -> 1 -> 2, 0 -> 3; parents encode that chain.
        graph = CSRGraph.from_edges(
            [(0, 1), (1, 2), (0, 3), (3, 2)], num_vertices=4
        )
        tree = DependencyTree(4)
        tree.values[:] = [0.0, 1.0, 2.0, 1.0]
        tree.parents[:] = [NO_PARENT, 0, 1, 0]
        return graph, tree

    def test_children_of(self):
        graph, tree = self.make_tree()
        assert tree.children_of(graph, np.array([0])).tolist() == [1, 3]
        assert tree.children_of(graph, np.array([1])).tolist() == [2]
        assert tree.children_of(graph, np.array([3])).tolist() == []

    def test_children_requires_edge_and_parent(self):
        graph, tree = self.make_tree()
        # 3 -> 2 edge exists but 2's parent is 1, so 2 is not 3's child.
        assert 2 not in tree.children_of(graph, np.array([3])).tolist()

    def test_subtree_of(self):
        graph, tree = self.make_tree()
        assert tree.subtree_of(graph, np.array([1])).tolist() == [1, 2]
        assert tree.subtree_of(graph, np.array([0])).tolist() == [0, 1, 2, 3]

    def test_subtree_of_leaf(self):
        graph, tree = self.make_tree()
        assert tree.subtree_of(graph, np.array([2])).tolist() == [2]

    def test_depths(self):
        _, tree = self.make_tree()
        assert tree_depths(tree).tolist() == [0, 1, 2, 1]

    def test_depths_detect_cycle(self):
        tree = DependencyTree(2)
        tree.values[:] = [1.0, 1.0]
        tree.parents[:] = [1, 0]
        with pytest.raises(RuntimeError, match="cycle"):
            tree_depths(tree)

    def test_grow_to(self):
        _, tree = self.make_tree()
        tree.grow_to(6)
        assert tree.num_vertices == 6
        assert np.isinf(tree.values[4:]).all()
        assert np.all(tree.parents[4:] == NO_PARENT)
        tree.grow_to(3)  # shrinking is a no-op
        assert tree.num_vertices == 6
