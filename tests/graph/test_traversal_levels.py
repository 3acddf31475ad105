"""Differential pin: the level-synchronous BFS against a ``deque`` BFS.

``bfs_tree_depths``, ``bfs_within_depth`` and ``reachable_set`` all run
through one frontier-vectorised search that stops at its depth bound.
``deque_depths`` below is the node-at-a-time queue BFS they used to
share, kept as the reference: shortest out-link distances do not depend
on visit order, so every result must be identical.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.graph.builder import graph_from_edges
from repro.graph.traversal import (
    bfs_tree_depths,
    bfs_within_depth,
    reachable_set,
)

pytestmark = pytest.mark.updates


def deque_depths(graph, seeds) -> np.ndarray:
    depths = np.full(graph.num_nodes, -1, dtype=np.int64)
    queue = deque()
    for seed in sorted(set(seeds)):
        depths[seed] = 0
        queue.append(seed)
    while queue:
        node = queue.popleft()
        for neighbor in graph.out_neighbors(node):
            if depths[neighbor] == -1:
                depths[neighbor] = depths[node] + 1
                queue.append(int(neighbor))
    return depths


def assert_matches_reference(graph, seeds, max_depth):
    expected = deque_depths(graph, seeds)
    depths = bfs_tree_depths(graph, seeds)
    assert depths.dtype == np.int64
    np.testing.assert_array_equal(depths, expected)

    within = bfs_within_depth(graph, seeds, max_depth)
    assert within.dtype == np.int64
    np.testing.assert_array_equal(
        within,
        np.flatnonzero((expected >= 0) & (expected <= max_depth)),
    )

    reachable = reachable_set(graph, seeds)
    assert reachable.dtype == np.int64
    np.testing.assert_array_equal(reachable, np.flatnonzero(expected >= 0))


@st.composite
def graph_seeds_depth(draw):
    num_nodes = draw(st.integers(1, 30))
    edges = draw(st.lists(
        st.tuples(
            st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
        ).filter(lambda edge: edge[0] != edge[1]),
        max_size=3 * num_nodes,
        unique=True,
    ))
    seeds = draw(st.lists(
        st.integers(0, num_nodes - 1), min_size=1, max_size=5
    ))
    max_depth = draw(st.integers(0, 6))
    return graph_from_edges(num_nodes, edges), seeds, max_depth


class TestLevelBfsMatchesDeque:
    @given(graph_seeds_depth())
    @hsettings(max_examples=300, deadline=None)
    def test_random_graphs(self, case):
        assert_matches_reference(*case)

    @pytest.fixture
    def graph(self):
        # 0 -> 1 -> 2 -> 3 -> 4 chain, a shortcut 0 -> 3, a cycle
        # 5 <-> 6 reached from 4, and nodes 7, 8 unreachable from 0.
        return graph_from_edges(9, [
            (0, 1), (1, 2), (2, 3), (3, 4), (0, 3),
            (4, 5), (5, 6), (6, 5), (7, 8),
        ])

    @pytest.mark.parametrize("max_depth", [0, 1, 2, 3, 10])
    def test_chain_with_shortcut(self, graph, max_depth):
        assert_matches_reference(graph, [0], max_depth)

    def test_depths_zero_and_one(self, graph):
        assert bfs_within_depth(graph, [0], 0).tolist() == [0]
        assert bfs_within_depth(graph, [0], 1).tolist() == [0, 1, 3]

    def test_unreachable_nodes_stay_out(self, graph):
        depths = bfs_tree_depths(graph, [0])
        assert depths[7] == -1 and depths[8] == -1
        assert 7 not in reachable_set(graph, [0])

    def test_multi_seed_set(self, graph):
        assert_matches_reference(graph, [7, 2, 2, 5], 1)
        assert bfs_within_depth(graph, [7, 2], 1).tolist() == [2, 3, 7, 8]

    def test_dangling_seed(self, graph):
        assert_matches_reference(graph, [8], 3)
