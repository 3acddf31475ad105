"""Graph traversals used by subgraph extractors and generators.

All traversals operate on out-links and are deterministic: neighbors are
visited in ascending node-id order (CSR indices are sorted), so a BFS
from the same seed always yields the same subgraph — a property the
experiment harness relies on for reproducibility.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import GraphError
from repro.graph.digraph import CSRGraph


def _as_seed_array(graph: CSRGraph, seeds: int | Iterable[int]) -> np.ndarray:
    if isinstance(seeds, (int, np.integer)):
        seeds = [int(seeds)]
    seed_array = np.asarray(sorted(set(int(s) for s in seeds)), dtype=np.int64)
    if seed_array.size == 0:
        raise GraphError("at least one seed node is required")
    if seed_array.min() < 0 or seed_array.max() >= graph.num_nodes:
        raise GraphError("a seed node id is out of range")
    return seed_array


def bfs_order(
    graph: CSRGraph,
    seeds: int | Iterable[int],
    max_nodes: int | None = None,
) -> np.ndarray:
    """Breadth-first visit order following out-links.

    Parameters
    ----------
    graph:
        The graph to traverse.
    seeds:
        One node id or an iterable of ids; seeds are visited first in
        ascending order.
    max_nodes:
        Stop after visiting this many nodes (the BFS-crawler budget).

    Returns
    -------
    numpy.ndarray
        Node ids in visit order.  Length is at most ``max_nodes``.
    """
    seed_array = _as_seed_array(graph, seeds)
    if max_nodes is not None and max_nodes <= 0:
        raise GraphError(f"max_nodes must be positive, got {max_nodes}")
    budget = graph.num_nodes if max_nodes is None else min(
        max_nodes, graph.num_nodes
    )
    visited = np.zeros(graph.num_nodes, dtype=bool)
    order: list[int] = []
    queue: deque[int] = deque()
    for seed in seed_array:
        if not visited[seed]:
            visited[seed] = True
            queue.append(int(seed))
    while queue and len(order) < budget:
        node = queue.popleft()
        order.append(node)
        for neighbor in graph.out_neighbors(node):
            if not visited[neighbor]:
                visited[neighbor] = True
                queue.append(int(neighbor))
    return np.asarray(order, dtype=np.int64)


def _bfs_levels(
    graph: CSRGraph,
    seeds: int | Iterable[int],
    max_depth: int | None = None,
) -> list[np.ndarray]:
    """Level-synchronous BFS: the sorted node ids at each depth.

    ``levels[d]`` holds every node whose shortest out-link distance
    from the seed set is exactly ``d`` (``levels[0]`` is the seeds).
    The search stops after ``max_depth`` levels (``None``: when the
    frontier empties), so its cost is the edges leaving the first
    ``max_depth`` levels, never the whole reachable graph.  Each level
    gathers the frontier's CSR rows in one vectorised step, masks
    already-seen nodes and takes ``np.unique``.
    """
    seed_array = _as_seed_array(graph, seeds)
    adj = graph.adjacency
    indptr, indices = adj.indptr, adj.indices
    seen = np.zeros(graph.num_nodes, dtype=bool)
    seen[seed_array] = True
    levels = [seed_array]
    frontier = seed_array
    while max_depth is None or len(levels) <= max_depth:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        offsets = np.cumsum(counts) - counts
        neighbors = indices[
            np.repeat(starts - offsets, counts)
            + np.arange(int(counts.sum()))
        ]
        frontier = np.unique(neighbors[~seen[neighbors]]).astype(np.int64)
        if frontier.size == 0:
            break
        seen[frontier] = True
        levels.append(frontier)
    return levels


def bfs_tree_depths(
    graph: CSRGraph, seeds: int | Iterable[int]
) -> np.ndarray:
    """Depth of every node in a BFS from ``seeds`` (-1 when unreachable)."""
    depths = np.full(graph.num_nodes, -1, dtype=np.int64)
    for depth, level in enumerate(_bfs_levels(graph, seeds)):
        depths[level] = depth
    return depths


def bfs_within_depth(
    graph: CSRGraph,
    seeds: int | Iterable[int],
    max_depth: int,
) -> np.ndarray:
    """All nodes within ``max_depth`` out-link hops of the seed set.

    This is the crawl rule the paper uses to form TS subgraphs
    ("crawling to all pages within three links" of a dmoz category).

    Returns a sorted array that always includes the seeds
    (``max_depth`` 0 returns exactly the seeds).  The search stops at
    the hop bound, so it touches only the edges leaving the first
    ``max_depth`` levels.
    """
    if max_depth < 0:
        raise GraphError(f"max_depth must be >= 0, got {max_depth}")
    return np.sort(np.concatenate(_bfs_levels(graph, seeds, max_depth)))


def reachable_set(graph: CSRGraph, seeds: int | Iterable[int]) -> np.ndarray:
    """All nodes reachable from ``seeds`` by out-links (sorted ids)."""
    return np.sort(np.concatenate(_bfs_levels(graph, seeds)))


def weakly_connected_components(graph: CSRGraph) -> list[np.ndarray]:
    """Weakly connected components, largest first.

    Edges are treated as undirected.  Used by generators to check that a
    synthetic crawl is one connected web fragment, and by tests.
    """
    n = graph.num_nodes
    component = np.full(n, -1, dtype=np.int64)
    components: list[list[int]] = []
    adj_t = graph.adjacency_t
    for start in range(n):
        if component[start] != -1:
            continue
        label = len(components)
        members: list[int] = []
        queue: deque[int] = deque([start])
        component[start] = label
        while queue:
            node = queue.popleft()
            members.append(node)
            for neighbor in graph.out_neighbors(node):
                if component[neighbor] == -1:
                    component[neighbor] = label
                    queue.append(int(neighbor))
            start_t, stop_t = adj_t.indptr[node], adj_t.indptr[node + 1]
            for neighbor in adj_t.indices[start_t:stop_t]:
                if component[neighbor] == -1:
                    component[neighbor] = label
                    queue.append(int(neighbor))
        components.append(members)
    arrays = [np.asarray(sorted(c), dtype=np.int64) for c in components]
    arrays.sort(key=len, reverse=True)
    return arrays


def out_neighbors_of_set(
    graph: CSRGraph, nodes: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Union of out-neighbors over a node set (sorted unique ids).

    Vectorised over the CSR structure; this is the frontier-crawl
    primitive the SC baseline calls on every expansion.
    """
    node_array = np.asarray(nodes, dtype=np.int64)
    if node_array.size == 0:
        return np.empty(0, dtype=np.int64)
    adj = graph.adjacency
    starts = adj.indptr[node_array]
    stops = adj.indptr[node_array + 1]
    total = int((stops - starts).sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    chunks = [
        adj.indices[start:stop] for start, stop in zip(starts, stops)
    ]
    return np.unique(np.concatenate(chunks))
