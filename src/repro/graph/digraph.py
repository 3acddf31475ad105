"""Immutable CSR-backed directed graph.

:class:`CSRGraph` is the single graph representation used throughout the
library.  It wraps a ``scipy.sparse.csr_matrix`` adjacency matrix whose
entry ``(i, j)`` holds the weight of the edge ``i -> j`` (1.0 for
unweighted web graphs, arbitrary positive weights for ObjectRank-style
authority-transfer graphs).

Design notes
------------
* The graph is immutable after construction; use
  :class:`repro.graph.builder.GraphBuilder` to assemble one.
* The transposed adjacency (in-links) is computed lazily and cached,
  because PageRank-style iterations multiply by ``A^T`` while subgraph
  extraction scans out-links.
* Node ids are dense integers ``0 .. num_nodes-1``.  Higher-level
  metadata (URLs, domains, topics) lives alongside the graph in dataset
  objects, never inside it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from scipy import sparse

from repro.exceptions import GraphError


class CSRGraph:
    """An immutable weighted directed graph in CSR form.

    Parameters
    ----------
    adjacency:
        Square ``scipy.sparse`` matrix; entry ``(i, j)`` is the weight of
        edge ``i -> j``.  It is converted to canonical CSR form
        (sorted indices, no duplicates, no explicit zeros).

    Raises
    ------
    GraphError
        If the matrix is not square, contains negative weights, or
        contains non-finite weights.
    """

    # __weakref__ lets repro.perf.cache key derived matrices on graph
    # identity without keeping collected graphs alive.
    __slots__ = (
        "_adj",
        "_adj_t",
        "_out_degrees",
        "_in_degrees",
        "_out_strength",
        "__weakref__",
    )

    def __init__(self, adjacency: sparse.spmatrix):
        adj = sparse.csr_matrix(adjacency, dtype=np.float64)
        if adj.shape[0] != adj.shape[1]:
            raise GraphError(
                f"adjacency matrix must be square, got shape {adj.shape}"
            )
        adj.sum_duplicates()
        adj.eliminate_zeros()
        adj.sort_indices()
        if adj.nnz:
            if not np.all(np.isfinite(adj.data)):
                raise GraphError("edge weights must be finite")
            if np.any(adj.data < 0):
                raise GraphError("edge weights must be non-negative")
        self._adj = adj
        self._adj_t: sparse.csr_matrix | None = None
        self._out_degrees: np.ndarray | None = None
        self._in_degrees: np.ndarray | None = None
        self._out_strength: np.ndarray | None = None

    @classmethod
    def from_shared(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        num_nodes: int,
    ) -> "CSRGraph":
        """Wrap *canonical* CSR arrays without copying or validating.

        The trusted zero-copy constructor used by
        :mod:`repro.parallel.shm` (worker processes attaching a
        published graph), by :func:`repro.graph.io.load_npz` in
        mmap mode and by :func:`repro.updates.delta.apply_delta` (a
        row splice of an existing graph).  The arrays must come from
        an existing :class:`CSRGraph` — sorted indices, no duplicates,
        no explicit zeros, non-negative finite float64 data — because
        none of the ``__init__`` canonicalisation runs here.  Crucially
        the arrays are *not* written to (they may live in read-only
        shared-memory segments or memory-mapped files); the adjacency
        is flagged canonical so downstream scipy code never attempts an
        in-place ``sum_duplicates``/``sort_indices`` pass.
        """
        matrix = sparse.csr_matrix(
            (data, indices, indptr),
            shape=(num_nodes, num_nodes),
            copy=False,
        )
        # The arrays are canonical by construction; recording that
        # stops scipy from ever mutating (read-only) buffers.
        matrix.has_canonical_format = True
        self = object.__new__(cls)
        self._adj = matrix
        self._adj_t = None
        self._out_degrees = None
        self._in_degrees = None
        self._out_strength = None
        return self

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes (pages) in the graph."""
        return self._adj.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of distinct directed edges."""
        return self._adj.nnz

    @property
    def adjacency(self) -> sparse.csr_matrix:
        """The CSR adjacency matrix (treat as read-only)."""
        return self._adj

    @property
    def adjacency_t(self) -> sparse.csr_matrix:
        """The transposed adjacency in CSR form (in-link view), cached."""
        if self._adj_t is None:
            self._adj_t = self._adj.T.tocsr()
        return self._adj_t

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------

    @property
    def out_degrees(self) -> np.ndarray:
        """Unweighted out-degree of every node (edge counts)."""
        if self._out_degrees is None:
            degrees = np.diff(self._adj.indptr).astype(np.int64)
            degrees.setflags(write=False)
            self._out_degrees = degrees
        return self._out_degrees

    @property
    def in_degrees(self) -> np.ndarray:
        """Unweighted in-degree of every node (edge counts)."""
        if self._in_degrees is None:
            degrees = np.diff(self.adjacency_t.indptr).astype(np.int64)
            degrees.setflags(write=False)
            self._in_degrees = degrees
        return self._in_degrees

    @property
    def out_strength(self) -> np.ndarray:
        """Weighted out-degree (sum of outgoing edge weights) per node."""
        if self._out_strength is None:
            strength = np.asarray(self._adj.sum(axis=1)).ravel()
            strength.setflags(write=False)
            self._out_strength = strength
        return self._out_strength

    @property
    def dangling_mask(self) -> np.ndarray:
        """Boolean mask of dangling nodes (no outgoing edges)."""
        return self.out_degrees == 0

    def out_degree(self, node: int) -> int:
        """Out-degree of ``node``."""
        self._check_node(node)
        return int(self.out_degrees[node])

    def in_degree(self, node: int) -> int:
        """In-degree of ``node``."""
        self._check_node(node)
        return int(self.in_degrees[node])

    # ------------------------------------------------------------------
    # Neighborhoods
    # ------------------------------------------------------------------

    def out_neighbors(self, node: int) -> np.ndarray:
        """Targets of edges leaving ``node`` (sorted, read-only view)."""
        self._check_node(node)
        start, stop = self._adj.indptr[node], self._adj.indptr[node + 1]
        return self._adj.indices[start:stop]

    def in_neighbors(self, node: int) -> np.ndarray:
        """Sources of edges entering ``node`` (sorted, read-only view)."""
        self._check_node(node)
        adj_t = self.adjacency_t
        start, stop = adj_t.indptr[node], adj_t.indptr[node + 1]
        return adj_t.indices[start:stop]

    def out_edge_weights(self, node: int) -> np.ndarray:
        """Weights of edges leaving ``node``, aligned with out_neighbors."""
        self._check_node(node)
        start, stop = self._adj.indptr[node], self._adj.indptr[node + 1]
        return self._adj.data[start:stop]

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge ``source -> target`` exists."""
        self._check_node(source)
        self._check_node(target)
        neighbors = self.out_neighbors(source)
        pos = np.searchsorted(neighbors, target)
        return pos < len(neighbors) and neighbors[pos] == target

    def edge_weight(self, source: int, target: int) -> float:
        """Weight of edge ``source -> target`` (0.0 when absent)."""
        self._check_node(source)
        self._check_node(target)
        neighbors = self.out_neighbors(source)
        pos = np.searchsorted(neighbors, target)
        if pos < len(neighbors) and neighbors[pos] == target:
            return float(self.out_edge_weights(source)[pos])
        return 0.0

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield every edge as ``(source, target, weight)``."""
        indptr = self._adj.indptr
        indices = self._adj.indices
        data = self._adj.data
        for source in range(self.num_nodes):
            for pos in range(indptr[source], indptr[source + 1]):
                yield source, int(indices[pos]), float(data[pos])

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return edges as parallel arrays ``(sources, targets, weights)``."""
        coo = self._adj.tocoo()
        return (
            coo.row.astype(np.int64),
            coo.col.astype(np.int64),
            coo.data.copy(),
        )

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------

    def is_unweighted(self) -> bool:
        """True when every edge weight is exactly 1.0."""
        if self.num_edges == 0:
            return True
        return bool(np.all(self._adj.data == 1.0))

    def has_self_loops(self) -> bool:
        """True when any node links to itself."""
        return bool(self._adj.diagonal().any())

    def reversed(self) -> "CSRGraph":
        """A new graph with every edge direction flipped."""
        return CSRGraph(self._adj.T)

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise GraphError(
                f"node {node} out of range for graph with "
                f"{self.num_nodes} nodes"
            )
