"""Cache-aware CSR node relabeling (degree ordering).

Sparse power iteration is memory-bound on two streams: the CSR arrays
of ``A^T`` (read sequentially — already optimal) and the iterate ``x``
(read through ``indices`` — a random gather).  With web-like degree
distributions most gathered entries belong to a small set of
high-in-degree hub pages; if those hubs are scattered across the id
space every row's gather touches cold cache lines.

Relabeling nodes in descending in-degree order packs the hot entries
of ``x`` into the first few cache lines, so the gather's working set
for the common case collapses from ``8n`` bytes to a few KiB.  The
permutation is a pure *layout* change: ``P A^T P^T`` describes the
same graph, and solving in the relabeled domain then scattering the
result back through the inverse permutation yields the same scores up
to floating-point summation order (each row's partial sums accumulate
in a different column order).

The float32 score mode applies this inside
:func:`repro.pagerank.precision.prepare`; callers never see relabeled
ids — every public result is restored to original node order (see
``tests/pagerank/test_backends.py`` for the pinned round-trip).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

__all__ = [
    "degree_order_permutation",
    "inverse_permutation",
    "permute_csr",
    "permute_vector",
    "restore_vector",
]


def degree_order_permutation(matrix: sparse.csr_matrix) -> np.ndarray:
    """Permutation packing heavy rows of ``matrix`` first.

    For ``A^T`` a row's nnz is the node's in-degree, so sorting rows by
    descending nnz clusters hub pages at the low ids.  The sort is
    stable (ties keep original order), making the permutation a pure
    function of the matrix structure — deterministic across runs.

    Returns ``perm`` with ``perm[new_id] = old_id``.
    """
    row_nnz = np.diff(matrix.indptr)
    # np.argsort is stable for kind="stable"; sort on negated counts so
    # heavy rows come first while ties stay in ascending old-id order.
    return np.argsort(-row_nnz, kind="stable").astype(np.int64)


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """``inv`` such that ``inv[old_id] = new_id``."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=perm.dtype)
    return inv


def permute_csr(
    matrix: sparse.csr_matrix, perm: np.ndarray
) -> sparse.csr_matrix:
    """Symmetric permutation ``P M P^T`` of a square CSR matrix.

    Row ``new_i`` of the result is row ``perm[new_i]`` of ``matrix``
    with its column ids mapped through the inverse permutation (so an
    edge keeps connecting the same two nodes under their new names).
    Indices are sorted per row, giving canonical CSR.
    """
    size = matrix.shape[0]
    if matrix.shape != (size, size):
        raise ValueError(
            f"symmetric permutation needs a square matrix, "
            f"got {matrix.shape}"
        )
    if perm.shape != (size,):
        raise ValueError(
            f"permutation must have shape ({size},), got {perm.shape}"
        )
    inv = inverse_permutation(perm)
    # Relabel both coordinate streams in O(nnz) vectorised passes and
    # let the COO→CSR conversion (C code) re-sort into canonical form.
    old_rows = np.repeat(
        np.arange(size, dtype=np.int64), np.diff(matrix.indptr)
    )
    permuted = sparse.coo_matrix(
        (matrix.data, (inv[old_rows], inv[matrix.indices])),
        shape=matrix.shape,
    ).tocsr()
    permuted.sort_indices()
    return permuted


def permute_vector(vector: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Map a node-indexed vector into the relabeled domain."""
    return vector[perm]


def restore_vector(vector: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Map a relabeled-domain vector back to original node order."""
    restored = np.empty_like(vector)
    restored[perm] = vector
    return restored
