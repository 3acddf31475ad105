"""Solver precision: float64 by default, float32 on request.

Every power-iteration variant runs the scipy ``_sparsetools`` kernels
of :mod:`repro.pagerank.kernels`.  Those kernels dispatch on the array
dtypes, so the one choice left to make is the precision of the sweep:

* **float64** (the default) — the matrix passes through untouched and
  results are bit-identical to the historical solver.
* **float32 score mode** — the big arrays (matrix values, iterates,
  scratch) are float32, half the memory traffic of the
  bandwidth-bound sweep, and the matrix is relabeled in descending
  in-degree order so the gathered hub entries of the iterate share
  cache lines (:mod:`repro.graph.relabel`).  Public results are still
  returned as float64 in original node order.

Reduced precision raises the convergence floor: the L1 residual of a
float32 iterate carries roundoff of roughly ``sqrt(n)·eps32``, so the
effective tolerance is clamped to :func:`tolerance_floor` and the score
error against a float64 solve is bounded through the damped-contraction
argument (DESIGN.md §11):

    ‖x32 − x64‖₁ ≤ (tol32_eff + tol64) / (1 − damping)

:func:`float32_l1_bound` is that bound; the float32 leg of the kernel
benchmark and the tier-1 agreement tests enforce it.

The process default comes from ``REPRO_DTYPE`` (``float64`` |
``float32``) or :func:`set_default_dtype` (the CLI's ``--float32``);
every solver entry point also takes an explicit ``dtype=``.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import sparse

from repro.graph.relabel import (
    degree_order_permutation,
    inverse_permutation,
    permute_csr,
)
from repro.obs.metrics import REGISTRY

__all__ = [
    "PreparedSystem",
    "default_dtype",
    "drift_tolerance",
    "effective_tolerance",
    "float32_l1_bound",
    "prepare",
    "resolve_dtype",
    "set_default_dtype",
    "tolerance_floor",
]

FLOAT64 = np.dtype(np.float64)
FLOAT32 = np.dtype(np.float32)


def float32_l1_bound(
    size: int, tolerance: float, damping: float
) -> float:
    """Documented L1 error bound of a float32 solve vs float64.

    Both iterates sit within their residual of the same fixed point;
    the damped update is a ``damping``-contraction in L1, so each is
    within ``residual / (1 − damping)`` of it (DESIGN.md §11).  The
    float32 residual cannot fall below its roundoff floor, hence the
    clamp.
    """
    tol32 = max(tolerance, tolerance_floor(size, FLOAT32))
    return (tol32 + tolerance) / (1.0 - damping)


def tolerance_floor(size: int, dtype: Any) -> float:
    """Lowest meaningful L1 convergence tolerance at this precision.

    Each component of a float32 residual carries roundoff of a few
    ulps of the component magnitude (~1/size for a probability
    vector); signed errors accumulate like a random walk, giving a
    floor of roughly ``sqrt(size)·eps32``.  The factor 8 is measured
    headroom (the float32 leg of BENCH_solver.json) so healthy solves
    declare convergence instead of stalling at the cap.  float64 has
    no floor.
    """
    if np.dtype(dtype) != FLOAT32:
        return 0.0
    eps = float(np.finfo(np.float32).eps)
    return 8.0 * float(np.sqrt(max(size, 1))) * eps


def effective_tolerance(tolerance: float, size: int, dtype: Any) -> float:
    """Requested tolerance clamped to the precision floor."""
    return max(float(tolerance), tolerance_floor(size, dtype))


def drift_tolerance(dtype: Any) -> float:
    """Column-sum drift that triggers renormalisation (batched)."""
    return 1e-12 if np.dtype(dtype) == FLOAT64 else 1e-5


# ----------------------------------------------------------------------
# Process default
# ----------------------------------------------------------------------

_default: np.dtype | None = None  # None → read REPRO_DTYPE
_published: str | None = None


def _parse(value: Any, source: str) -> np.dtype:
    try:
        dtype = np.dtype(value)
    except TypeError:
        dtype = None
    if dtype not in (FLOAT64, FLOAT32):
        raise ValueError(
            f"{source} must be float32/float64, got {value!r}"
        )
    return dtype


def resolve_dtype(dtype: Any = None) -> np.dtype:
    """``None`` → the process default; otherwise a validated dtype."""
    if dtype is None:
        return default_dtype()
    return _parse(dtype, "solver dtype")


def default_dtype() -> np.dtype:
    """The process-default solver dtype (``REPRO_DTYPE``, lazily read)."""
    global _default
    dtype = _default
    if dtype is None:
        dtype = _parse(
            os.environ.get("REPRO_DTYPE", "float64"), "REPRO_DTYPE"
        )
        _default = dtype
        _publish(dtype)
    return dtype


def set_default_dtype(dtype: Any) -> None:
    """Set the process-default solver dtype.

    ``None`` resets to ``REPRO_DTYPE`` (default float64) on next use.
    """
    global _default
    if dtype is None:
        _default = None
        return
    _default = _parse(dtype, "solver dtype")
    _publish(_default)


def _publish(dtype: np.dtype) -> None:
    """Publish the default dtype as an info gauge (value 1).

    Exactly one label set carries value 1: switching dtypes zeroes the
    previous one, so the obs-report reads "the" dtype off the gauge.
    """
    global _published
    help_text = (
        "Process-default solver dtype (info gauge: value 1 on the "
        "active label set)"
    )
    if _published is not None and _published != dtype.name:
        REGISTRY.gauge(
            "repro_solver_dtype_info", help_text, dtype=_published
        ).set(0.0)
    REGISTRY.gauge(
        "repro_solver_dtype_info", help_text, dtype=dtype.name
    ).set(1.0)
    _published = dtype.name


# ----------------------------------------------------------------------
# Matrix preparation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedSystem:
    """A transition matrix made ready for the kernels at one dtype.

    ``matrix`` is ``A^T`` in the kernel dtype and, for float32, in the
    degree-ordered domain.  At float64 the original matrix object
    passes through untouched; the float32 cast shares nothing it does
    not have to (values are cast, index arrays are shared when no
    relabel happened).

    ``perm`` (``perm[new_id] = old_id``) is ``None`` when the layout is
    unchanged; callers map node-indexed vectors through
    :meth:`to_kernel` / :meth:`from_kernel` and never see relabeled
    ids.
    """

    matrix: sparse.csr_matrix
    perm: np.ndarray | None = None
    inv: np.ndarray | None = None

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    @property
    def identity(self) -> bool:
        """True when no cast and no relabel happened (zero-copy)."""
        return self.perm is None and self.dtype == FLOAT64

    def to_kernel(self, vector: np.ndarray) -> np.ndarray:
        """Cast + permute a float64 node vector into kernel domain."""
        if self.perm is not None:
            vector = vector[self.perm]
        if vector.dtype != self.dtype:
            vector = vector.astype(self.dtype)
        return vector

    def from_kernel(self, vector: np.ndarray) -> np.ndarray:
        """Restore a kernel vector or ``(n, K)`` block to float64 and
        original row order."""
        if vector.dtype != FLOAT64:
            vector = vector.astype(np.float64)
        if self.perm is not None:
            restored = np.empty_like(vector)
            restored[self.perm] = vector
            vector = restored
        return vector

    def to_kernel_block(self, block: np.ndarray) -> np.ndarray:
        """Row-permute + cast an ``(n, K)`` block into kernel domain."""
        if self.perm is not None:
            block = block[self.perm]
        return np.ascontiguousarray(block, dtype=self.dtype)

    def map_indices(self, indices: np.ndarray) -> np.ndarray:
        """Relabel node indices (e.g. dangling ids) into kernel domain.

        Returned sorted so gathers walk the hot end of the iterate in
        ascending order.
        """
        if self.inv is None or not indices.size:
            return indices
        return np.sort(self.inv[indices])


_prepared: dict[tuple[int, str], tuple[Any, PreparedSystem]] = {}
_prepared_lock = threading.Lock()


def prepare(
    transition_t: sparse.csr_matrix, dtype: Any = None
) -> PreparedSystem:
    """Cast (and, for float32, degree-relabel) ``A^T``, memoised.

    ``dtype`` ``None`` means the process default.  Keyed on matrix
    identity (transition matrices derive from immutable graphs and are
    never mutated); entries hold a weak reference to the source matrix
    and die with it.  A float64 matrix at float64 passes through
    without a cache entry.
    """
    dtype = resolve_dtype(dtype)
    if dtype == FLOAT64 and transition_t.dtype == FLOAT64:
        return PreparedSystem(matrix=transition_t)
    key = (id(transition_t), dtype.name)
    with _prepared_lock:
        hit = _prepared.get(key)
        if hit is not None and hit[0]() is transition_t:
            return hit[1]
    prepared = _build(transition_t, dtype)
    ref = weakref.ref(
        transition_t, lambda _ref, _key=key: _prepared.pop(_key, None)
    )
    with _prepared_lock:
        _prepared[key] = (ref, prepared)
    return prepared


def _build(transition_t: sparse.csr_matrix, dtype: np.dtype) -> PreparedSystem:
    perm = inv = None
    matrix = transition_t
    if dtype == FLOAT32:
        perm = degree_order_permutation(matrix)
        if np.array_equal(perm, np.arange(perm.size)):
            perm = None  # already degree-ordered; skip the copy
        else:
            inv = inverse_permutation(perm)
            matrix = permute_csr(matrix, perm)
    if matrix.dtype != dtype:
        if matrix is transition_t:
            # Cast values only; share the index arrays zero-copy.
            matrix = sparse.csr_matrix(
                (matrix.data.astype(dtype), matrix.indices, matrix.indptr),
                shape=matrix.shape,
                copy=False,
            )
        else:
            matrix.data = matrix.data.astype(dtype)
    return PreparedSystem(matrix=matrix, perm=perm, inv=inv)
