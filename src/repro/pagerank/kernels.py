"""Allocation-free solver kernels shared by every power-iteration variant.

The plain, extrapolated, adaptive and batched solvers all spend their
time in the same damped step

    x_next = damping * (A^T x + m(x) * dangling_dist) + (1 - damping) * P

The seed implementation allocated three fresh arrays per iteration
(the mat-vec result, the dangling term, the residual), which at scale
turns the solver into an allocator benchmark.  This module provides the
step as in-place kernels over preallocated buffers:

* :func:`csr_matvec_into` / :func:`csr_matmat_dense_into` — sparse
  mat-vec / mat-mat writing into caller-owned output arrays.  They use
  scipy's C routines (``scipy.sparse._sparsetools``) directly, which
  accumulate into the output buffer; when that private module is
  unavailable the kernels fall back to the allocating ``@`` operator so
  results never change, only constant factors.
* :class:`PowerIterationWorkspace` — the iterate/scratch buffers one
  solve needs, reusable across solves of the same size (repeated solves
  on one graph allocate nothing after the first).
* :func:`damped_step_into` — one full power-iteration step, in place.
* :func:`l1_residual_into` — ``‖a − b‖₁`` computed through a scratch
  buffer instead of two temporaries.

Everything here is pure arithmetic: validation, convergence policy and
result packaging stay in :mod:`repro.pagerank.solver` and friends.

The kernels are dtype-generic — ``_sparsetools`` dispatches on the
array dtypes — so the same code serves the float32 score mode
(:mod:`repro.pagerank.precision`).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import DivergenceError
from repro.obs import telemetry

try:  # scipy's C kernels accumulate y += A @ x with zero allocation
    from scipy.sparse import _sparsetools

    _HAVE_SPARSETOOLS = hasattr(_sparsetools, "csr_matvec") and hasattr(
        _sparsetools, "csr_matvecs"
    )
except ImportError:  # pragma: no cover - exotic scipy builds
    _sparsetools = None
    _HAVE_SPARSETOOLS = False

#: True when the in-place C kernels are available (informational; the
#: fallbacks produce identical numbers, just with temporaries).
SPARSETOOLS_AVAILABLE = _HAVE_SPARSETOOLS


def csr_matvec_into(
    matrix: sparse.csr_matrix, x: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``out[:] = matrix @ x`` without allocating the result.

    ``out`` must be an array of the matrix dtype and length
    ``matrix.shape[0]``; its prior contents are discarded.  Returns
    ``out``.
    """
    if _HAVE_SPARSETOOLS:
        out.fill(0.0)
        _sparsetools.csr_matvec(
            matrix.shape[0],
            matrix.shape[1],
            matrix.indptr,
            matrix.indices,
            matrix.data,
            x,
            out,
        )
    else:  # pragma: no cover - exercised only on exotic scipy builds
        np.copyto(out, matrix @ x)
    return out


def csr_matmat_dense_into(
    matrix: sparse.csr_matrix, block: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``out[:] = matrix @ block`` for a dense C-contiguous ``block``.

    ``block`` is ``(matrix.shape[1], K)`` and ``out`` is
    ``(matrix.shape[0], K)``; both must be C-contiguous in the matrix
    dtype (the C kernel walks them row-major).  Returns ``out``.
    """
    if _HAVE_SPARSETOOLS and block.flags.c_contiguous and out.flags.c_contiguous:
        out.fill(0.0)
        _sparsetools.csr_matvecs(
            matrix.shape[0],
            matrix.shape[1],
            block.shape[1],
            matrix.indptr,
            matrix.indices,
            matrix.data,
            block.reshape(-1),
            out.reshape(-1),
        )
    else:  # pragma: no cover - exercised only on exotic scipy builds
        np.copyto(out, matrix @ block)
    return out


def csr_matmat_dense_accumulate(
    matrix: sparse.csr_matrix, block: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``out += matrix @ block`` for a dense C-contiguous ``block``.

    The accumulating form of :func:`csr_matmat_dense_into`: the batched
    solver initialises ``out`` with the teleport/dangling term and lets
    the sparse kernel add the propagated mass on top, saving one full
    pass over the ``(n, K)`` block per sweep.  Returns ``out``.
    """
    if _HAVE_SPARSETOOLS and block.flags.c_contiguous and out.flags.c_contiguous:
        _sparsetools.csr_matvecs(
            matrix.shape[0],
            matrix.shape[1],
            block.shape[1],
            matrix.indptr,
            matrix.indices,
            matrix.data,
            block.reshape(-1),
            out.reshape(-1),
        )
    else:  # pragma: no cover - exercised only on exotic scipy builds
        out += matrix @ block
    return out


class PowerIterationWorkspace:
    """Preallocated buffers for one single-vector power iteration.

    A workspace is tied to a problem size ``n`` and a score dtype
    (float64 by default, float32 for the reduced-precision mode);
    reusing it across repeated solves
    on the same graph makes the steady state of the solver
    allocation-free.  The buffers:

    ``x`` / ``x_next``
        The two iterates (the solver swaps them each step instead of
        copying).
    ``scratch``
        Length-``n`` temporary for the dangling term and the residual.
    ``gather``
        Lazily sized buffer for gathering dangling components of the
        iterate (``ensure_gather``).
    """

    __slots__ = ("size", "dtype", "x", "x_next", "scratch", "_gather")

    def __init__(self, size: int, dtype=np.float64):
        if size < 1:
            raise ValueError(f"workspace size must be >= 1, got {size}")
        self.size = size
        self.dtype = np.dtype(dtype)
        self.x = np.empty(size, dtype=self.dtype)
        self.x_next = np.empty(size, dtype=self.dtype)
        self.scratch = np.empty(size, dtype=self.dtype)
        self._gather: np.ndarray | None = None
        telemetry.record_workspace_allocation(
            size, 3 * size * self.dtype.itemsize
        )

    def ensure_gather(self, size: int) -> np.ndarray:
        """Return a reusable buffer of at least ``size`` elements."""
        if self._gather is None or self._gather.size < size:
            self._gather = np.empty(size, dtype=self.dtype)
            telemetry.record_workspace_allocation(
                size, size * self.dtype.itemsize
            )
        return self._gather

    def swap(self) -> None:
        """Exchange the ``x`` and ``x_next`` buffers (no data copied)."""
        self.x, self.x_next = self.x_next, self.x


def dangling_mass(
    x: np.ndarray,
    dangling_indices: np.ndarray,
    workspace: PowerIterationWorkspace | None = None,
) -> float:
    """Probability mass of ``x`` sitting on dangling pages.

    With a workspace the gather happens into a reused buffer; without
    one it falls back to fancy indexing (one small allocation).
    """
    if not dangling_indices.size:
        return 0.0
    if workspace is None:
        return float(x[dangling_indices].sum())
    gather = workspace.ensure_gather(dangling_indices.size)
    np.take(x, dangling_indices, out=gather[: dangling_indices.size])
    return float(gather[: dangling_indices.size].sum())


def damped_step_into(
    transition_t: sparse.csr_matrix,
    x: np.ndarray,
    out: np.ndarray,
    *,
    damping: float,
    base: np.ndarray,
    dangling_indices: np.ndarray,
    dangling_dist: np.ndarray,
    scratch: np.ndarray,
    workspace: PowerIterationWorkspace | None = None,
) -> None:
    """One damped power-iteration step, entirely in place.

    Computes ``out = damping * (A^T x + m(x) * dangling_dist) + base``
    and renormalises ``out`` to sum to 1 (``base`` is the precomputed
    ``(1 - damping) * teleport``).  ``scratch`` is overwritten.
    """
    mass = dangling_mass(x, dangling_indices, workspace)
    csr_matvec_into(transition_t, x, out)
    out *= damping
    if mass:
        np.multiply(dangling_dist, damping * mass, out=scratch)
        out += scratch
    out += base
    # Stochasticity keeps the total at 1; renormalise to stop
    # floating-point drift from accumulating over hundreds of steps.
    out /= out.sum()


def l1_residual_into(
    a: np.ndarray, b: np.ndarray, scratch: np.ndarray
) -> float:
    """``‖a − b‖₁`` using ``scratch`` instead of fresh temporaries."""
    np.subtract(a, b, out=scratch)
    np.abs(scratch, out=scratch)
    return float(scratch.sum())


def projected_cold_iterations(
    tolerance: float,
    damping: float,
    max_iterations: int,
) -> int:
    """Sweeps a *cold* start needs to reach ``tolerance``.

    The damped update is a ``damping``-contraction in L1, so the
    per-sweep residual of a cold (teleport-started) run decays
    geometrically from its initial value — at most ``2`` (the L1
    diameter of the probability simplex).  Solving
    ``2 * damping**k < tolerance`` gives the projected sweep count;
    at the paper's ε=0.85 and a 1e-9 tolerance this lands at ~132,
    matching the ~131-iteration global runs of §V-A.

    This is the yardstick ``iterations_saved`` is measured against
    when a solve is warm-started: a warm iterate enters the loop with
    a residual already far below 2, so it skips the burn-in sweeps a
    cold start pays for.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if tolerance >= 2.0:
        return 1
    projected = int(np.ceil(np.log(2.0 / tolerance) / np.log(1.0 / damping)))
    return int(min(max(projected, 1), max_iterations))


def run_power_loop(
    transition_t: sparse.csr_matrix,
    *,
    damping: float,
    base: np.ndarray,
    dangling_indices: np.ndarray,
    dangling_dist: np.ndarray,
    tolerance: float,
    max_iterations: int,
    workspace: PowerIterationWorkspace,
    check_finite: bool = False,
    divergence_patience: int = 0,
    residual_trace: "list[float] | None" = None,
) -> tuple[int, float, bool]:
    """Drive the damped step to convergence over a workspace.

    ``workspace.x`` must hold the (normalised) starting vector; on
    return it holds the final iterate.  Returns ``(iterations,
    residual, converged)``.

    Every array argument must already live in the kernel domain (dtype
    and layout) — the solver layer handles that via
    :func:`repro.pagerank.precision.prepare`.

    Guards (both off by default; the solver layer enables them):

    * ``check_finite`` — a NaN/Inf residual means the iterate is
      contaminated; raise :class:`~repro.exceptions.DivergenceError`
      immediately instead of iterating garbage to the cap.  The check
      is one scalar ``isfinite`` per sweep — NaN anywhere in the
      iterate propagates into the L1 residual, so no extra pass over
      the vector is needed.
    * ``divergence_patience`` — when > 0, raise after that many
      *consecutive* sweeps whose residual failed to improve on the
      best seen.  The damped update is a ``damping``-contraction in
      L1, so healthy runs improve every sweep; a sustained
      non-improving streak means divergence or a cycle.

    ``residual_trace``, when given, accumulates the per-sweep residual
    (the forensic trail carried by :class:`DivergenceError`).
    """
    residual = np.inf
    iterations = 0
    best_residual = np.inf
    stall_streak = 0
    for iterations in range(1, max_iterations + 1):
        damped_step_into(
            transition_t,
            workspace.x,
            workspace.x_next,
            damping=damping,
            base=base,
            dangling_indices=dangling_indices,
            dangling_dist=dangling_dist,
            scratch=workspace.scratch,
            workspace=workspace,
        )
        residual = l1_residual_into(
            workspace.x_next, workspace.x, workspace.scratch
        )
        if residual_trace is not None:
            residual_trace.append(float(residual))
        workspace.swap()
        if residual < tolerance:
            return iterations, residual, True
        if check_finite and not np.isfinite(residual):
            raise DivergenceError(
                f"power iteration produced a non-finite residual at "
                f"sweep {iterations}: the iterate is contaminated with "
                f"NaN/Inf",
                iterations=iterations,
                residual=float(residual),
                residual_trace=residual_trace or (),
            )
        if divergence_patience > 0:
            if residual >= best_residual:
                stall_streak += 1
                if stall_streak >= divergence_patience:
                    raise DivergenceError(
                        f"power iteration residual has not improved for "
                        f"{stall_streak} consecutive sweeps (best "
                        f"{best_residual:.3e}, current {residual:.3e} at "
                        f"sweep {iterations}): diverging or cycling",
                        iterations=iterations,
                        residual=float(residual),
                        residual_trace=residual_trace or (),
                    )
            else:
                best_residual = residual
                stall_streak = 0
    return iterations, residual, False
