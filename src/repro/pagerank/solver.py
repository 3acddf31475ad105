"""Generic PageRank power iteration.

Solves the fixed point of

    x  =  damping * (A^T x  +  dangling_dist * m(x))  +  (1 - damping) * teleport

where ``m(x)`` is the probability mass sitting on dangling pages.  With
``dangling_dist = teleport`` this is the standard PageRank equation of
§II-A; IdealRank/ApproxRank reuse the same solver with their extended
matrices, ``teleport = P_ideal`` and ``dangling_dist = P_ideal`` (see
``repro.core.extended`` for why that choice makes Theorem 1 exact).

Convergence is declared when the L1 distance between successive
iterates drops below the tolerance, matching the paper's criterion
(|L1| < 0.00001 in §V-A).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.exceptions import ConvergenceError, DivergenceError
from repro.obs import telemetry
from repro.pagerank import precision
from repro.pagerank.kernels import (
    PowerIterationWorkspace,
    projected_cold_iterations,
    run_power_loop,
)

log = logging.getLogger(__name__)


#: Damping factor ε used throughout the paper's experiments (§V-A).
DEFAULT_DAMPING = 0.85

#: Convergence tolerance on the L1 change between iterates (§V-A).
DEFAULT_TOLERANCE = 1e-5

#: Iteration cap; the paper's global runs converge in ~131 iterations,
#: so 1000 leaves a wide margin while still catching divergence bugs.
DEFAULT_MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class PowerIterationSettings:
    """Solver knobs shared by every ranking algorithm.

    Attributes
    ----------
    damping:
        Probability ε of following a hyperlink (vs teleporting).
    tolerance:
        L1 convergence threshold between successive iterates.
    max_iterations:
        Hard cap on iterations.
    raise_on_divergence:
        When True, failing to converge raises
        :class:`~repro.exceptions.ConvergenceError`; when False the
        best iterate is returned with ``converged=False``.
    check_finite:
        Guard every sweep against NaN/Inf contamination of the iterate
        (one scalar ``isfinite`` on the residual); on detection raise
        :class:`~repro.exceptions.DivergenceError` immediately instead
        of iterating garbage to the cap.
    divergence_patience:
        Raise :class:`~repro.exceptions.DivergenceError` after this
        many *consecutive* sweeps whose residual failed to improve on
        the best seen (the damped update contracts in L1, so a healthy
        run improves every sweep).  ``0`` disables the guard.
    safe_restart:
        When a guard trips on a solve that started from a caller-
        supplied ``initial`` vector, retry once from the
        personalisation vector (a corrupted warm start is the common
        cause of divergence); the restart keeps every guard armed.
    """

    damping: float = DEFAULT_DAMPING
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    raise_on_divergence: bool = False
    check_finite: bool = True
    divergence_patience: int = 25
    safe_restart: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {self.damping}")
        if self.tolerance <= 0:
            raise ValueError(
                f"tolerance must be positive, got {self.tolerance}"
            )
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.divergence_patience < 0:
            raise ValueError(
                f"divergence_patience must be >= 0, "
                f"got {self.divergence_patience}"
            )


@dataclass(frozen=True)
class PowerIterationOutcome:
    """Raw solver output (scores plus convergence accounting).

    ``warm_start`` records whether the solve started from a
    caller-supplied ``initial`` vector; ``iterations_saved`` is the
    number of burn-in sweeps the warm start skipped relative to the
    projected cold-start cost at the same effective tolerance (see
    :func:`repro.pagerank.kernels.projected_cold_iterations`).  Both
    are zero/False for cold solves.
    """

    scores: np.ndarray
    iterations: int
    residual: float
    converged: bool
    runtime_seconds: float
    warm_start: bool = False
    iterations_saved: int = 0


def _validate_distribution(name: str, vector: np.ndarray, size: int) -> np.ndarray:
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (size,):
        raise ValueError(
            f"{name} must have shape ({size},), got {vector.shape}"
        )
    # Non-finite entries must be rejected explicitly: every elementwise
    # comparison against NaN is False, so a NaN-carrying vector would
    # otherwise sail past the sign check and surface only as a
    # baffling "sums to nan" (or, with compensating Infs, not at all).
    if not np.all(np.isfinite(vector)):
        bad = int(np.flatnonzero(~np.isfinite(vector))[0])
        raise ValueError(
            f"{name} must contain only finite values; "
            f"entry {bad} is {vector[bad]!r}"
        )
    if np.any(vector < 0):
        raise ValueError(f"{name} must be non-negative")
    total = vector.sum()
    if not np.isclose(total, 1.0, rtol=0, atol=1e-8):
        raise ValueError(f"{name} must sum to 1, sums to {total!r}")
    return vector


def power_iteration(
    transition_t: sparse.csr_matrix,
    teleport: np.ndarray,
    dangling_mask: np.ndarray | None = None,
    dangling_dist: np.ndarray | None = None,
    settings: PowerIterationSettings | None = None,
    initial: np.ndarray | None = None,
    workspace: PowerIterationWorkspace | None = None,
    dtype=None,
) -> PowerIterationOutcome:
    """Run the damped power iteration to its stationary distribution.

    The iteration itself runs on the allocation-free kernels of
    :mod:`repro.pagerank.kernels`: iterate and scratch buffers are
    preallocated once (or supplied by the caller) and every step is an
    in-place sweep.  The matrix is passed through
    :func:`repro.pagerank.precision.prepare` (float32 cast plus
    degree relabeling, memoised per matrix; a float64 passthrough),
    and results are always returned as float64 in original node
    order.

    Parameters
    ----------
    transition_t:
        ``A^T`` where ``A`` is the (sub-)row-stochastic transition
        matrix; dangling rows of ``A`` must be all-zero.
    teleport:
        Personalisation vector (sums to 1).
    dangling_mask:
        Boolean mask of dangling pages in ``A``; ``None`` means no
        dangling pages.
    dangling_dist:
        Where dangling mass is redistributed; defaults to ``teleport``.
    settings:
        Solver knobs; defaults to the paper's (ε=0.85, tol=1e-5).
    initial:
        Starting vector; defaults to ``teleport``.  It is normalised to
        sum to 1.
    workspace:
        Optional preallocated
        :class:`~repro.pagerank.kernels.PowerIterationWorkspace` of the
        right size; pass one when solving repeatedly on the same graph
        so the steady state allocates nothing.  Its dtype must match
        the solve's; a mismatched workspace is ignored (a private one
        is allocated) rather than clobbered with casts.
    dtype:
        Sweep precision, ``"float64"`` or ``"float32"``; ``None`` means
        the process default (``REPRO_DTYPE`` / ``--float32``).

    Returns
    -------
    PowerIterationOutcome
        Scores summing to 1 plus convergence accounting.

    Raises
    ------
    ConvergenceError
        When ``settings.raise_on_divergence`` and the iteration cap is
        hit first.
    """
    if settings is None:
        settings = PowerIterationSettings()
    size = transition_t.shape[0]
    if transition_t.shape != (size, size):
        raise ValueError(
            f"transition_t must be square, got {transition_t.shape}"
        )
    if size == 0:
        raise ValueError("cannot rank an empty graph")
    teleport = _validate_distribution("teleport", teleport, size)
    if dangling_dist is None:
        dangling_dist = teleport
    else:
        dangling_dist = _validate_distribution(
            "dangling_dist", dangling_dist, size
        )
    if dangling_mask is None:
        dangling_indices = np.empty(0, dtype=np.int64)
    else:
        dangling_mask = np.asarray(dangling_mask, dtype=bool)
        if dangling_mask.shape != (size,):
            raise ValueError(
                f"dangling_mask must have shape ({size},), "
                f"got {dangling_mask.shape}"
            )
        dangling_indices = np.flatnonzero(dangling_mask)

    prepared = precision.prepare(transition_t, dtype)

    caller_workspace = workspace is not None
    if workspace is not None and workspace.size != size:
        raise ValueError(
            f"workspace is sized for {workspace.size}, problem is {size}"
        )
    if workspace is not None and workspace.dtype != prepared.dtype:
        # Caller-owned buffers in the wrong precision for this solve:
        # solve in a private workspace rather than clobbering them.
        workspace = None
        caller_workspace = False
    if workspace is None:
        workspace = PowerIterationWorkspace(size, dtype=prepared.dtype)

    warm_start = initial is not None
    if initial is None:
        start_vector = teleport
    else:
        initial = np.asarray(initial, dtype=np.float64)
        if initial.shape != (size,):
            raise ValueError(
                f"initial must have shape ({size},), got {initial.shape}"
            )
        total = initial.sum()
        if total <= 0:
            raise ValueError("initial vector must have positive mass")
        start_vector = initial / total
    np.copyto(workspace.x, prepared.to_kernel(start_vector))

    damping = settings.damping
    base = prepared.to_kernel((1.0 - damping) * teleport)
    kernel_dangling_dist = prepared.to_kernel(dangling_dist)
    kernel_dangling_indices = prepared.map_indices(dangling_indices)
    tolerance = precision.effective_tolerance(
        settings.tolerance, size, prepared.dtype
    )
    guarded = settings.check_finite or settings.divergence_patience > 0
    trace: list[float] | None = [] if guarded else None
    start = time.perf_counter()
    try:
        iterations, residual, converged = run_power_loop(
            prepared.matrix,
            damping=damping,
            base=base,
            dangling_indices=kernel_dangling_indices,
            dangling_dist=kernel_dangling_dist,
            tolerance=tolerance,
            max_iterations=settings.max_iterations,
            workspace=workspace,
            check_finite=settings.check_finite,
            divergence_patience=settings.divergence_patience,
            residual_trace=trace,
        )
    except DivergenceError as exc:
        telemetry.record_divergence("power", exc.iterations or 0)
        if not (settings.safe_restart and warm_start):
            raise
        # Safe restart: a guard tripped on a caller-supplied warm
        # start; rerun once from the personalisation vector with the
        # guards still armed.  A structurally bad problem (NaN in the
        # matrix, say) diverges again and the second error propagates.
        log.warning(
            "solver guard tripped (%s); restarting from the "
            "personalisation vector",
            exc,
        )
        telemetry.record_safe_restart("power")
        # The warm start was abandoned; the retry is a cold solve and
        # must not claim warm-start savings.
        warm_start = False
        np.copyto(workspace.x, prepared.to_kernel(teleport))
        trace = [] if guarded else None
        try:
            iterations, residual, converged = run_power_loop(
                prepared.matrix,
                damping=damping,
                base=base,
                dangling_indices=kernel_dangling_indices,
                dangling_dist=kernel_dangling_dist,
                tolerance=tolerance,
                max_iterations=settings.max_iterations,
                workspace=workspace,
                check_finite=settings.check_finite,
                divergence_patience=settings.divergence_patience,
                residual_trace=trace,
            )
        except DivergenceError as restart_exc:
            telemetry.record_divergence("power", restart_exc.iterations or 0)
            raise
    runtime = time.perf_counter() - start
    telemetry.record_solve(
        "power",
        iterations=iterations,
        residual=residual,
        converged=converged,
        damping=damping,
        runtime_seconds=runtime,
        residual_trace=trace,
    )
    if prepared.identity:
        # A caller-owned workspace will be reused; hand back a private
        # copy of the final iterate so the next solve cannot clobber it.
        scores = workspace.x.copy() if caller_workspace else workspace.x
    else:
        # Restoration (cast to float64 / inverse permutation) already
        # produces a private array.
        scores = prepared.from_kernel(workspace.x)
    if not converged and settings.raise_on_divergence:
        raise ConvergenceError(
            f"power iteration did not reach tolerance "
            f"{settings.tolerance} within {settings.max_iterations} "
            f"iterations (residual {residual:.3e})",
            iterations=iterations,
            residual=residual,
        )
    iterations_saved = 0
    if warm_start and converged:
        projected = projected_cold_iterations(
            tolerance, damping, settings.max_iterations
        )
        iterations_saved = max(0, projected - iterations)
    return PowerIterationOutcome(
        scores=scores,
        iterations=iterations,
        residual=residual,
        converged=converged,
        runtime_seconds=runtime,
        warm_start=warm_start,
        iterations_saved=iterations_saved,
    )


def uniform_teleport(size: int) -> np.ndarray:
    """The standard uniform personalisation vector ``[1/n]``."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    return np.full(size, 1.0 / size, dtype=np.float64)
