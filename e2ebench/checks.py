"""Output checks: every answer of every run passes these or the run
fails.

* An exact answer is bit-identical to
  :meth:`~repro.core.precompute.ApproxRankPreprocessor.rank` on the
  graph version that served it.
* An estimated answer's measured error against the exact solve of
  the same subgraph is within its certificate (L1 for push, L∞ for
  Monte Carlo, plus :data:`~e2ebench.spec.CERTIFICATE_SLACK`).
* A stale answer carries a staleness charge within the store budget.
* Scores are non-negative, and local scores plus Λ sum to 1 (within
  the certificate for estimates).
"""

from __future__ import annotations

import numpy as np

from e2ebench import spec


class AnswerError(Exception):
    """An answer that the system must never give."""


def _extended(scores, lam: float) -> np.ndarray:
    return np.append(np.asarray(scores, dtype=np.float64), float(lam))


def check_distribution(scores, lam: float, tolerance: float) -> None:
    """Non-negative scores whose extended mass is 1 within tolerance."""
    vector = _extended(scores, lam)
    if not np.all(np.isfinite(vector)):
        raise AnswerError("scores contain a non-finite value")
    if np.any(vector < 0):
        raise AnswerError(f"negative score {vector.min()!r}")
    mass = float(vector.sum())
    if abs(mass - 1.0) > tolerance:
        raise AnswerError(
            f"local scores plus lambda sum to {mass!r}, not 1 "
            f"(tolerance {tolerance:g})"
        )


def check_exact(nodes, scores, lam: float, reference) -> None:
    """Bit-identity with the offline solve ``reference``."""
    got_nodes = np.asarray(nodes, dtype=np.int64)
    if not np.array_equal(got_nodes, reference.local_nodes):
        raise AnswerError("answer ranks a different node set")
    got = np.asarray(scores, dtype=np.float64)
    want = np.asarray(reference.scores, dtype=np.float64)
    if got.shape != want.shape or got.tobytes() != want.tobytes():
        diff = (
            float(np.max(np.abs(got - want)))
            if got.shape == want.shape else float("inf")
        )
        raise AnswerError(
            f"exact scores are not bit-identical to the offline solve "
            f"(max |diff| {diff:.3g})"
        )
    if float(lam) != float(reference.extras["lambda_score"]):
        raise AnswerError("lambda score differs from the offline solve")
    check_distribution(got, lam, spec.EXACT_MASS_TOLERANCE)


def check_estimate(
    estimator: str, scores, lam: float, bound: float, reference
) -> float:
    """Measured error within the certificate; returns the error.

    ``reference`` is the exact solve of the same subgraph.
    """
    if not np.isfinite(bound) or bound < 0:
        raise AnswerError(f"certificate {bound!r} is not a bound")
    got = _extended(scores, lam)
    want = _extended(reference.scores, reference.extras["lambda_score"])
    if got.shape != want.shape:
        raise AnswerError("estimate ranks a different node set")
    diff = np.abs(got - want)
    error = float(diff.sum() if estimator.startswith("push") else diff.max())
    if error > bound + spec.CERTIFICATE_SLACK:
        raise AnswerError(
            f"{estimator} error {error:.3g} exceeds its certificate "
            f"{bound:.3g}"
        )
    if np.any(got < 0):
        raise AnswerError(f"negative score {got.min()!r}")
    # The L1 certificate bounds the missing mass; the L∞ one scaled by
    # n+1 does.  Either way the mass may be off by no more.
    slack = bound if estimator.startswith("push") else bound * got.size
    check_distribution(got[:-1], got[-1], slack + spec.CERTIFICATE_SLACK)
    return error


def check_stale(staleness: float, budget: float) -> None:
    """A stale answer must carry a charge within the store budget."""
    if not np.isfinite(staleness) or staleness < 0:
        raise AnswerError(f"staleness {staleness!r} is not a charge")
    if staleness > budget:
        raise AnswerError(
            f"stale answer charged {staleness:.3g}, over the budget "
            f"{budget:.3g}"
        )
