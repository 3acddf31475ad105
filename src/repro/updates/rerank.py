"""Warm-started, splice-based incremental re-ranking with IdealRank.

Given yesterday's global scores and a graph update, re-rank only the
affected region (IdealRank with the stale external scores) and splice
the result into the old vector — the concrete procedure behind §I's
"exploit existing PageRank scores for other regions of the graph which
may remain largely unchanged".

The regional solve is **warm-started** from the spliced old vector:
yesterday's scores restricted to the region (plus the residual mass as
Λ's share) enter the power loop with a residual already far below a
cold start's, so the solve skips the burn-in sweeps and converges in a
handful of iterations.  ``UpdateResult.iterations_saved`` records the
skipped sweeps against the projected cold-start cost; the
``safe_restart`` guard stays armed, so a corrupted warm start falls
back to a cold solve instead of diverging.

Every update also returns a **staleness charge**: a computable upper
bound on how far the spliced vector can sit from the true fixed point
of the updated graph, built from two pieces —

* Ng et al.'s perturbation bound ``2ε/(1−ε)·Σ_{i∈changed} R[i]``
  bounds ``‖ΔE‖₁``, the drift of the external-importance vector the
  regional IdealRank consumed stale;
* Theorem 2 amplifies that stale input by ``ε/(1−ε)``; solver
  truncation adds ``residual/(1−ε)`` (plus the documented
  :func:`~repro.pagerank.precision.float32_l1_bound` clamp when the
  regional solve runs in float32).

The serving layer accumulates these charges per store entry and stops
serving an entry the moment its cumulative charge exceeds the
Theorem-2 staleness budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.idealrank import idealrank
from repro.exceptions import GraphError, SubgraphError
from repro.graph.digraph import CSRGraph
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.pagerank.precision import (
    FLOAT32,
    float32_l1_bound,
    resolve_dtype,
)
from repro.pagerank.solver import PowerIterationSettings
from repro.updates.affected import affected_region, changed_pages
from repro.updates.delta import GraphDelta


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of an incremental re-rank.

    Attributes
    ----------
    scores:
        Full-length score vector for the *new* graph: re-ranked values
        inside the region, yesterday's values outside, renormalised to
        sum to 1.
    region:
        The re-ranked page ids.
    runtime_seconds:
        Wall-clock of the incremental path (region derivation +
        IdealRank solve + splice).
    iterations:
        Power-iteration count of the IdealRank solve.
    warm_start:
        Whether the regional solve started from the spliced old
        vector (False for cold solves and the empty-update shortcut).
    iterations_saved:
        Burn-in sweeps the warm start skipped relative to a projected
        cold solve at the same effective tolerance.
    delta_e_bound:
        Upper bound on ``‖ΔE‖₁`` — how far the update can have moved
        the external-importance vector the regional solve consumed
        stale (Ng et al.'s perturbation bound over the changed pages).
    staleness_charge:
        Theorem-2 charge of serving the spliced vector in place of a
        fresh global solve: ``ε/(1−ε)·delta_e_bound`` plus solver
        truncation (see module docs).  Zero for an empty update.
    dtype:
        Solver dtype name (``float64``/``float32``) of the regional
        solve (empty for the no-solve shortcut).
    """

    scores: np.ndarray
    region: np.ndarray
    runtime_seconds: float
    iterations: int
    warm_start: bool = False
    iterations_saved: int = 0
    delta_e_bound: float = 0.0
    staleness_charge: float = 0.0
    dtype: str = ""

    def __post_init__(self) -> None:
        self.scores.setflags(write=False)
        self.region.setflags(write=False)


def staleness_charge_bound(
    delta_e_bound: float,
    damping: float,
    *,
    residual: float = 0.0,
    float32_clamp: float = 0.0,
) -> float:
    """Theorem-2 staleness charge for one absorbed update.

    ``ε/(1−ε)`` times the external-drift bound, plus the damped-
    contraction truncation term ``residual/(1−ε)`` and, for float32
    solves, the documented roundoff clamp.  Every term is an upper
    bound, so the sum is one too; the serving layer adds charges
    across updates (the triangle inequality keeps the total valid).
    """
    if not 0.0 < damping < 1.0:
        raise GraphError(f"damping must be in (0, 1), got {damping}")
    amplified = damping / (1.0 - damping) * float(delta_e_bound)
    truncation = float(residual) / (1.0 - damping)
    return amplified + truncation + float(float32_clamp)


def incremental_rerank(
    old_graph: CSRGraph,
    new_graph: CSRGraph,
    old_scores: np.ndarray,
    delta: GraphDelta | None = None,
    hops: int = 2,
    settings: PowerIterationSettings | None = None,
    dtype=None,
    warm_start: bool = True,
    registry: MetricsRegistry | None = None,
) -> UpdateResult:
    """Re-rank only the affected region, reusing yesterday's scores.

    Parameters
    ----------
    old_graph / new_graph:
        Graphs before and after the update (new pages appended).
    old_scores:
        Yesterday's global PageRank of ``old_graph`` (length old N).
    delta:
        Optional explicit delta (skips the row diff).
    hops:
        Forward halo around changed pages; larger = more accurate,
        more expensive.
    settings:
        Solver knobs for the IdealRank solve.
    dtype:
        Sweep precision of the regional solve; ``None`` is the process
        default, so ``--float32`` / ``REPRO_DTYPE`` govern the
        incremental path exactly as they govern cold solves.  Float32
        widens the returned ``staleness_charge`` by the documented
        :func:`~repro.pagerank.precision.float32_l1_bound` clamp.
    warm_start:
        Start the regional solve from the spliced old vector
        (default).  ``False`` forces a cold solve — the benchmark's
        baseline arm.
    registry:
        Metrics registry for the ``repro_update_*`` counters (the
        process-wide one by default).

    Returns
    -------
    UpdateResult
        Spliced score vector over the new graph plus warm-start and
        staleness accounting.

    Notes
    -----
    External scores fed to IdealRank are *yesterday's* — stale by
    whatever mass the update moved outside the region.  Theorem 2
    bounds the resulting error by ``ε/(1−ε)`` times the staleness of
    the external-importance vector; ``staleness_charge`` is that
    bound made computable (see module docs).
    """
    old_scores = np.asarray(old_scores, dtype=np.float64)
    if old_scores.shape != (old_graph.num_nodes,):
        raise GraphError(
            "old_scores must cover the old graph: expected "
            f"({old_graph.num_nodes},), got {old_scores.shape}"
        )
    start = time.perf_counter()
    region = affected_region(old_graph, new_graph, hops, delta)
    if region.size == 0:
        runtime = time.perf_counter() - start
        return UpdateResult(
            scores=old_scores.copy(),
            region=region,
            runtime_seconds=runtime,
            iterations=0,
        )
    if region.size >= new_graph.num_nodes:
        raise SubgraphError(
            "the update touches the whole graph; run global PageRank "
            "instead of an incremental re-rank"
        )

    if settings is None:
        settings = PowerIterationSettings()
    dtype = resolve_dtype(dtype)
    damping = settings.damping

    # Yesterday's scores, extended to the new id space: brand-new
    # pages start from the teleport share (they had no score).
    stale = np.full(new_graph.num_nodes, 1.0 / new_graph.num_nodes)
    stale[: old_graph.num_nodes] = old_scores

    initial = None
    if warm_start:
        # The extended warm iterate: yesterday's region scores plus
        # the residual mass as Λ's share (the solver normalises).  A
        # corrupted warm start must not poison the solve, so the
        # safe_restart guard is armed for the regional solve.
        region_mass = stale[region]
        lam = max(1.0 - float(region_mass.sum()), 0.0)
        initial = np.concatenate([region_mass, [lam]])
        settings = replace(settings, safe_restart=True)

    ranked = idealrank(
        new_graph, region, stale, settings,
        initial=initial, dtype=dtype,
    )

    spliced = stale.copy()
    spliced[ranked.local_nodes] = ranked.scores
    spliced /= spliced.sum()

    # Staleness accounting: the changed pages (delta sources ∪ new
    # pages, or the row diff) carried `stale`-mass the update may
    # have moved; Ng et al.'s bound turns that mass into ‖ΔE‖₁.
    if delta is not None and not delta.is_empty:
        seeds = np.union1d(
            delta.touched_sources(),
            np.arange(
                old_graph.num_nodes, new_graph.num_nodes, dtype=np.int64
            ),
        )
    else:
        seeds = changed_pages(old_graph, new_graph)
    from repro.pagerank.stability import perturbation_bound

    delta_e_bound = perturbation_bound(stale, seeds, damping)
    clamp = 0.0
    if dtype == FLOAT32:
        clamp = float32_l1_bound(
            region.size + 1, settings.tolerance, damping
        )
    charge = staleness_charge_bound(
        delta_e_bound,
        damping,
        residual=ranked.residual,
        float32_clamp=clamp,
    )

    warm = bool(ranked.extras.get("warm_start", False))
    saved = int(ranked.extras.get("iterations_saved", 0))
    metrics = registry if registry is not None else REGISTRY
    metrics.counter(
        "repro_update_regions_reranked_total",
        "Affected regions re-ranked by the incremental engine.",
    ).inc()
    if saved:
        metrics.counter(
            "repro_update_iterations_saved_total",
            "Power-iteration sweeps skipped by warm-started re-ranks "
            "relative to projected cold solves.",
        ).inc(saved)

    runtime = time.perf_counter() - start
    return UpdateResult(
        scores=spliced,
        region=region,
        runtime_seconds=runtime,
        iterations=ranked.iterations,
        warm_start=warm,
        iterations_saved=saved,
        delta_e_bound=float(delta_e_bound),
        staleness_charge=float(charge),
        dtype=dtype.name,
    )
