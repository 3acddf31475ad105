"""The extended local graph ``G_e`` and its transition matrix.

This module is the heart of the reproduction.  Given a global graph
``G_g`` (N pages), a local node set (n pages) and a relative-importance
vector over external pages, it assembles the ``(n+1) × (n+1)``
transition matrix of §III-B / §IV-B:

* the upper-left ``n × n`` block copies the global transition entries
  between local pages (probabilities use *global* out-degrees);
* the upper-right column carries each local page's total probability of
  stepping to any external page (its residual row mass);
* the bottom row distributes Λ's outgoing probability over local pages
  as the E-weighted average of external rows, with the remaining mass
  on the Λ → Λ self-loop.

Dangling pages
--------------
Standard PageRank patches a dangling page's row with the uniform
distribution ``1/N`` over all N pages.  Collapsing that patched row
into the extended graph gives exactly ``1/N`` per local page and
``(N-n)/N`` for Λ — which is precisely ``P_ideal``.  We therefore leave
dangling local rows empty in the sparse matrix and let the solver
redistribute their mass through ``P_ideal``; this keeps Theorem 1 exact
without densifying anything.  Dangling *external* pages contribute
``w_j / N`` to every local entry of the Λ row analytically.

Complexity
----------
Everything is O(local edges + boundary edges) given the global
transition matrix; the global matrix itself is built once per graph
(and shared across subgraphs by
:class:`repro.core.precompute.ApproxRankPreprocessor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse

from repro.exceptions import SubgraphError
from repro.graph.digraph import CSRGraph
from repro.graph.subgraph import normalize_node_set
from repro.pagerank.batched import batched_power_iteration, stack_teleports
from repro.pagerank.result import SubgraphScores
from repro.pagerank.solver import (
    PowerIterationSettings,
    power_iteration,
)
from repro.pagerank.transition import csr_transpose


@dataclass(frozen=True)
class ExtendedLocalGraph:
    """A fully assembled extended local graph, ready to solve.

    Attributes
    ----------
    local_nodes:
        Sorted global ids of the n local pages.
    transition_ext_t:
        Transpose of the ``(n+1) × (n+1)`` extended transition matrix
        (CSR); index n is the external node Λ.  Rows of dangling local
        pages are empty (handled via ``dangling_mask_ext``).
    dangling_mask_ext:
        Length ``n+1`` mask; True for local pages that are dangling in
        the *global* graph.  Λ is never dangling.
    p_ideal:
        The extended personalisation vector: Equation (5)'s ``1/N``
        per local page and ``(N-n)/N`` for Λ under uniform teleport,
        or the collapsed form of a caller-supplied personalisation
        (see :func:`collapse_personalization`).
    num_global:
        N, the size of the global graph.
    mode:
        ``"ideal"``, ``"approx"`` or ``"custom"`` — which E was used.
    """

    local_nodes: np.ndarray
    transition_ext_t: sparse.csr_matrix
    dangling_mask_ext: np.ndarray
    p_ideal: np.ndarray
    num_global: int
    mode: str

    @property
    def num_local(self) -> int:
        """n, the number of local pages."""
        return int(self.local_nodes.size)

    @property
    def lambda_index(self) -> int:
        """Index of the external node Λ in the extended matrix."""
        return self.num_local

    def solve(
        self,
        settings: PowerIterationSettings | None = None,
        teleport_override: np.ndarray | None = None,
        initial: np.ndarray | None = None,
        dtype=None,
    ) -> "ExtendedSolveOutcome":
        """Run the random walk of Equation (1)/(6) to its fixed point.

        Parameters
        ----------
        settings:
            Solver knobs.
        teleport_override:
            Replace ``P_ideal`` with another length-(n+1) distribution
            — an *ablation hook* for studying the paper's choice of
            personalisation vector (e.g. the naive uniform
            ``1/(n+1)``, which ignores how much teleport mass the
            external world really absorbs).  Dangling local pages
            redistribute through the same vector.
        initial:
            Optional length-(n+1) warm-start vector in the extended
            space (local scores followed by Λ); the solver normalises
            it.  A warm iterate close to the fixed point skips the
            burn-in sweeps a cold start needs (``warm_start`` /
            ``iterations_saved`` on the outcome record the savings).
        dtype:
            Sweep precision (``None`` = process default), as in
            :func:`repro.pagerank.solver.power_iteration`.
        """
        teleport = (
            self.p_ideal if teleport_override is None
            else teleport_override
        )
        outcome = power_iteration(
            self.transition_ext_t,
            teleport=teleport,
            dangling_mask=self.dangling_mask_ext,
            dangling_dist=teleport,
            settings=settings,
            initial=initial,
            dtype=dtype,
        )
        return ExtendedSolveOutcome(
            local_scores=outcome.scores[: self.num_local],
            lambda_score=float(outcome.scores[self.lambda_index]),
            iterations=outcome.iterations,
            residual=outcome.residual,
            converged=outcome.converged,
            runtime_seconds=outcome.runtime_seconds,
            warm_start=outcome.warm_start,
            iterations_saved=outcome.iterations_saved,
        )

    def solve_many(
        self,
        teleports: "list[np.ndarray] | np.ndarray",
        settings: PowerIterationSettings | None = None,
        dampings: np.ndarray | None = None,
    ) -> "list[ExtendedSolveOutcome]":
        """Solve several personalisations of this graph in one batch.

        All K walks share the extended matrix, so they run through
        :func:`repro.pagerank.batched.batched_power_iteration` — one
        sparse mat-mat per iteration instead of K mat-vecs — with each
        column redistributing dangling mass through its own teleport
        vector, exactly as K :meth:`solve` calls would.

        Parameters
        ----------
        teleports:
            Either a list of length-(n+1) distributions or an
            ``(n+1, K)`` block.  Pass ``self.p_ideal`` as a column to
            include the paper's default walk in the batch.
        settings:
            Solver knobs shared by every column.
        dampings:
            Optional length-K per-column damping factors overriding
            ``settings.damping`` — a multi-damping sweep (or a
            micro-batched serving flush coalescing requests that
            differ only in ε) becomes one batched solve.

        Returns
        -------
        list[ExtendedSolveOutcome], one per column, in input order.
        """
        size = self.num_local + 1
        if isinstance(teleports, np.ndarray) and teleports.ndim == 2:
            block = np.ascontiguousarray(teleports, dtype=np.float64)
        else:
            block = stack_teleports(list(teleports), size)
        outcome = batched_power_iteration(
            self.transition_ext_t,
            teleports=block,
            dangling_mask=self.dangling_mask_ext,
            settings=settings,
            dampings=dampings,
        )
        per_column = outcome.runtime_seconds / outcome.num_columns
        return [
            ExtendedSolveOutcome(
                local_scores=outcome.scores[: self.num_local, k].copy(),
                lambda_score=float(outcome.scores[self.lambda_index, k]),
                iterations=int(outcome.iterations[k]),
                residual=float(outcome.residuals[k]),
                converged=bool(outcome.converged[k]),
                runtime_seconds=per_column,
            )
            for k in range(outcome.num_columns)
        ]


@dataclass(frozen=True)
class ExtendedSolveOutcome:
    """Solver output split into local scores and the Λ score.

    ``warm_start`` / ``iterations_saved`` carry the warm-start
    accounting of the underlying
    :class:`~repro.pagerank.solver.PowerIterationOutcome` (both
    zero/False for cold and batched solves).
    """

    local_scores: np.ndarray
    lambda_score: float
    iterations: int
    residual: float
    converged: bool
    runtime_seconds: float
    warm_start: bool = False
    iterations_saved: int = 0


def p_ideal_vector(num_global: int, num_local: int) -> np.ndarray:
    """Equation (5): the extended personalisation vector.

    ``P_ideal[i] = 1/N`` for local pages, ``(N-n)/N`` for Λ.
    """
    if not 0 < num_local < num_global:
        raise SubgraphError(
            f"need 0 < n < N, got n={num_local}, N={num_global}"
        )
    vector = np.full(num_local + 1, 1.0 / num_global, dtype=np.float64)
    vector[num_local] = (num_global - num_local) / num_global
    return vector


def collapse_personalization(
    personalization: np.ndarray,
    num_global: int,
    local_nodes: np.ndarray,
) -> np.ndarray:
    """Collapse a global personalisation vector into the extended space.

    Theorem 1's proof only uses ``Q2^T P = P_ideal``, so it holds for
    *any* global teleport distribution P, not just the uniform one —
    the collapsed vector is ``[P[local pages]..., Σ_external P]``.
    This is what makes personalised (ObjectRank base-set) subgraph
    ranking exact under IdealRank.
    """
    personalization = np.asarray(personalization, dtype=np.float64)
    if personalization.shape != (num_global,):
        raise SubgraphError(
            "personalization must cover the global graph: expected "
            f"({num_global},), got {personalization.shape}"
        )
    if np.any(personalization < 0):
        raise SubgraphError("personalization must be non-negative")
    total = personalization.sum()
    if not np.isclose(total, 1.0, rtol=0, atol=1e-8):
        raise SubgraphError(
            f"personalization must sum to 1, sums to {total!r}"
        )
    collapsed = np.empty(local_nodes.size + 1, dtype=np.float64)
    collapsed[: local_nodes.size] = personalization[local_nodes]
    collapsed[local_nodes.size] = (
        1.0 - personalization[local_nodes].sum()
    )
    np.clip(collapsed, 0.0, None, out=collapsed)
    return collapsed


def validate_external_weights(
    weights: np.ndarray,
    num_global: int,
    local_nodes: np.ndarray,
) -> np.ndarray:
    """Validate an E vector expressed over all N global positions.

    The vector must be zero on local pages, non-negative, and sum to 1
    (it is the relative importance of external pages).  Returns the
    validated float64 array.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (num_global,):
        raise SubgraphError(
            f"external weights must have shape ({num_global},), "
            f"got {weights.shape}"
        )
    if np.any(weights < 0):
        raise SubgraphError("external weights must be non-negative")
    if np.any(weights[local_nodes] != 0):
        raise SubgraphError("external weights must be zero on local pages")
    total = weights.sum()
    if not np.isclose(total, 1.0, rtol=0, atol=1e-8):
        raise SubgraphError(
            f"external weights must sum to 1, sum to {total!r}"
        )
    return weights


def build_extended_graph(
    graph: CSRGraph,
    local_nodes: Iterable[int],
    external_weights: np.ndarray,
    mode: str = "custom",
    personalization: np.ndarray | None = None,
    _transition: sparse.csr_matrix | None = None,
    _dangling_mask: np.ndarray | None = None,
) -> ExtendedLocalGraph:
    """Assemble ``G_e`` for an arbitrary external-importance vector E.

    Parameters
    ----------
    graph:
        The global graph ``G_g``.
    local_nodes:
        Global ids of the local pages (validated, deduplicated,
        sorted).
    external_weights:
        Length-N vector, zero on local pages, summing to 1: the
        relative importance of each external page (the paper's E for
        IdealRank, ``E_approx`` for ApproxRank, or anything in between
        for the Theorem 2 ablation).
    mode:
        Label recorded on the result (``"ideal"`` / ``"approx"`` /
        ``"custom"``).
    personalization:
        Optional global teleport distribution (length N, sums to 1).
        Defaults to the uniform vector of standard PageRank; a
        non-uniform P models ObjectRank base sets and personalised
        ranking, and Theorem 1 continues to hold (see
        :func:`collapse_personalization`).  Dangling pages — local and
        external — are assumed to jump according to the same P, which
        matches :func:`repro.pagerank.globalrank.global_pagerank`.
    _transition, _dangling_mask:
        Internal: a pre-built global transition matrix, supplied by
        :class:`~repro.core.precompute.ApproxRankPreprocessor` to avoid
        rebuilding it per subgraph.

    Returns
    -------
    ExtendedLocalGraph
    """
    local = normalize_node_set(graph, local_nodes)
    num_global = graph.num_nodes
    num_local = int(local.size)
    if num_local >= num_global:
        raise SubgraphError(
            "the local graph must be a proper subgraph: "
            f"n={num_local} >= N={num_global} leaves no external pages "
            "for the node Lambda to represent"
        )
    weights = validate_external_weights(external_weights, num_global, local)

    from repro.perf.cache import cached_local_block, cached_transition_matrix

    # Upper-left block plus derived vectors: memoized per (graph,
    # subgraph) — everything E-independent — so sweeping external
    # estimates over one subgraph assembles the local structure once.
    #   * local_block: global transition entries between local pages;
    #   * to_lambda: residual row mass = total probability of a local
    #     page stepping outside the subgraph (dangling local pages have
    #     zero rows here; their patched mass goes through P_ideal).
    if _transition is None or _dangling_mask is None:
        transition, dangling_mask = cached_transition_matrix(graph)
        bundle = cached_local_block(graph, local)
        local_block = bundle.local_block
        local_dangling = bundle.local_dangling
        to_lambda = bundle.to_lambda
    else:
        transition, dangling_mask = _transition, _dangling_mask
        local_block = transition[local][:, local].tocsr()
        row_sums = np.asarray(local_block.sum(axis=1)).ravel()
        local_dangling = dangling_mask[local]
        to_lambda = np.where(local_dangling, 0.0, 1.0 - row_sums)
        # Guard against -1e-17 style float residue.
        np.clip(to_lambda, 0.0, 1.0, out=to_lambda)

    # Bottom row: E-weighted average of the external pages' rows,
    # restricted to local columns.  (A^T w)[local] covers non-dangling
    # external pages; a dangling external page's patched row is the
    # teleport distribution P, so it contributes w_j * P[k] per local
    # entry (P uniform = the paper's w_j / N).
    weighted_inflow = transition.T @ weights
    dangling_external_mass = float(weights[dangling_mask].sum())
    if personalization is None:
        p_ext = p_ideal_vector(num_global, num_local)
        local_teleport = np.full(num_local, 1.0 / num_global)
    else:
        p_ext = collapse_personalization(
            personalization, num_global, local
        )
        local_teleport = np.asarray(
            personalization, dtype=np.float64
        )[local]
    lambda_row = (
        weighted_inflow[local]
        + dangling_external_mass * local_teleport
    )
    lambda_self = 1.0 - float(lambda_row.sum())
    lambda_self = max(lambda_self, 0.0)

    extended = _assemble_extended_matrix(
        local_block, to_lambda, lambda_row, lambda_self
    )

    dangling_ext = np.zeros(num_local + 1, dtype=bool)
    dangling_ext[:num_local] = local_dangling

    return ExtendedLocalGraph(
        local_nodes=local,
        transition_ext_t=csr_transpose(extended),
        dangling_mask_ext=dangling_ext,
        p_ideal=p_ext,
        num_global=num_global,
        mode=mode,
    )


def _assemble_extended_matrix(
    local_block: sparse.csr_matrix,
    to_lambda: np.ndarray,
    lambda_row: np.ndarray,
    lambda_self: float,
) -> sparse.csr_matrix:
    """Stack the four blocks of §III-B into one (n+1)×(n+1) CSR matrix."""
    num_local = local_block.shape[0]
    column = sparse.csr_matrix(to_lambda.reshape(num_local, 1))
    bottom = sparse.csr_matrix(
        np.concatenate([lambda_row, [lambda_self]]).reshape(1, num_local + 1)
    )
    top = sparse.hstack([local_block, column], format="csr")
    return sparse.vstack([top, bottom], format="csr")


def solve_to_subgraph_scores(
    extended: ExtendedLocalGraph,
    method: str,
    total_runtime: float,
    solve: ExtendedSolveOutcome,
    extras: dict | None = None,
) -> SubgraphScores:
    """Package an extended-graph solve as a harness-facing result."""
    merged_extras = {"lambda_score": solve.lambda_score}
    if solve.warm_start:
        merged_extras["warm_start"] = True
        merged_extras["iterations_saved"] = solve.iterations_saved
    if extras:
        merged_extras.update(extras)
    return SubgraphScores(
        local_nodes=extended.local_nodes.copy(),
        scores=solve.local_scores.copy(),
        method=method,
        iterations=solve.iterations,
        residual=solve.residual,
        converged=solve.converged,
        runtime_seconds=total_runtime,
        extras=merged_extras,
    )
