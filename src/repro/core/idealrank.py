"""IdealRank (§III): exact subgraph PageRank from known external scores.

IdealRank assumes the PageRank scores of all external pages are known —
the scenario where the global graph was ranked before, and either the
subgraph is the only updated region or it is being re-ranked under a
personalised (ObjectRank-style) authority transfer.  Theorem 1
guarantees the local scores equal the true global PageRank scores and
the Λ score equals the summed external mass; the test suite asserts
both to floating-point accuracy.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from repro.core.extended import (
    build_extended_graph,
    solve_to_subgraph_scores,
)
from repro.core.external import weights_from_scores
from repro.graph.digraph import CSRGraph
from repro.pagerank.result import SubgraphScores
from repro.pagerank.solver import PowerIterationSettings


def idealrank(
    graph: CSRGraph,
    local_nodes: Iterable[int],
    external_scores: np.ndarray,
    settings: PowerIterationSettings | None = None,
    personalization: np.ndarray | None = None,
    initial: np.ndarray | None = None,
    dtype=None,
) -> SubgraphScores:
    """Compute IdealRank scores for the local pages.

    Parameters
    ----------
    graph:
        The global graph ``G_g``.
    local_nodes:
        Global ids of the local pages (the subgraph ``G_l``).
    external_scores:
        Length-N vector of known scores; only the external entries are
        read (Equation (4) normalises them by ``EXTSum``).  Pass a
        previously computed global PageRank vector for the paper's
        exact-recovery setting.
    settings:
        Solver knobs (paper defaults when omitted).
    personalization:
        Optional global teleport distribution (length N); Theorem 1
        holds for any P (ObjectRank base sets, personalised ranking),
        provided ``external_scores`` came from a walk with the same P.
    initial:
        Optional length-(n+1) warm-start vector in the extended space
        (local scores then Λ); used by the incremental re-ranking
        engine to skip cold-start burn-in sweeps.
    dtype:
        Sweep precision forwarded to the solver (``None`` = process
        default); the incremental re-ranking engine passes its own.

    Returns
    -------
    SubgraphScores
        Local scores (equal to the true global PageRank restricted to
        the subgraph, by Theorem 1) with ``extras["lambda_score"]``
        holding Λ's converged score (the summed external mass).
    """
    start = time.perf_counter()
    local = np.asarray(sorted(set(int(v) for v in local_nodes)), dtype=np.int64)
    weights = weights_from_scores(graph, local, external_scores)
    extended = build_extended_graph(
        graph, local, weights, mode="ideal",
        personalization=personalization,
    )
    solve = extended.solve(settings, initial=initial, dtype=dtype)
    runtime = time.perf_counter() - start
    return solve_to_subgraph_scores(
        extended, method="idealrank", total_runtime=runtime, solve=solve
    )


def rank_with_external_weights(
    graph: CSRGraph,
    local_nodes: Iterable[int],
    external_weights: np.ndarray,
    settings: PowerIterationSettings | None = None,
    method: str = "extended-rank",
    personalization: np.ndarray | None = None,
    initial: np.ndarray | None = None,
) -> SubgraphScores:
    """Run the extended-graph random walk under an arbitrary E vector.

    This is the generalised entry point behind both IdealRank and
    ApproxRank: anything that sums to 1 over external pages is a valid
    relative-importance estimate, and Theorem 2 bounds the resulting
    error by ``ε/(1-ε) · ‖E − E_estimate‖₁``.  The ablation benchmark
    uses it with blended and in-degree-based estimates.

    Parameters
    ----------
    external_weights:
        Length-N vector, zero on local pages, summing to 1.
    method:
        Label recorded on the result.
    personalization:
        Optional global teleport distribution (length N); collapsed
        into the extended walk (uniform when omitted).
    """
    start = time.perf_counter()
    extended = build_extended_graph(
        graph, local_nodes, external_weights, mode="custom",
        personalization=personalization,
    )
    solve = extended.solve(settings, initial=initial)
    runtime = time.perf_counter() - start
    return solve_to_subgraph_scores(
        extended, method=method, total_runtime=runtime, solve=solve
    )
