"""PageRank engine: transition matrices and the power-iteration solver.

This package implements standard PageRank exactly as reviewed in §II-A
of the paper — row-stochastic transition matrix from out-degrees,
damping factor ε (default 0.85), uniform personalisation, dangling-mass
redistribution, and L1-based convergence (default tolerance 1e-5) —
plus the generic solver the IdealRank/ApproxRank extended graphs reuse.

Performance layer
-----------------
All solver variants run on allocation-free kernels (preallocated
iterate/scratch buffers, scipy ``_sparsetools`` in-place sparse
mat-vecs) in float64 by default or in the float32 score mode of
:mod:`repro.pagerank.precision` (``dtype=``, ``REPRO_DTYPE``,
``--float32``).  Workloads that solve many
walks over one matrix — per-keyword ObjectRank, damping sweeps,
multiple extended personalisations — go through the batched
multi-vector solver of :mod:`repro.pagerank.batched`, and transition
matrices themselves are memoized per graph by :mod:`repro.perf.cache`.
"""

from repro.pagerank.accelerated import (
    power_iteration_adaptive,
    power_iteration_extrapolated,
)
from repro.pagerank.batched import (
    BatchedOutcome,
    batched_power_iteration,
    stack_teleports,
)
from repro.pagerank.diagnostics import ResidualTrace, residual_trace
from repro.pagerank.globalrank import global_pagerank
from repro.pagerank.kernels import (
    PowerIterationWorkspace,
    csr_matmat_dense_into,
    csr_matvec_into,
)
from repro.pagerank.linear import solve_linear_system
from repro.pagerank.localrank import local_pagerank
from repro.pagerank.precision import (
    default_dtype,
    float32_l1_bound,
    set_default_dtype,
)
from repro.pagerank.result import RankResult, SubgraphScores
from repro.pagerank.solver import PowerIterationSettings, power_iteration
from repro.pagerank.stability import (
    damping_sweep,
    edge_perturbation_study,
    perturbation_bound,
)
from repro.pagerank.transition import (
    csr_transpose,
    transition_matrix,
    transition_matrix_transpose,
)

__all__ = [
    "BatchedOutcome",
    "PowerIterationSettings",
    "PowerIterationWorkspace",
    "ResidualTrace",
    "RankResult",
    "SubgraphScores",
    "batched_power_iteration",
    "csr_matmat_dense_into",
    "csr_matvec_into",
    "csr_transpose",
    "damping_sweep",
    "default_dtype",
    "edge_perturbation_study",
    "float32_l1_bound",
    "global_pagerank",
    "local_pagerank",
    "perturbation_bound",
    "power_iteration",
    "power_iteration_adaptive",
    "power_iteration_extrapolated",
    "residual_trace",
    "set_default_dtype",
    "solve_linear_system",
    "stack_teleports",
    "transition_matrix",
    "transition_matrix_transpose",
]
