"""Solver-kernel benchmark: single vs batched vs cached.

This is the measurement harness behind
``benchmarks/bench_solver_kernels.py`` and the
``python -m repro bench-kernels`` CLI subcommand.  It times the three
legs of the performance layer on an ObjectRank-style reference
workload (K personalised walks over one web-like graph):

* **single** — K sequential :func:`repro.pagerank.solver.power_iteration`
  calls, one per teleport vector;
* **batched** — the same K walks as one
  :func:`repro.pagerank.batched.batched_power_iteration` call;
* **cache** — cold build vs warm lookup of the transition transpose
  and of a subgraph's local-block bundle through
  :class:`repro.perf.cache.TransitionCache`;
* **allocations** — ``tracemalloc`` peak memory of the iteration loop
  for the seed-style allocating step vs the in-place kernel step;
* **observability** — the sequential leg re-timed with the
  :mod:`repro.obs.telemetry` recording hooks stubbed out, gating the
  always-on instrumentation (null spans + registry counters) to <2%
  overhead;
* **float32** — one uniform global solve at float64 and in the
  float32 score mode (:mod:`repro.pagerank.precision`): seconds,
  speedup, and the L1 gap between the two, which must stay within
  :func:`~repro.pagerank.precision.float32_l1_bound`.  That accuracy
  clause is never waived; the speedup is recorded, not gated.

The record is written to ``BENCH_solver.json`` so the performance
trajectory is tracked across PRs.  In smoke mode (small graph, CI
tier-2 gate) the run *fails* — ``gate_passed`` False and exit code 1
from the script — if the batched kernel is not faster than K
independent single solves on the same workload, or if the float32
solve leaves its documented error bound.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from typing import Any

import numpy as np

from repro.generators.datasets import make_au_like
from repro.obs import telemetry
from repro.pagerank.batched import batched_power_iteration
from repro.pagerank.kernels import (
    SPARSETOOLS_AVAILABLE,
    PowerIterationWorkspace,
    run_power_loop,
)
from repro.pagerank.precision import float32_l1_bound
from repro.pagerank.solver import (
    PowerIterationSettings,
    power_iteration,
    uniform_teleport,
)
from repro.perf.cache import TransitionCache

#: Default record location (repo root when run from the checkout).
DEFAULT_OUTPUT = "BENCH_solver.json"

#: Reference workload sizes.
FULL_PAGES = 30_000
SMOKE_PAGES = 4_000
DEFAULT_K = 8

#: Iterations used for the allocation measurement (fixed, so both
#: loops do identical arithmetic work).
ALLOC_ITERATIONS = 30

#: Timed repetitions per leg; the best run is reported.
TIMING_REPS = 3


def _objectrank_style_teleports(
    num_nodes: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """K base-set personalisation vectors (1% of pages each)."""
    teleports = np.zeros((num_nodes, k), dtype=np.float64)
    base_size = max(4, num_nodes // 100)
    for column in range(k):
        base = rng.choice(num_nodes, size=base_size, replace=False)
        teleports[base, column] = 1.0 / base_size
    return teleports


def _legacy_power_loop(
    transition_t,
    teleport: np.ndarray,
    dangling_indices: np.ndarray,
    damping: float,
    iterations: int,
) -> np.ndarray:
    """The seed solver's allocating step, for the allocation baseline.

    This replicates the pre-kernel implementation: three fresh arrays
    per iteration (mat-vec result, dangling term, residual).
    """
    base = (1.0 - damping) * teleport
    x = teleport.copy()
    for _ in range(iterations):
        mass = (
            float(x[dangling_indices].sum())
            if dangling_indices.size else 0.0
        )
        x_next = damping * (transition_t @ x)
        if mass:
            x_next += damping * mass * teleport
        x_next += base
        x_next /= x_next.sum()
        _residual = float(np.abs(x_next - x).sum())
        x = x_next
    return x


def _measure_peak_bytes(fn) -> int:
    """Peak tracemalloc memory (bytes) allocated while ``fn`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return max(0, peak - before)


def run_kernel_benchmark(
    smoke: bool = False,
    pages: int | None = None,
    k: int = DEFAULT_K,
    seed: int = 2009,
    output_path: str | None = DEFAULT_OUTPUT,
) -> dict[str, Any]:
    """Run the solver-kernel benchmark and (optionally) write the record.

    Parameters
    ----------
    smoke:
        Small graph + hard gate: the record's ``gate_passed`` is the
        CI criterion (batched strictly faster than sequential).
    pages:
        Override the workload size.
    k:
        Number of stacked walks (the paper-style per-keyword batch).
    seed:
        RNG seed for the graph and the base sets.
    output_path:
        Where to write the JSON record; ``None`` skips writing.

    Returns
    -------
    The record that was (or would have been) written.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    num_pages = pages if pages is not None else (
        SMOKE_PAGES if smoke else FULL_PAGES
    )
    rng = np.random.default_rng(seed)
    dataset = make_au_like(num_pages=num_pages, seed=seed)
    graph = dataset.graph
    settings = PowerIterationSettings()

    # A private cache so the benchmark controls cold/warm transitions.
    cache = TransitionCache()
    cold_start = time.perf_counter()
    transition_t, dangling_mask = cache.transition_transpose(graph)
    cold_build = time.perf_counter() - cold_start
    warm_start = time.perf_counter()
    cache.transition_transpose(graph)
    warm_lookup = time.perf_counter() - warm_start

    teleports = _objectrank_style_teleports(graph.num_nodes, k, rng)

    # Both legs are timed after one untimed warm-up run (first-call
    # costs — lazy imports, ufunc setup, page faults on fresh buffers
    # — belong to neither side) and reported as the best of
    # ``TIMING_REPS`` repetitions to damp scheduler noise.
    workspace = PowerIterationWorkspace(graph.num_nodes)

    def run_single():
        return [
            power_iteration(
                transition_t,
                teleport=teleports[:, column],
                dangling_mask=dangling_mask,
                settings=settings,
                workspace=workspace,
            )
            for column in range(k)
        ]

    def run_batched():
        return batched_power_iteration(
            transition_t,
            teleports=teleports,
            dangling_mask=dangling_mask,
            settings=settings,
        )

    run_single()
    run_batched()
    single_seconds = batched_seconds = float("inf")
    for _ in range(TIMING_REPS):
        single_start = time.perf_counter()
        single_outcomes = run_single()
        single_seconds = min(
            single_seconds, time.perf_counter() - single_start
        )
        batched_start = time.perf_counter()
        batched = run_batched()
        batched_seconds = min(
            batched_seconds, time.perf_counter() - batched_start
        )
    single_iterations = sum(o.iterations for o in single_outcomes)

    max_l1_gap = float(
        max(
            np.abs(
                batched.scores[:, column] - single_outcomes[column].scores
            ).sum()
            for column in range(k)
        )
    )
    speedup = single_seconds / batched_seconds if batched_seconds else float("inf")

    # --- local-block cache: cold vs warm -----------------------------
    local_nodes = np.sort(
        rng.choice(
            graph.num_nodes,
            size=max(16, graph.num_nodes // 20),
            replace=False,
        )
    ).astype(np.int64)
    block_cold_start = time.perf_counter()
    cache.local_block(graph, local_nodes)
    block_cold = time.perf_counter() - block_cold_start
    block_warm_start = time.perf_counter()
    cache.local_block(graph, local_nodes)
    block_warm = time.perf_counter() - block_warm_start

    # --- per-iteration allocations: seed-style step vs kernels -------
    dangling_indices = np.flatnonzero(dangling_mask)
    uniform = np.full(graph.num_nodes, 1.0 / graph.num_nodes)
    # Warm both paths once so lazy buffers/imports don't count.
    _legacy_power_loop(
        transition_t, uniform, dangling_indices, settings.damping, 2
    )
    alloc_workspace = PowerIterationWorkspace(graph.num_nodes)
    base = (1.0 - settings.damping) * uniform
    alloc_workspace.ensure_gather(max(1, dangling_indices.size))

    def kernel_loop() -> None:
        np.copyto(alloc_workspace.x, uniform)
        run_power_loop(
            transition_t,
            damping=settings.damping,
            base=base,
            dangling_indices=dangling_indices,
            dangling_dist=uniform,
            tolerance=0.0,  # unreachable: fixed iteration count
            max_iterations=ALLOC_ITERATIONS,
            workspace=alloc_workspace,
        )

    # --- observability overhead: instrumented vs bare ----------------
    # The solver layer reports every solve through
    # :mod:`repro.obs.telemetry` (a few locked dict updates per solve)
    # and crosses null-span sites; the contract (DESIGN.md §9) is that
    # this always-on path stays within 2% of solve time.  Measure it
    # by re-timing the sequential leg with the recording hooks stubbed
    # to no-ops, best-of-reps on both sides to damp scheduler noise.
    def _noop(*args, **kwargs):
        return None

    hook_names = (
        "record_solve",
        "record_batched_solve",
        "record_divergence",
        "record_safe_restart",
        "record_workspace_allocation",
    )
    saved_hooks = {name: getattr(telemetry, name) for name in hook_names}
    instrumented_seconds = single_seconds
    bare_seconds = float("inf")
    try:
        for name in hook_names:
            setattr(telemetry, name, _noop)
        run_single()  # warm-up with the hooks stubbed
        for _ in range(TIMING_REPS):
            bare_start = time.perf_counter()
            run_single()
            bare_seconds = min(
                bare_seconds, time.perf_counter() - bare_start
            )
    finally:
        for name, fn in saved_hooks.items():
            setattr(telemetry, name, fn)
    obs_overhead_pct = (
        (instrumented_seconds - bare_seconds) / bare_seconds * 100.0
        if bare_seconds > 0
        else 0.0
    )
    # 2% relative, with a 5ms absolute noise floor for tiny smoke
    # workloads where a single scheduler blip exceeds 2%.
    obs_gate_passed = bool(
        instrumented_seconds <= bare_seconds * 1.02
        or instrumented_seconds - bare_seconds <= 0.005
    )

    kernel_loop()  # warm-up
    legacy_peak = _measure_peak_bytes(
        lambda: _legacy_power_loop(
            transition_t,
            uniform,
            dangling_indices,
            settings.damping,
            ALLOC_ITERATIONS,
        )
    )
    kernel_peak = _measure_peak_bytes(kernel_loop)

    # --- float32 score mode vs float64 -------------------------------
    # One uniform global solve at each precision, best of reps after a
    # warm-up (the warm-up also pays the memoised float32 cast and
    # degree relabel, which every later solve on this matrix reuses).
    def timed_global(dtype: str):
        solve_workspace = PowerIterationWorkspace(
            graph.num_nodes, dtype=dtype
        )
        best = float("inf")
        outcome = None
        for rep in range(TIMING_REPS + 1):
            solve_start = time.perf_counter()
            outcome = power_iteration(
                transition_t,
                teleport=uniform,
                dangling_mask=dangling_mask,
                settings=settings,
                workspace=solve_workspace,
                dtype=dtype,
            )
            if rep:
                best = min(best, time.perf_counter() - solve_start)
        return best, outcome

    uniform = uniform_teleport(graph.num_nodes)
    f64_seconds, f64_outcome = timed_global("float64")
    f32_seconds, f32_outcome = timed_global("float32")
    f32_gap = float(np.abs(f32_outcome.scores - f64_outcome.scores).sum())
    f32_bound = float32_l1_bound(
        graph.num_nodes, settings.tolerance, settings.damping
    )
    f32_within_bound = bool(f32_gap <= f32_bound)

    gate_passed = (
        bool(speedup > 1.0)
        and bool(kernel_peak < legacy_peak)
        and obs_gate_passed
        and f32_within_bound
    )
    record: dict[str, Any] = {
        "benchmark": "solver_kernels",
        "created_unix": time.time(),
        "smoke": bool(smoke),
        "sparsetools_kernels": bool(SPARSETOOLS_AVAILABLE),
        "workload": {
            "pages": int(graph.num_nodes),
            "edges": int(graph.num_edges),
            "k": int(k),
            "seed": int(seed),
            "damping": settings.damping,
            "tolerance": settings.tolerance,
        },
        "single": {
            "seconds": single_seconds,
            "total_iterations": int(single_iterations),
            "iterations_per_second": (
                single_iterations / single_seconds if single_seconds else 0.0
            ),
        },
        "batched": {
            "seconds": batched_seconds,
            "matrix_sweeps": int(batched.sweeps),
            "column_iterations": int(batched.iterations.sum()),
            "speedup_vs_single": speedup,
            "max_l1_gap_vs_single": max_l1_gap,
            "column_iterations_per_second": (
                float(batched.iterations.sum()) / batched_seconds
                if batched_seconds else 0.0
            ),
        },
        "cache": {
            "transpose_cold_seconds": cold_build,
            "transpose_warm_seconds": warm_lookup,
            "transpose_speedup": (
                cold_build / warm_lookup if warm_lookup else float("inf")
            ),
            "local_block_cold_seconds": block_cold,
            "local_block_warm_seconds": block_warm,
            "hits": cache.stats().hits,
            "misses": cache.stats().misses,
        },
        "allocations": {
            "iterations_measured": ALLOC_ITERATIONS,
            "legacy_peak_bytes": int(legacy_peak),
            "kernel_peak_bytes": int(kernel_peak),
            "legacy_per_iteration_bytes": legacy_peak / ALLOC_ITERATIONS,
            "kernel_per_iteration_bytes": kernel_peak / ALLOC_ITERATIONS,
        },
        "observability": {
            "instrumented_seconds": instrumented_seconds,
            "bare_seconds": bare_seconds,
            "overhead_pct": obs_overhead_pct,
            "gate_passed": obs_gate_passed,
        },
        "float32": {
            "float64_seconds": f64_seconds,
            "seconds": f32_seconds,
            "speedup_vs_float64": (
                f64_seconds / f32_seconds if f32_seconds else float("inf")
            ),
            "float64_iterations": int(f64_outcome.iterations),
            "iterations": int(f32_outcome.iterations),
            "l1_gap_vs_float64": f32_gap,
            "l1_bound": f32_bound,
            "within_bound": f32_within_bound,
        },
        "gate_passed": gate_passed,
    }
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=False)
            handle.write("\n")
    return record


def format_summary(record: dict[str, Any]) -> str:
    """Human-readable one-screen summary of a benchmark record."""
    single = record["single"]
    batched = record["batched"]
    cache = record["cache"]
    alloc = record["allocations"]
    lines = [
        f"solver kernel benchmark "
        f"({record['workload']['pages']} pages, "
        f"{record['workload']['edges']} edges, "
        f"K={record['workload']['k']}"
        f"{', smoke' if record['smoke'] else ''})",
        f"  single  : {single['seconds']:.3f}s "
        f"({single['total_iterations']} iterations)",
        f"  batched : {batched['seconds']:.3f}s "
        f"({batched['matrix_sweeps']} sweeps) — "
        f"{batched['speedup_vs_single']:.2f}x vs sequential, "
        f"max L1 gap {batched['max_l1_gap_vs_single']:.2e}",
        f"  cache   : transpose {cache['transpose_cold_seconds']*1e3:.1f}ms cold "
        f"→ {cache['transpose_warm_seconds']*1e6:.0f}µs warm; "
        f"local block {cache['local_block_cold_seconds']*1e3:.1f}ms cold "
        f"→ {cache['local_block_warm_seconds']*1e6:.0f}µs warm",
        f"  allocs  : {alloc['legacy_per_iteration_bytes']/1024:.0f} KiB/iter legacy "
        f"→ {alloc['kernel_per_iteration_bytes']/1024:.1f} KiB/iter kernels",
    ]
    observability = record.get("observability")
    if observability:
        delta_ms = (
            observability["instrumented_seconds"]
            - observability["bare_seconds"]
        ) * 1e3
        lines.append(
            f"  obs     : {observability['overhead_pct']:+.2f}% "
            f"({delta_ms:+.2f}ms) telemetry overhead on the sequential "
            f"leg ({'PASS' if observability['gate_passed'] else 'FAIL'}: "
            f"budget 2% with a 5ms noise floor)"
        )
    f32 = record.get("float32")
    if f32:
        lines.append(
            f"  float32 : {f32['seconds']*1e3:.1f}ms vs "
            f"{f32['float64_seconds']*1e3:.1f}ms float64 — "
            f"{f32['speedup_vs_float64']:.2f}x, L1 gap "
            f"{f32['l1_gap_vs_float64']:.2e} (bound {f32['l1_bound']:.2e} "
            f"{'OK' if f32['within_bound'] else 'EXCEEDED'})"
        )
    lines.append(
        f"  gate    : {'PASS' if record['gate_passed'] else 'FAIL'}"
    )
    return "\n".join(lines)
