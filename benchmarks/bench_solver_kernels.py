#!/usr/bin/env python
"""Benchmark the solver kernel layer and emit ``BENCH_solver.json``.

Measures, on an ObjectRank-style reference workload (K personalised
walks over one web-like graph):

* K sequential single-vector solves vs one batched multi-vector solve
  (the batched kernel must win — that is the CI gate);
* cold build vs warm lookup of cached transition structures;
* per-iteration allocations of the seed-style solver step vs the
  in-place kernels;
* one global solve in float32 vs float64 (speedup recorded; the L1
  gap must stay within the documented float32 bound).

Usage::

    PYTHONPATH=src python benchmarks/bench_solver_kernels.py           # full
    PYTHONPATH=src python benchmarks/bench_solver_kernels.py --smoke   # CI gate

Exit code is non-zero when the smoke gate fails (batched slower than
K sequential solves, the kernels allocating as much as the legacy
step, or float32 outside its error bound), so CI can run this
directly.  See ``make bench-kernels-smoke``.
"""

from __future__ import annotations

import argparse
import sys

from repro.perf.bench import (
    DEFAULT_K,
    DEFAULT_OUTPUT,
    format_summary,
    run_kernel_benchmark,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark allocation-free/batched/cached solver kernels."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload + hard perf gate (CI tier-2 mode)",
    )
    parser.add_argument(
        "--pages", type=int, default=None,
        help="override the workload size (pages)",
    )
    parser.add_argument(
        "--k", type=int, default=DEFAULT_K,
        help=f"number of stacked walks (default {DEFAULT_K})",
    )
    parser.add_argument(
        "--seed", type=int, default=2009, help="RNG seed",
    )
    parser.add_argument(
        "--output", type=str, default=DEFAULT_OUTPUT,
        help=f"JSON record path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    record = run_kernel_benchmark(
        smoke=args.smoke,
        pages=args.pages,
        k=args.k,
        seed=args.seed,
        output_path=args.output,
    )
    print(format_summary(record))
    print(f"[record written to {args.output}]", file=sys.stderr)
    if args.smoke and not record["gate_passed"]:
        print(
            "SMOKE GATE FAILED: batched kernel not faster than "
            "sequential single solves, kernels allocate as much as "
            "the legacy step, or float32 left its L1 bound",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
