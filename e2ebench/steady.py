"""Steadiness self-check: run each workload N times, one seed each.

Run from the repository root::

    python3 e2ebench/steady.py --runs 10 [--workloads offline,fleet-hot]

For every end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the
relative spread ``(q3 - q1) / median``, and flags a spread above the
metric's bound in ``BENCHMARK.json`` (``OVER``) or above a third of it
(``warn``).  The exit code is 1 when any metric is ``OVER`` or any run
failed.  Raw values go to ``.e2ebench_out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, q1, q3 and (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(ROOT / "e2ebench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}: "
            f"{done.stderr[-2000:]}{done.stdout[-2000:]}"
        )
    detail = [line for line in lines if line.startswith("detail ")]
    return json.loads(lines[-1]), detail[0] if detail else ""


def main(argv: list[str] | None = None) -> int:
    record = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in record["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=record["run_seconds"])
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in record["workloads"]),
    )
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("quartiles need at least 3 runs")

    raw: dict[str, dict[str, list[float]]] = {}
    flagged = failed = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.monotonic()
            result, detail = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                failed += 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            took = time.monotonic() - started
            print(f"# {workload} seed {seed}: {took:.1f}s"
                  f" correct={result['correct']} failed={result['failed']}"
                  f" {detail}", flush=True)
        raw[workload] = values
        print(f"{'workload':<11} {'metric':<20} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
        for name, series in values.items():
            median, q1, q3, rel = spread(series)
            bound = bounds[name]
            flag = "OVER" if rel > bound else "warn" if rel > bound / 3 else ""
            flagged += flag == "OVER"
            print(f"{workload:<11} {name:<20} {median:>12.5g} {q1:>12.5g} "
                  f"{q3:>12.5g} {rel:>8.4f} {bound:>6.2f} {flag}", flush=True)
    out = ROOT / ".e2ebench_out" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1) + "\n")
    print(f"raw values: {out}")
    return 1 if flagged or failed else 0


if __name__ == "__main__":
    sys.exit(main())
