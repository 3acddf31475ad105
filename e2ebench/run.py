"""End-to-end benchmark entry point.

Run from the repository root::

    python3 e2ebench/run.py --workload offline --seed 1 --seconds 10 --trace 0

The program under test is imported from ``src/`` of the same
checkout.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``);
the lines before it describe the run for a human reader.  The exit
code is 0 only when every answer passed its output check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("offline", "serve-cold", "fleet-hot"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro  # noqa: F401 — fail before any work without the program

    from e2ebench import runner

    report = runner.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for name, metric in report["metrics"].items():
        print(f"{args.workload:>10}  {name:<40} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    print("detail " + json.dumps(report["detail"]))
    for line in report["wrong"]:
        print(f"WRONG {line}")
    print(json.dumps({
        key: report[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
