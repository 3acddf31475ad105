"""Benchmark-record diffing: regression reports across PRs.

Every benchmark harness in :mod:`repro.perf` persists its record as a
JSON file in the repo root (``BENCH_solver.json``,
``BENCH_parallel.json``, ``BENCH_update.json``, ...).  Those files
are committed, so the performance trajectory lives in git history —
but eyeballing two JSON blobs for "did this PR slow anything down?"
does not scale.  This module turns a pair of records into a focused
regression report:

* every **numeric leaf** present in both records is compared by its
  JSON path;
* direction is inferred from the metric name — wall-clock fields
  (``*seconds*``) regress when they grow, rate/speedup fields
  (``*speedup*``, ``*_per_second``) regress when they shrink, and
  everything else (sizes, counts, bounds) is reported as neutral
  change only — unless the record's benchmark registers an override
  in :data:`_DIRECTION_OVERRIDES` (the estimation benchmark's
  ``error*`` and ``edges_touched`` leaves are lower-is-better, not
  neutral counts);
* changes smaller than the noise ``threshold`` (relative) are
  suppressed, because best-of-N timings on shared CI boxes still
  wobble a few percent.

The CLI front end is ``python -m repro bench-diff OLD.json NEW.json``;
``--strict`` turns regressions (or a lost gate) into exit code 1 for
CI use.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["diff_records", "format_diff", "load_record"]

#: Default relative change below which a metric is considered noise.
DEFAULT_THRESHOLD = 0.10

#: Path components whose values are timestamps, not metrics.
_IGNORED_LEAVES = ("created_unix",)


def load_record(path: str) -> dict[str, Any]:
    """Load one benchmark record from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if not isinstance(record, dict):
        raise ValueError(f"{path}: benchmark record must be an object")
    return record


def _numeric_leaves(node: Any, path: str = "") -> dict[str, float]:
    """Flatten a record to ``{json.path: value}`` over numeric leaves.

    Booleans are excluded (gates are compared separately); list items
    are keyed by a discriminating label when present (``family``,
    ``estimator``, ``workers``, ``gate``) so sweep entries line up
    across records even if their order or length changes.
    """
    leaves: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            if key in _IGNORED_LEAVES:
                continue
            sub = f"{path}.{key}" if path else str(key)
            leaves.update(_numeric_leaves(value, sub))
    elif isinstance(node, (list, tuple)):
        for index, item in enumerate(node):
            label = str(index)
            if isinstance(item, dict):
                if "family" in item:
                    label = str(item["family"])
                elif "estimator" in item and "walks" in item:
                    label = f"{item['estimator']}/walks={item['walks']}"
                elif "estimator" in item and "r_max" in item:
                    label = f"{item['estimator']}/r_max={item['r_max']:g}"
                elif "workers" in item:
                    label = f"workers={item['workers']}"
                elif "gate" in item:
                    label = str(item["gate"])
            leaves.update(_numeric_leaves(item, f"{path}[{label}]"))
    elif isinstance(node, bool):
        pass
    elif isinstance(node, (int, float)):
        leaves[path] = float(node)
    return leaves


#: Per-benchmark direction metadata, keyed by the record's
#: ``"benchmark"`` name, then by a substring of the leaf name.  Looked
#: up before the generic name heuristics: the estimation benchmark's
#: error and edges-touched leaves are quality/cost axes of its Pareto
#: sweep, and a growth in either is a genuine regression.
_DIRECTION_OVERRIDES: dict[str, dict[str, str]] = {
    "estimation": {
        "error": "lower",
        "edges_touched": "lower",
        "edges_fraction": "lower",
    },
    # The semantic diversity benchmark: similarity/recall axes are
    # quality (higher is better); latency, edge cost, redundancy of
    # the answer set, and errors are costs (lower is better).
    "semantic": {
        "similarity": "higher",
        "recall": "higher",
        "latency": "lower",
        "edges": "lower",
        "error": "lower",
        "redundancy": "lower",
    },
}


def _direction(path: str, benchmark: str = "?") -> str:
    """``lower`` / ``higher`` is better, or ``neutral``."""
    leaf = path.rsplit(".", 1)[-1].lower()
    for token, direction in _DIRECTION_OVERRIDES.get(
        benchmark, {}
    ).items():
        if token in leaf:
            return direction
    if "speedup" in leaf or "per_second" in leaf:
        return "higher"
    if "seconds" in leaf or "bytes" in leaf or "overhead" in leaf:
        return "lower"
    return "neutral"


def diff_records(
    old: dict[str, Any],
    new: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> dict[str, Any]:
    """Compare two benchmark records of the same benchmark.

    Returns a report dict with ``regressions``, ``improvements`` and
    ``neutral`` change lists (each entry: path, old, new, change_pct),
    the metrics only present on one side, and the gate transition.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    old_name = old.get("benchmark", "?")
    new_name = new.get("benchmark", "?")
    old_leaves = _numeric_leaves(old)
    new_leaves = _numeric_leaves(new)
    regressions: list[dict[str, Any]] = []
    improvements: list[dict[str, Any]] = []
    neutral: list[dict[str, Any]] = []
    for path in sorted(old_leaves.keys() & new_leaves.keys()):
        before, after = old_leaves[path], new_leaves[path]
        if before == after:
            continue
        if before == 0.0:
            change = float("inf") if after > 0 else float("-inf")
        else:
            change = (after - before) / abs(before)
        if abs(change) < threshold:
            continue
        entry = {
            "metric": path,
            "old": before,
            "new": after,
            "change_pct": change * 100.0,
        }
        direction = _direction(path, benchmark=new_name)
        if direction == "neutral":
            neutral.append(entry)
        elif (direction == "lower") == (after > before):
            regressions.append(entry)
        else:
            improvements.append(entry)
    regressions.sort(key=lambda e: -abs(e["change_pct"]))
    improvements.sort(key=lambda e: -abs(e["change_pct"]))
    return {
        "benchmark": new_name,
        "comparable": old_name == new_name,
        "threshold_pct": threshold * 100.0,
        "regressions": regressions,
        "improvements": improvements,
        "neutral": neutral,
        "only_in_old": sorted(old_leaves.keys() - new_leaves.keys()),
        "only_in_new": sorted(new_leaves.keys() - old_leaves.keys()),
        "gate_old": bool(old.get("gate_passed", False)),
        "gate_new": bool(new.get("gate_passed", False)),
        "gate_lost": bool(old.get("gate_passed", False))
        and not bool(new.get("gate_passed", False)),
    }


def _format_entries(title: str, entries: list, sign: str) -> list[str]:
    lines = [f"  {title}:"]
    for entry in entries:
        lines.append(
            f"    {sign} {entry['metric']}: "
            f"{entry['old']:.6g} -> {entry['new']:.6g} "
            f"({entry['change_pct']:+.1f}%)"
        )
    return lines


def format_diff(report: dict[str, Any]) -> str:
    """Human-readable regression report."""
    lines = [
        f"benchmark diff ({report['benchmark']}, "
        f"noise threshold {report['threshold_pct']:.0f}%)"
    ]
    if not report["comparable"]:
        lines.append(
            "  WARNING: records are from different benchmarks; "
            "overlapping metrics only"
        )
    if report["regressions"]:
        lines += _format_entries(
            f"regressions ({len(report['regressions'])})",
            report["regressions"],
            "-",
        )
    if report["improvements"]:
        lines += _format_entries(
            f"improvements ({len(report['improvements'])})",
            report["improvements"],
            "+",
        )
    if report["neutral"]:
        lines += _format_entries(
            f"neutral changes ({len(report['neutral'])})",
            report["neutral"],
            "~",
        )
    for side, paths in (
        ("old", report["only_in_old"]),
        ("new", report["only_in_new"]),
    ):
        if paths:
            lines.append(
                f"  only in {side}: {len(paths)} metric(s) "
                f"(e.g. {paths[0]})"
            )
    if not (
        report["regressions"]
        or report["improvements"]
        or report["neutral"]
    ):
        lines.append("  no changes above the noise threshold")
    lines.append(
        "  gate    : {} -> {}{}".format(
            "PASS" if report["gate_old"] else "FAIL",
            "PASS" if report["gate_new"] else "FAIL",
            "  (REGRESSED)" if report["gate_lost"] else "",
        )
    )
    return "\n".join(lines)
