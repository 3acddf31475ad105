"""Observability sinks: JSON snapshots, Prometheus text, report tables.

Three output formats off the same data:

* :func:`build_snapshot` — a JSON-safe dict bundling the metrics
  registry, the active tracer's span tree and the solver telemetry
  history.  :func:`write_snapshot` serialises it to disk; this is what
  ``python -m repro all --obs-out obs.json`` writes.
* :func:`to_prometheus_text` — the Prometheus text exposition format
  (``# HELP``/``# TYPE``, cumulative ``_bucket{le=...}`` plus
  ``_sum``/``_count`` for histograms) rendered from a metrics
  snapshot, for scraping or diffing against a golden file.
* :func:`render_report` — a human-readable summary (cache hit rate,
  executor retries/fallbacks, per-solver iteration tables, indented
  span tree) used by ``python -m repro obs-report obs.json``.

Everything operates on snapshot *payloads*, so reports can be rendered
from a file written by a different process or an earlier run.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path
from typing import Any, Mapping

from repro.obs import state, telemetry, tracing
from repro.obs.metrics import REGISTRY, MetricsRegistry

__all__ = [
    "SNAPSHOT_SCHEMA",
    "build_snapshot",
    "write_snapshot",
    "load_snapshot",
    "to_prometheus_text",
    "parse_prometheus_text",
    "render_report",
]

#: Version tag embedded in snapshots so future readers can migrate.
SNAPSHOT_SCHEMA = 1


def build_snapshot(registry: MetricsRegistry | None = None) -> dict:
    """Bundle metrics + span tree + solve history into one payload."""
    reg = registry if registry is not None else REGISTRY
    return {
        "schema": SNAPSHOT_SCHEMA,
        "generated_unix": time.time(),
        "obs_enabled": state.enabled(),
        "metrics": reg.snapshot(),
        "spans": tracing.get_tracer().to_payload(),
        "solve_history": telemetry.history_payload(),
    }


def write_snapshot(
    path: str | Path, registry: MetricsRegistry | None = None
) -> dict:
    """Write :func:`build_snapshot` to ``path`` as JSON; return it."""
    snapshot = build_snapshot(registry)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(snapshot, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    return snapshot


def load_snapshot(path: str | Path) -> dict:
    """Read a snapshot previously written by :func:`write_snapshot`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "metrics" not in payload:
        raise ValueError(f"{path} is not a repro obs snapshot")
    return payload


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{k}="{_escape_label_value(str(v))}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    """Render integers without a trailing ``.0`` (Prometheus style)."""
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _format_bound(bound: float) -> str:
    return _format_value(bound)


def to_prometheus_text(metrics_snapshot: Mapping) -> str:
    """Render a registry snapshot in the Prometheus text format.

    Families and samples come out in the snapshot's (sorted) order, so
    the output for a fixed workload is deterministic — the golden-file
    test relies on this.
    """
    lines: list[str] = []
    for name, family in metrics_snapshot.get("families", {}).items():
        kind = family["kind"]
        help_text = family.get("help") or ""
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            bounds = family.get("buckets") or []
            for sample in family["samples"]:
                labels = sample["labels"]
                cumulative = 0
                for bound, count in zip(bounds, sample["bucket_counts"]):
                    cumulative += count
                    label_str = _format_labels(
                        labels, f'le="{_format_bound(bound)}"'
                    )
                    lines.append(
                        f"{name}_bucket{label_str} {cumulative}"
                    )
                cumulative += sample["bucket_counts"][-1]
                label_str = _format_labels(labels, 'le="+Inf"')
                lines.append(f"{name}_bucket{label_str} {cumulative}")
                plain = _format_labels(labels)
                lines.append(
                    f"{name}_sum{plain} {_format_value(sample['sum'])}"
                )
                lines.append(f"{name}_count{plain} {sample['count']}")
        else:
            for sample in family["samples"]:
                label_str = _format_labels(sample["labels"])
                lines.append(
                    f"{name}{label_str} {_format_value(sample['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


#: One exposition sample line: ``name{labels} value``.
_SAMPLE_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)

#: One ``key="value"`` pair inside a label block (value may contain
#: escaped quotes/backslashes/newlines).
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def _unescape_label_value(value: str) -> str:
    return re.sub(
        r"\\(.)",
        lambda m: {"n": "\n"}.get(m.group(1), m.group(1)),
        value,
    )


def _parse_labels(block: str | None) -> dict[str, str]:
    if not block:
        return {}
    return {
        key: _unescape_label_value(raw)
        for key, raw in _LABEL_PAIR_RE.findall(block)
    }


def parse_prometheus_text(text: str) -> dict:
    """Parse the Prometheus text exposition back into snapshot form.

    The inverse of :func:`to_prometheus_text`: the return value has
    the same ``{"families": {name: {kind, help, buckets, samples}}}``
    shape as :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, so
    ``parse_prometheus_text(to_prometheus_text(snap)) == snap
    ["families"]``-wise — the round-trip the golden-file test (and the
    serving smoke test's ``/metrics`` scrape) asserts.  Histogram
    ``_bucket`` lines are de-cumulated back into per-bucket counts
    (the final slot is the implicit ``+Inf`` bucket).
    """
    families: dict[str, dict] = {}
    # Histogram reassembly state: (family, frozen labels) -> parts.
    histogram_parts: dict[tuple[str, tuple], dict] = {}

    def family_for(name: str) -> dict:
        return families.setdefault(
            name,
            {"kind": "", "help": "", "buckets": None, "samples": []},
        )

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            family_for(name)["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            family_for(name)["kind"] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE_RE.match(line)
        if match is None:
            raise ValueError(
                f"unparseable exposition line: {line!r}"
            )
        name = match.group("name")
        labels = _parse_labels(match.group("labels"))
        value = float(match.group("value"))

        base = None
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                candidate = name[: -len(suffix)]
                if families.get(candidate, {}).get("kind") == (
                    "histogram"
                ):
                    base = (candidate, suffix)
                    break
        if base is not None:
            family_name, suffix = base
            le = labels.pop("le", None)
            key = (family_name, tuple(sorted(labels.items())))
            parts = histogram_parts.setdefault(
                key,
                {"labels": labels, "cumulative": [], "sum": 0.0,
                 "count": 0},
            )
            if suffix == "_bucket":
                parts["cumulative"].append((le, value))
            elif suffix == "_sum":
                parts["sum"] = value
            else:
                parts["count"] = int(value)
            continue

        family = family_for(name)
        family["samples"].append({"labels": labels, "value": value})

    for (family_name, _), parts in histogram_parts.items():
        family = families[family_name]
        finite = [
            float(le) for le, _ in parts["cumulative"]
            if le not in ("+Inf", None)
        ]
        if family["buckets"] is None:
            family["buckets"] = finite
        counts: list[int] = []
        previous = 0
        for _, cumulative in parts["cumulative"]:
            counts.append(int(cumulative) - previous)
            previous = int(cumulative)
        family["samples"].append(
            {
                "labels": parts["labels"],
                "count": parts["count"],
                "sum": parts["sum"],
                "bucket_counts": counts,
            }
        )

    for family in families.values():
        family["samples"].sort(
            key=lambda sample: tuple(sorted(sample["labels"].items()))
        )
    return {"families": dict(sorted(families.items()))}


# ----------------------------------------------------------------------
# Human-readable report
# ----------------------------------------------------------------------


def _sample_map(metrics: Mapping, name: str) -> list[dict]:
    family = metrics.get("families", {}).get(name)
    if not family:
        return []
    return family["samples"]


def _metric_total(metrics: Mapping, name: str, **match: str) -> float:
    total = 0.0
    for sample in _sample_map(metrics, name):
        labels = sample["labels"]
        if all(labels.get(k) == v for k, v in match.items()):
            total += sample.get("value", 0.0)
    return total


def _cache_section(metrics: Mapping) -> list[str]:
    hits = _metric_total(metrics, "repro_cache_hits_total")
    misses = _metric_total(metrics, "repro_cache_misses_total")
    evictions = _metric_total(metrics, "repro_cache_evictions_total")
    total = hits + misses
    if total == 0 and evictions == 0:
        return []
    rate = hits / total if total else 0.0
    return [
        "Transition cache",
        f"  hits {int(hits)}  misses {int(misses)}  "
        f"evictions {int(evictions)}  hit-rate {rate:.1%}",
    ]


def _executor_section(metrics: Mapping) -> list[str]:
    rows = []
    for label, name in (
        ("chunks completed", "repro_executor_chunks_completed_total"),
        ("chunk attempts", "repro_executor_chunk_attempts_total"),
        ("retries", "repro_executor_retries_total"),
        ("timeouts", "repro_executor_timeouts_total"),
        ("pool rebuilds", "repro_executor_pool_rebuilds_total"),
        ("serial fallback chunks", "repro_executor_serial_fallback_total"),
        ("backoff sleeps", "repro_executor_backoff_sleeps_total"),
    ):
        value = _metric_total(metrics, name)
        if value:
            rows.append(f"  {label} {int(value)}")
    failures = _sample_map(metrics, "repro_executor_failures_total")
    for sample in failures:
        labels = sample["labels"]
        tag = "{}/{}→{}".format(
            labels.get("stage", "?"),
            labels.get("error", "?"),
            labels.get("action", "?"),
        )
        if sample.get("value"):
            rows.append(f"  failures[{tag}] {int(sample['value'])}")
    if not rows:
        return []
    return ["Parallel executor"] + rows


def _faults_section(metrics: Mapping) -> list[str]:
    samples = _sample_map(metrics, "repro_faults_injected_total")
    rows = [
        f"  {sample['labels'].get('kind', '?')} {int(sample['value'])}"
        for sample in samples
        if sample.get("value")
    ]
    if not rows:
        return []
    return ["Injected faults"] + rows


def _dtype_info_line(metrics: Mapping) -> str | None:
    """The process-default solver dtype, read off the info gauge.

    ``repro_solver_dtype_info`` carries value 1 on exactly one label
    set (switching dtypes zeroes the previous set).
    """
    for sample in _sample_map(metrics, "repro_solver_dtype_info"):
        if sample.get("value") == 1.0:
            return "  dtype {}".format(sample["labels"].get("dtype", "?"))
    return None


def _solver_section(metrics: Mapping) -> list[str]:
    iteration_family = metrics.get("families", {}).get(
        "repro_solver_iterations"
    )
    if not iteration_family:
        return []
    bounds = iteration_family.get("buckets") or []
    rows = ["Solver iterations (per solve)"]
    header = "  {:<12} {:>7} {:>9} {:>9}".format(
        "solver", "solves", "mean", "max<="
    )
    rows.append(header)
    for sample in iteration_family["samples"]:
        solver = sample["labels"].get("solver", "?")
        count = sample["count"]
        if not count:
            continue
        mean = sample["sum"] / count
        top = "+Inf"
        cumulative = 0
        for bound, bucket in zip(bounds, sample["bucket_counts"]):
            cumulative += bucket
            if cumulative >= count:
                top = _format_value(bound)
                break
        rows.append(
            "  {:<12} {:>7} {:>9.1f} {:>9}".format(
                solver, count, mean, top
            )
        )
        runtime = _sample_map(metrics, "repro_solver_runtime_seconds")
        for rt in runtime:
            if rt["labels"].get("solver") == solver and rt["count"]:
                rows[-1] += "   total {:.3f}s".format(rt["sum"])
                break
    unconverged = _metric_total(metrics, "repro_solver_unconverged_total")
    divergences = _metric_total(
        metrics, "repro_solver_divergence_trips_total"
    )
    restarts = _metric_total(metrics, "repro_solver_safe_restarts_total")
    if unconverged or divergences or restarts:
        rows.append(
            f"  unconverged {int(unconverged)}  divergence trips "
            f"{int(divergences)}  safe restarts {int(restarts)}"
        )
    if len(rows) <= 2:
        return []
    dtype_line = _dtype_info_line(metrics)
    if dtype_line is not None:
        rows.insert(1, dtype_line)
    return rows


def _algorithm_section(metrics: Mapping) -> list[str]:
    runtime_family = metrics.get("families", {}).get(
        "repro_algorithm_runtime_seconds"
    )
    iteration_samples = _sample_map(metrics, "repro_algorithm_iterations")
    if not runtime_family:
        return []
    iters_by_algo = {
        s["labels"].get("algorithm"): s for s in iteration_samples
    }
    rows = ["Algorithms (per subgraph solve)"]
    rows.append(
        "  {:<12} {:>7} {:>11} {:>12}".format(
            "algorithm", "solves", "total (s)", "mean iters"
        )
    )
    for sample in runtime_family["samples"]:
        algo = sample["labels"].get("algorithm", "?")
        count = sample["count"]
        if not count:
            continue
        iters = iters_by_algo.get(algo)
        mean_iters = (
            iters["sum"] / iters["count"]
            if iters and iters["count"]
            else 0.0
        )
        rows.append(
            "  {:<12} {:>7} {:>11.3f} {:>12.1f}".format(
                algo, count, sample["sum"], mean_iters
            )
        )
    return rows if len(rows) > 2 else []


def _experiment_section(metrics: Mapping) -> list[str]:
    samples = _sample_map(metrics, "repro_experiment_seconds")
    rows = []
    for sample in samples:
        if not sample.get("count"):
            continue
        name = sample["labels"].get("experiment", "?")
        rows.append(f"  {name:<12} {sample['sum']:.3f}s")
    if not rows:
        return []
    return ["Experiment wall-clock"] + rows


def _serve_section(metrics: Mapping) -> list[str]:
    request_samples = _sample_map(metrics, "repro_serve_requests_total")
    latency_samples = _sample_map(metrics, "repro_serve_request_seconds")
    batch_samples = _sample_map(metrics, "repro_serve_batch_size")
    hits = _metric_total(metrics, "repro_serve_store_hits_total")
    misses = _metric_total(metrics, "repro_serve_store_misses_total")
    eviction_samples = _sample_map(
        metrics, "repro_serve_store_evictions_total"
    )
    rejected_samples = _sample_map(metrics, "repro_serve_rejected_total")
    if not (request_samples or hits or misses or batch_samples):
        return []
    rows = ["Serving"]
    latency_by_endpoint = {
        s["labels"].get("endpoint"): s for s in latency_samples
    }
    for sample in request_samples:
        if not sample.get("value"):
            continue
        endpoint = sample["labels"].get("endpoint", "?")
        status = sample["labels"].get("status", "?")
        row = "  {:<9} {:>4} x{:<6}".format(
            endpoint, status, int(sample["value"])
        )
        latency = latency_by_endpoint.get(endpoint)
        if latency and latency["count"]:
            mean_ms = latency["sum"] / latency["count"] * 1e3
            row += "  mean {:.1f}ms".format(mean_ms)
        rows.append(row)
    for sample in batch_samples:
        if not sample.get("count"):
            continue
        mean = sample["sum"] / sample["count"]
        rows.append(
            "  micro-batches {}  mean columns {:.2f}".format(
                sample["count"], mean
            )
        )
    total = hits + misses
    if total:
        rows.append(
            "  score store: hits {}  misses {}  hit-rate {:.1%}".format(
                int(hits), int(misses), hits / total
            )
        )
    evictions = [
        "{}={}".format(
            s["labels"].get("reason", "?"), int(s["value"])
        )
        for s in eviction_samples
        if s.get("value")
    ]
    if evictions:
        rows.append("  store evictions: " + "  ".join(evictions))
    rejected = [
        "{}={}".format(
            s["labels"].get("reason", "?"), int(s["value"])
        )
        for s in rejected_samples
        if s.get("value")
    ]
    if rejected:
        rows.append("  rejected: " + "  ".join(rejected))
    return rows if len(rows) > 1 else []


def _updates_section(metrics: Mapping) -> list[str]:
    """The incremental re-ranking engine's ``repro_update_*`` family."""
    applied = _metric_total(metrics, "repro_update_applied_total")
    regions = _metric_total(
        metrics, "repro_update_regions_reranked_total"
    )
    saved = _metric_total(
        metrics, "repro_update_iterations_saved_total"
    )
    spent = _metric_total(
        metrics, "repro_update_staleness_spent_total"
    )
    refresh_samples = _sample_map(
        metrics, "repro_update_background_refreshes_total"
    )
    if not (applied or regions or saved or refresh_samples):
        return []
    rows = ["Updates (incremental re-ranking)"]
    if applied or spent:
        line = f"  updates applied {int(applied)}"
        line += f"  staleness spent {spent:.4g}"
        budget_samples = _sample_map(
            metrics, "repro_update_staleness_budget"
        )
        if budget_samples:
            line += "  budget {:.4g}".format(
                budget_samples[0]["value"]
            )
        rows.append(line)
    if regions or saved:
        rows.append(
            f"  regions re-ranked {int(regions)}  "
            f"iterations saved {int(saved)}"
        )
    refreshes = [
        "{}={}".format(
            s["labels"].get("mode", "?"), int(s["value"])
        )
        for s in refresh_samples
        if s.get("value")
    ]
    if refreshes:
        rows.append("  refreshes: " + "  ".join(refreshes))
    stale = _metric_total(metrics, "repro_update_stale_entries")
    if stale:
        rows.append(f"  stale-but-bounded entries {int(stale)}")
    return rows if len(rows) > 1 else []


def _estimation_section(metrics: Mapping) -> list[str]:
    """The sublinear estimators' ``repro_estimate_*`` family."""
    request_samples = _sample_map(
        metrics, "repro_estimate_requests_total"
    )
    if not request_samples:
        return []
    latency_by_estimator = {
        s["labels"].get("estimator"): s
        for s in _sample_map(metrics, "repro_estimate_seconds")
    }
    bound_by_estimator = {
        s["labels"].get("estimator"): s
        for s in _sample_map(metrics, "repro_estimate_error_bound")
    }
    rows = ["Estimation (sublinear engines)"]
    for sample in request_samples:
        if not sample.get("value"):
            continue
        estimator = sample["labels"].get("estimator", "?")
        row = "  {:<12} x{:<6}".format(estimator, int(sample["value"]))
        edges = _metric_total(
            metrics,
            "repro_estimate_edges_touched_total",
            estimator=estimator,
        )
        if edges:
            row += "  edges {}".format(int(edges))
        latency = latency_by_estimator.get(estimator)
        if latency and latency["count"]:
            row += "  mean {:.1f}ms".format(
                latency["sum"] / latency["count"] * 1e3
            )
        bound = bound_by_estimator.get(estimator)
        if bound and bound["count"]:
            row += "  mean bound {:.2e}".format(
                bound["sum"] / bound["count"]
            )
        rows.append(row)
    walks = _metric_total(metrics, "repro_estimate_walks_total")
    pushes = _metric_total(metrics, "repro_estimate_pushes_total")
    if walks or pushes:
        rows.append(
            "  walks simulated {}  residual pushes {}".format(
                int(walks), int(pushes)
            )
        )
    return rows if len(rows) > 1 else []


def _semantic_section(metrics: Mapping) -> list[str]:
    """The semantic pipeline's ``repro_semantic_*`` family."""
    query_samples = _sample_map(
        metrics, "repro_semantic_queries_total"
    )
    if not query_samples:
        return []
    rows = ["Semantic"]
    for sample in query_samples:
        if not sample.get("value"):
            continue
        estimator = sample["labels"].get("estimator", "?")
        rows.append(
            "  queries[{}] x{}".format(
                estimator, int(sample["value"])
            )
        )
    pruned = _metric_total(
        metrics, "repro_semantic_candidates_pruned_total"
    )
    merges = _metric_total(
        metrics, "repro_semantic_dedup_merges_total"
    )
    if pruned or merges:
        rows.append(
            f"  candidates pruned {int(pruned)}  "
            f"dedup merges {int(merges)}"
        )
    for sample in _sample_map(
        metrics, "repro_semantic_neighborhood_pages"
    ):
        if not sample.get("count"):
            continue
        mean = sample["sum"] / sample["count"]
        rows.append(
            "  neighborhoods {}  mean {:.1f} pages".format(
                sample["count"], mean
            )
        )
    return rows if len(rows) > 1 else []


def _cluster_section(metrics: Mapping) -> list[str]:
    """The shard router's ``repro_cluster_*`` family."""
    request_samples = _sample_map(
        metrics, "repro_cluster_requests_total"
    )
    retry_samples = _sample_map(metrics, "repro_cluster_retries_total")
    latency_samples = _sample_map(
        metrics, "repro_cluster_forward_seconds"
    )
    ejections = _metric_total(
        metrics, "repro_cluster_ejections_total"
    )
    readmissions = _metric_total(
        metrics, "repro_cluster_readmissions_total"
    )
    breaker_samples = _sample_map(
        metrics, "repro_cluster_breaker_state"
    )
    if not (request_samples or retry_samples):
        return []
    rows = ["Cluster (shard router)"]
    latency_by_endpoint = {
        s["labels"].get("endpoint"): s for s in latency_samples
    }
    for sample in request_samples:
        if not sample.get("value"):
            continue
        endpoint = sample["labels"].get("endpoint", "?")
        outcome = sample["labels"].get("outcome", "?")
        row = "  {:<9} {:<11} x{:<6}".format(
            endpoint, outcome, int(sample["value"])
        )
        latency = latency_by_endpoint.get(endpoint)
        if latency and latency["count"]:
            mean_ms = latency["sum"] / latency["count"] * 1e3
            row += "  mean {:.1f}ms".format(mean_ms)
        rows.append(row)
    retries = [
        "{}={}".format(
            s["labels"].get("error", "?"), int(s["value"])
        )
        for s in retry_samples
        if s.get("value")
    ]
    if retries:
        rows.append("  retries: " + "  ".join(retries))
    if ejections or readmissions:
        rows.append(
            f"  ejections {int(ejections)}  "
            f"readmissions {int(readmissions)}"
        )
    open_breakers = [
        s["labels"].get("replica", "?")
        for s in breaker_samples
        if s.get("value")  # 0 = closed
    ]
    if open_breakers:
        rows.append(
            "  non-closed breakers: " + "  ".join(sorted(open_breakers))
        )
    return rows if len(rows) > 1 else []


def _span_lines(node: Mapping, depth: int, out: list[str]) -> None:
    indent = "  " * depth
    error = f"  !{node['error']}" if node.get("error") else ""
    counters = node.get("counters") or {}
    counter_str = (
        "  [" + ", ".join(
            f"{k}={_format_value(v)}" for k, v in sorted(counters.items())
        ) + "]"
        if counters
        else ""
    )
    out.append(
        f"  {indent}{node['name']}  wall {node['wall_seconds']:.3f}s  "
        f"cpu {node['cpu_seconds']:.3f}s{counter_str}{error}"
    )
    for child in node.get("children", []):
        _span_lines(child, depth + 1, out)


def _span_section(snapshot: Mapping) -> list[str]:
    spans = snapshot.get("spans") or []
    if not spans:
        return []
    rows = ["Span tree"]
    for root in spans:
        _span_lines(root, 0, rows)
    return rows


def _history_section(snapshot: Mapping) -> list[str]:
    history = snapshot.get("solve_history") or []
    if not history:
        return []
    rows = ["Recent solves (newest last, ring-buffered)"]
    for record in history[-10:]:
        tail = record.get("residual_tail") or []
        tail_str = (
            "  tail " + ">".join(f"{r:.1e}" for r in tail[-4:])
            if tail
            else ""
        )
        status = "ok" if record.get("converged") else "UNCONVERGED"
        rows.append(
            "  {solver:<10} iters {iterations:>4}  residual "
            "{residual:.2e}  {status}{tail}".format(
                solver=record.get("solver", "?"),
                iterations=record.get("iterations", 0),
                residual=record.get("residual", 0.0),
                status=status,
                tail=tail_str,
            )
        )
    return rows


def render_report(snapshot: Mapping) -> str:
    """Render a snapshot as the ``obs-report`` plain-text summary."""
    metrics = snapshot.get("metrics", {})
    sections = [
        section
        for section in (
            _cache_section(metrics),
            _executor_section(metrics),
            _faults_section(metrics),
            _solver_section(metrics),
            _algorithm_section(metrics),
            _experiment_section(metrics),
            _serve_section(metrics),
            _updates_section(metrics),
            _estimation_section(metrics),
            _semantic_section(metrics),
            _cluster_section(metrics),
            _span_section(snapshot),
            _history_section(snapshot),
        )
        if section
    ]
    if not sections:
        return "observability report: no recorded activity\n"
    header = "observability report (schema {}, obs {})".format(
        snapshot.get("schema", "?"),
        "enabled" if snapshot.get("obs_enabled") else "disabled",
    )
    body = "\n\n".join("\n".join(section) for section in sections)
    return f"{header}\n\n{body}\n"
