"""Where the traced run hooks into the program, and how the hooked
calls become per-layer metrics.

Each hook times one public entry point of a layer.  Calls that run on
an executor thread (assembly and solve behind the micro-batcher) are
tied back to their request by a node-set ``key``.
"""

from __future__ import annotations

import numpy as np

from e2ebench.common import mean, percentile
from e2ebench.spans import Span, Tracer


def node_key(nodes) -> tuple[int, int, int, int]:
    """An order-free fingerprint of a node set, cheap enough to take
    on every call."""
    array = np.asarray(nodes, dtype=np.int64)
    return (
        int(array.size), int(array.min()), int(array.max()), int(array.sum())
    )


def _nodes_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["nodes"]


def hook_library(tracer: Tracer) -> None:
    """Hooks on the in-process algorithm layers."""
    from repro.core import precompute
    from repro.core.extended import ExtendedLocalGraph
    from repro.estimation.montecarlo import MonteCarloEstimator
    from repro.estimation.push import PushEstimator
    from repro.semantic.pipeline import SemanticPipeline

    def estimate_attrs(args, kwargs, result):
        return {"edges_touched": int(result.extras["edges_touched"])}

    def select_attrs(args, kwargs, result):
        return {
            "pruned": int(result.retrieval.pruned),
            "candidates": int(result.retrieval.candidates),
        }

    tracer.wrap(precompute, "normalize_node_set", "graph.normalize")
    tracer.wrap(
        precompute.ApproxRankPreprocessor, "extended_graph", "core.assembly",
        describe=lambda a, k, r: {
            "key": node_key(r.local_nodes),
            "local_edges": int(r.transition_ext_t.nnz),
        },
    )
    tracer.wrap(
        ExtendedLocalGraph, "solve", "pagerank.solve",
        describe=lambda a, k, r: {
            "key": node_key(a[0].local_nodes), "iterations": r.iterations,
        },
    )
    tracer.wrap(
        PushEstimator, "estimate", "estimation.push", describe=estimate_attrs
    )
    tracer.wrap(
        MonteCarloEstimator, "estimate", "estimation.montecarlo",
        describe=estimate_attrs,
    )
    tracer.wrap(
        SemanticPipeline, "select", "semantic.select", describe=select_attrs
    )
    tracer.wrap(SemanticPipeline, "finish", "semantic.dedup")


def hook_server(tracer: Tracer) -> None:
    """Hooks on the in-process ranking service and its update path."""
    from repro.serve import server
    from repro.serve.store import ScoreStore

    tracer.wrap(server, "normalize_node_set", "graph.normalize")
    tracer.wrap(
        server.RankingService, "rank_with_meta", "serve.rank_with_meta",
        describe=lambda a, k, r: {
            "key": node_key(_nodes_arg(a, k)), "cache_hit": r.cache_hit,
        },
    )
    tracer.wrap(server, "apply_delta", "updates.apply_delta")
    tracer.wrap(ScoreStore, "apply_update", "updates.store_apply")


def hook_router(tracer: Tracer) -> None:
    """Hooks on the in-process shard router's update path."""
    from repro.serve.cluster import router
    from repro.serve.store import ScoreStore

    tracer.wrap(router, "apply_delta", "updates.apply_delta")
    tracer.wrap(ScoreStore, "apply_update", "updates.store_apply")


def _ms(spans: list[Span]) -> list[float]:
    return [s.duration * 1e3 for s in spans]


def _children(tracer: Tracer) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in tracer.spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def setup_layers(tracer: Tracer) -> dict[str, float]:
    """Set-up stage durations of the traced set-up."""
    out = {}
    for span_name, metric in (
        ("generators.build", "generators.build_s"),
        ("core.global_pass", "core.global_pass_s"),
        ("search.lexicon_build", "search.lexicon_build_s"),
        ("semantic.embed_build", "semantic.embed_build_s"),
    ):
        spans = tracer.named(span_name, "setup")
        if spans:
            out[metric] = sum(s.duration for s in spans)
    return out


def library_layers(tracer: Tracer) -> dict[str, float]:
    """Algorithm-layer metrics from the read phases."""
    out: dict[str, float] = {}
    children = _children(tracer)

    def p50(name):
        return percentile(_ms(tracer.named(name, "read")), 50)

    out["graph.normalize_ms_p50"] = p50("graph.normalize")
    assembly = tracer.named("core.assembly", "read")
    out["core.assembly_ms_p50"] = percentile(_ms(assembly), 50)
    edges = sum(s.attrs["local_edges"] for s in assembly)
    if edges:
        out["core.assembly_us_per_local_edge"] = (
            sum(s.duration for s in assembly) / edges * 1e6
        )
    solves = tracer.named("pagerank.solve", "read")
    out["pagerank.solve_ms_p50"] = percentile(_ms(solves), 50)
    out["pagerank.iterations_mean"] = mean(
        [s.attrs["iterations"] for s in solves]
    )
    touched = local = 0
    for name in ("estimation.push", "estimation.montecarlo"):
        for span in tracer.named(name, "read"):
            touched += span.attrs.get("edges_touched", 0)
            local += sum(
                c.attrs.get("local_edges", 0)
                for c in children.get(span.span_id, ())
                if c.name == "core.assembly"
            )
    if local:
        out["estimation.edges_touched_ratio"] = touched / local
    out["estimation.push_ms_p50"] = p50("estimation.push")
    out["estimation.montecarlo_ms_p50"] = p50("estimation.montecarlo")
    out["subgraphs.select_ms_p50"] = percentile(
        _ms(tracer.named("subgraphs.select")), 50
    )
    selects = tracer.named("semantic.select", "read")
    out["semantic.select_ms_p50"] = percentile(_ms(selects), 50)
    scored = sum(s.attrs["pruned"] + s.attrs["candidates"] for s in selects)
    if scored:
        out["semantic.pruned_ratio"] = (
            sum(s.attrs["pruned"] for s in selects) / scored
        )
    out["semantic.dedup_ms_p50"] = p50("semantic.dedup")
    out["updates.apply_delta_ms_p50"] = percentile(
        _ms(tracer.named("updates.apply_delta", "update")), 50
    )
    out["updates.store_apply_ms_p50"] = percentile(
        _ms(tracer.named("updates.store_apply", "update")), 50
    )
    return out


def batching_wait_ms(tracer: Tracer) -> list[float]:
    """Per micro-batched request: ``rank_with_meta`` time not spent in
    its own assembly and solve (admission, linger, queueing)."""
    work: dict[tuple, float] = {}
    solved: set[tuple] = set()
    for name in ("core.assembly", "pagerank.solve"):
        for span in tracer.named(name, "read"):
            key = span.attrs["key"]
            work[key] = work.get(key, 0.0) + span.duration
            if name == "pagerank.solve":
                solved.add(key)
    waits = []
    for span in tracer.named("serve.rank_with_meta", "read"):
        key = span.attrs.get("key")
        if key in solved and not span.attrs.get("cache_hit"):
            waits.append((span.duration - work[key]) * 1e3)
    return waits


def iterations_saved_ratio(saved: float, refreshed: float) -> float:
    """Warm-start sweeps saved per refreshed entry, over the library's
    projected cold sweep count at the default damping (the yardstick
    ``iterations_saved`` is measured against).  Entries at a higher
    damping project more cold sweeps, so the ratio can pass 1."""
    from repro.pagerank.kernels import projected_cold_iterations
    from repro.pagerank.solver import PowerIterationSettings

    if not refreshed:
        return 0.0
    settings = PowerIterationSettings()
    cold = projected_cold_iterations(
        settings.tolerance, settings.damping, settings.max_iterations
    )
    return saved / (refreshed * cold)
