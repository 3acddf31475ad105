"""One benchmark run: inputs, set-up, measured pass, metrics.

Untraced (``--trace 0``): set up ``SETUP_REPEATS`` times, keep the
last, run the reads once, report every end-to-end metric.

Traced (``--trace 1``): set up and run the same reads twice on fresh
systems, first untraced and then with the layer hooks installed, and
report every per-layer metric plus the tracing overhead (traced over
untraced read-phase wall time).
"""

from __future__ import annotations

import importlib
import statistics
import time
from pathlib import Path

from e2ebench import layers, spec
from e2ebench.common import PassResult, percentile, quiesce
from e2ebench.spans import Tracer

MODULES = {
    "offline": "e2ebench.offline",
    "serve-cold": "e2ebench.serve_cold",
    "fleet-hot": "e2ebench.fleet_hot",
}

#: Where traced runs write their spans (inside the checkout).
TRACE_DIR = Path(".e2ebench_out")


def _inputs(module, seed: int, seconds: float):
    """The seeded inputs, drawn from a graph built only for this.

    Set-up later builds its own graph; the two are identical because
    the graph is a fixed function of ``GRAPH_PAGES``/``GRAPH_SEED``.
    """
    from repro.generators.datasets import make_au_like

    dataset = make_au_like(spec.GRAPH_PAGES, seed=spec.GRAPH_SEED)
    return module.prepare_inputs(seed, seconds, dataset)


def _timed_setup(module, inputs, tracer) -> tuple[object, float]:
    quiesce()
    started = time.perf_counter()
    state = module.setup(inputs, tracer)
    return state, time.perf_counter() - started


def end_to_end(
    workload: str, result: PassResult, setups: list[float]
) -> dict[str, float]:
    limit = spec.WORKLOADS[workload].latency_limit_ms / 1e3
    outcomes = result.outcomes
    attempted = len(outcomes)
    answered = [o for o in outcomes if o.answered]
    correct = [o for o in outcomes if o.correct]
    latencies_ms = [o.latency_s * 1e3 for o in answered]
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result.peak_rss_mb,
        "throughput_per_s": len(answered) / result.read_wall_s,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p95_ms": percentile(latencies_ms, 95),
        "within_limit_share": (
            sum(1 for o in correct if o.latency_s <= limit) / attempted
        ),
        "answered_share": len(correct) / attempted,
        "fresh_share": sum(1 for o in correct if not o.stale) / attempted,
        "update_p50_ms": statistics.median(result.update_s) * 1e3,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object the CLI prints."""
    module = importlib.import_module(MODULES[workload])
    inputs = _inputs(module, seed, seconds)
    passes: list[PassResult] = []
    if not trace:
        setups = []
        for repeat in range(spec.SETUP_REPEATS):
            if repeat:
                module.teardown(state)
                # Drop the old system before building the next one, so
                # two never share the process's peak memory.
                state = None
            state, seconds_taken = _timed_setup(module, inputs, None)
            setups.append(seconds_taken)
        try:
            passes.append(module.run_pass(state, inputs, None))
        finally:
            module.teardown(state)
        values = end_to_end(workload, passes[0], setups)
        metrics = {m.name: (values[m.name], m.unit) for m in spec.END_TO_END}
        detail = _detail(passes[0], setups)
    else:
        state, __ = _timed_setup(module, inputs, None)
        try:
            passes.append(module.run_pass(state, inputs, None))
        finally:
            module.teardown(state)
        state = None
        tracer = Tracer()
        state, __ = _timed_setup(module, inputs, tracer)
        try:
            module.hook(tracer)
            try:
                passes.append(module.run_pass(state, inputs, tracer))
            finally:
                tracer.restore()
        finally:
            module.teardown(state)
        values = dict.fromkeys((m.name for m in spec.PER_LAYER), 0.0)
        values.update(layers.setup_layers(tracer))
        values.update(passes[1].layers)
        values["trace.overhead_ratio"] = (
            passes[1].read_wall_s / passes[0].read_wall_s
        )
        unknown = set(values) - {m.name for m in spec.PER_LAYER}
        if unknown:
            raise RuntimeError(
                f"unlisted per-layer metrics: {sorted(unknown)}"
            )
        metrics = {
            m.name: (values[m.name], m.unit) for m in spec.PER_LAYER
        }
        tracer.write(TRACE_DIR / f"trace-{workload}-seed{seed}.json")
        detail = _detail(passes[1], [])
    wrong = [w for p in passes for w in p.wrong]
    failed = sum(
        1 for p in passes for o in p.outcomes if not o.correct
    )
    attempted = sum(len(p.outcomes) + len(p.update_s) for p in passes)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "detail": detail,
        "wrong": wrong[:20],
    }


def _detail(result: PassResult, setups: list[float]) -> dict:
    answered = [o for o in result.outcomes if o.answered]
    errors = sorted({o.error for o in result.outcomes if o.error})
    return {
        "latency_samples": len(answered),
        "update_samples": len(result.update_s),
        "setup_samples": [round(s, 4) for s in setups],
        "read_wall_s": round(result.read_wall_s, 4),
        "update_ms": [round(u * 1e3, 2) for u in result.update_s],
        "errors": errors[:10],
    }
