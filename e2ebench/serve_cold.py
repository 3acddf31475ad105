"""``serve-cold``: one ``RankingServer``, two closed-loop clients,
every read a score-store miss.

``/rank`` reads name a subgraph (and damping) that no other read of
the run names, a tenth of all reads ask for ``?estimator=push``, and
a fifth are ``/semantic-search`` queries on distinct term sets.  Each
request therefore crosses parse, admission, micro-batch linger,
assembly, solve and payload encode.  Between read phases one seeded
update goes through ``RankingService.apply_update`` and the next
phase waits until its background refreshes have drained.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.parse
from dataclasses import dataclass

import numpy as np

from e2ebench import checks, layers, ops, spec
from e2ebench.common import (
    ClosedLoop,
    Connection,
    MetricDeltas,
    Outcome,
    PassResult,
    mean,
    percentile,
    quiesce,
    solver_settings,
    vm_hwm_mb,
    wait_until,
)
from e2ebench.offline import build
from e2ebench.spans import Tracer

_ENDPOINTS = ("/rank", "/semantic-search")

#: ``/metrics`` fields whose movement over the read phases the traced
#: run turns into serving-layer metrics.
_FIELDS = (
    [("repro_serve_request_seconds", f, {"endpoint": e})
     for e in _ENDPOINTS for f in ("sum", "count")]
    + [("repro_serve_batch_size", f, {}) for f in ("sum", "count")]
    + [(name, "value", {}) for name in (
        "repro_serve_store_hits_total",
        "repro_serve_store_misses_total",
        "repro_serve_store_evictions_total",
    )]
)


@dataclass(frozen=True)
class Request:
    """One HTTP read, encoded before any timing starts."""

    index: int
    op: ops.Op
    path: str
    body: bytes
    nodes: np.ndarray | None


@dataclass
class Inputs:
    phases: list[list[Request]]
    warmup: list[Request]
    deltas: list
    extract_ms: list[float]


@dataclass
class State:
    dataset: object
    lexicon: object
    pipeline: object
    service: object
    server: object
    conn: Connection


def request_for(op: ops.Op, dataset) -> Request:
    if op.family == "semantic":
        body = {"terms": list(op.terms), "k": 10}
        return Request(
            op.index, op, "/semantic-search",
            json.dumps(body).encode(), None,
        )
    nodes = ops.subgraph_nodes(op, dataset, dataset.graph)
    path = "/rank"
    if op.estimator != "exact":
        path += "?estimator=" + urllib.parse.quote(op.estimator, safe="")
    body = {"nodes": nodes.tolist(), "damping": op.damping}
    return Request(op.index, op, path, json.dumps(body).encode(), nodes)


def prepare_inputs(seed: int, seconds: float, dataset) -> Inputs:
    workload = spec.WORKLOADS["serve-cold"]
    info = ops.GraphInfo.from_dataset(dataset)
    reads = ops.plan_reads(
        "serve-cold", seed, workload.read_count(seconds), info
    )
    requests, extract_ms = [], []
    for op in reads:
        started = time.perf_counter()
        requests.append(request_for(op, dataset))
        if op.family != "semantic":
            extract_ms.append((time.perf_counter() - started) * 1e3)
    return Inputs(
        phases=ops.split_phases(requests, workload.phases),
        warmup=[
            request_for(op, dataset)
            for op in ops.plan_warmup("serve-cold", seed, info)
        ],
        deltas=ops.plan_deltas(
            seed, workload.phases - 1, dataset.graph, dataset
        ),
        extract_ms=extract_ms,
    )


def setup(inputs: Inputs, tracer: Tracer | None) -> State:
    from repro.serve import RankingService, start_background_server

    dataset, __, lexicon, pipeline = build(tracer)
    service = RankingService(dataset.graph, semantic_pipeline=pipeline)
    server = start_background_server(service)
    conn = Connection(*server.address)
    state = State(dataset, lexicon, pipeline, service, server, conn)
    try:
        if conn.json("GET", "/healthz")["status"] != "ok":
            raise RuntimeError("server is not healthy")
        for request in inputs.warmup:
            status, raw = conn.request("POST", request.path, request.body)
            if status != 200:
                raise RuntimeError(
                    f"warm-up {request.path} -> {status}: {raw[:200]!r}"
                )
    except BaseException:
        teardown(state)
        raise
    return state


def teardown(state: State) -> None:
    state.conn.close()
    if not state.server.stop(timeout=30.0):
        raise RuntimeError("ranking server did not stop")


def hook(tracer: Tracer) -> None:
    layers.hook_library(tracer)
    layers.hook_server(tracer)


def execute(conn: Connection, request: Request) -> Outcome:
    started = time.perf_counter()
    status, raw = conn.request("POST", request.path, request.body)
    payload = json.loads(raw)
    latency = time.perf_counter() - started
    if status != 200:
        return Outcome(
            request.index, latency, False,
            error=f"HTTP {status}: {payload.get('error', '')}"[:200],
        )
    return Outcome(
        request.index, latency, True,
        stale=bool(payload.get("stale")), payload=payload,
    )


class Verifier:
    """Checks answers against the graph the service currently serves."""

    def __init__(self, state: State):
        from repro.core.precompute import ApproxRankPreprocessor
        from repro.semantic.pipeline import SemanticPipeline
        from repro.serve.store import graph_fingerprint

        graph = state.service.graph
        self.budget = state.service.store.staleness_budget
        self.fingerprint = graph_fingerprint(graph)[:16]
        self.prep = ApproxRankPreprocessor(graph)
        self.pipeline = SemanticPipeline(
            graph, state.lexicon,
            embeddings=state.pipeline.embeddings, preprocessor=self.prep,
        )

    def __call__(self, request: Request, payload: dict) -> None:
        if payload.get("graph_fingerprint") != self.fingerprint:
            raise checks.AnswerError(
                f"answered from graph {payload.get('graph_fingerprint')}, "
                f"the service holds {self.fingerprint}"
            )
        op = request.op
        if op.family == "semantic":
            self._semantic(op, payload)
            return
        nodes = np.asarray(payload["nodes"], dtype=np.int64)
        if not np.array_equal(nodes, request.nodes):
            raise checks.AnswerError("answer ranks a different node set")
        scores, lam = payload["scores"], payload["lambda_score"]
        if payload.get("estimated"):
            reference = self.prep.rank(
                request.nodes,
                solver_settings(op.damping, spec.REFERENCE_TOLERANCE),
            )
            checks.check_stale(payload["staleness"], self.budget)
            checks.check_estimate(
                op.estimator, scores, lam, payload["error_bound"], reference
            )
        elif payload["stale"]:
            checks.check_stale(payload["staleness"], self.budget)
            checks.check_distribution(
                scores, lam,
                payload["staleness"] + spec.EXACT_MASS_TOLERANCE,
            )
        else:
            reference = self.prep.rank(
                request.nodes, solver_settings(op.damping)
            )
            checks.check_exact(nodes, scores, lam, reference)

    def _semantic(self, op: ops.Op, payload: dict) -> None:
        selection = self.pipeline.select(op.terms)
        if not np.array_equal(
            np.asarray(payload["nodes"], dtype=np.int64), selection.nodes
        ):
            raise checks.AnswerError(
                "semantic neighborhood differs from the offline pipeline"
            )
        if payload["stale"]:
            checks.check_stale(payload["staleness"], self.budget)
            return
        reference = self.prep.rank(selection.nodes)
        expected = self.pipeline.finish(selection, reference, k=10)
        got = [(h["page"], h["score"]) for h in payload["hits"]]
        want = [(h.page, h.score) for h in expected.hits]
        if got != want:
            raise checks.AnswerError(
                "semantic hits are not bit-identical to the offline pipeline"
            )


def verify_phase(state, requests, outcomes, result: PassResult, tracer):
    if tracer is not None:
        tracer.active = False
    try:
        verifier = Verifier(state)
        for request, outcome in zip(requests, outcomes):
            if not outcome.answered:
                continue
            try:
                verifier(request, outcome.payload)
            except (
                checks.AnswerError, KeyError, TypeError, ValueError
            ) as exc:
                result.wrong.append(f"{request.op.label}: {exc!r}"[:300])
            else:
                outcome.correct = True
            outcome.payload = None
    finally:
        if tracer is not None:
            tracer.active = True


def _healthz(conn: Connection) -> dict:
    return conn.json("GET", "/healthz")


def apply_update(state: State, delta) -> float:
    """Apply ``delta`` through the service; returns the seconds from
    the call returning until its refreshes drained."""
    future = asyncio.run_coroutine_threadsafe(
        state.service.apply_update(delta), state.server.loop
    )
    future.result(timeout=120.0)
    returned = time.perf_counter()
    wait_until(
        lambda: _healthz(state.conn)["updates"]["pending_refreshes"] == 0,
        timeout=120.0,
    )
    return time.perf_counter() - returned


def run_pass(
    state: State, inputs: Inputs, tracer: Tracer | None
) -> PassResult:
    from repro.perf.cache import GLOBAL_TRANSITION_CACHE

    result = PassResult()
    drains: list[float] = []
    deltas = MetricDeltas(_FIELDS)
    cache_hits = cache_misses = 0
    address = state.server.address
    loop = ClosedLoop(
        spec.CLIENT_THREADS, lambda: Connection(*address), execute
    )
    try:
        for number, phase in enumerate(inputs.phases):
            if number:
                quiesce()
                if tracer is not None:
                    tracer.stage = "update"
                started = time.perf_counter()
                drains.append(apply_update(state, inputs.deltas[number - 1]))
                result.update_s.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.stage = "read"
                deltas.start([address])
            before = GLOBAL_TRANSITION_CACHE.stats()
            outcomes, wall = loop.run_phase(phase)
            after = GLOBAL_TRANSITION_CACHE.stats()
            cache_hits += after.hits - before.hits
            cache_misses += after.misses - before.misses
            if tracer is not None:
                deltas.stop([address])
            result.read_wall_s += wall
            result.outcomes += outcomes
            verify_phase(state, phase, outcomes, result, tracer)
        result.peak_rss_mb = vm_hwm_mb()
        health = _healthz(state.conn)
    finally:
        loop.close()
    if tracer is not None:
        result.layers = _layers(
            tracer, inputs, result, deltas, drains, health,
            (cache_hits, cache_misses),
        )
    return result


def _layers(tracer, inputs, result, deltas, drains, health, cache) -> dict:
    out = layers.library_layers(tracer)
    out["subgraphs.select_ms_p50"] = percentile(inputs.extract_ms, 50)
    hits, misses = cache
    if hits + misses:
        out["perf.cache.local_block_hit_ratio"] = hits / (hits + misses)
    handled = deltas.get("repro_serve_request_seconds", "count")
    handle_s = deltas.get("repro_serve_request_seconds", "sum")
    answered = [o for o in result.outcomes if o.answered]
    if handled:
        out["serve.server.handle_ms_mean"] = handle_s / handled * 1e3
        out["serve.transport_ms_mean"] = (
            mean([o.latency_s for o in answered]) - handle_s / handled
        ) * 1e3
    out["serve.batching.wait_ms_p50"] = percentile(
        layers.batching_wait_ms(tracer), 50
    )
    batches = deltas.get("repro_serve_batch_size", "count")
    if batches:
        out["serve.batching.batch_size_mean"] = (
            deltas.get("repro_serve_batch_size", "sum") / batches
        )
    store_hits = deltas.get("repro_serve_store_hits_total")
    lookups = store_hits + deltas.get("repro_serve_store_misses_total")
    if lookups:
        out["serve.store.hit_ratio"] = store_hits / lookups
    out["serve.store.evictions"] = deltas.get(
        "repro_serve_store_evictions_total"
    )
    if answered:
        out["serve.store.stale_served_ratio"] = (
            sum(1 for o in answered if o.stale) / len(answered)
        )
    out["updates.refresh_drain_ms_p50"] = percentile(drains, 50) * 1e3
    out["updates.iterations_saved_ratio"] = layers.iterations_saved_ratio(
        health["updates"]["iterations_saved"],
        health["updates"]["entries_refreshed"],
    )
    return out
