"""``fleet-hot``: a two-shard process fleet behind a ``ShardRouter``,
two closed-loop clients reading a hot set that fits every store.

Reads follow a Zipf law over 64 subgraphs (all 38 domains plus small
BFS crawls), so nearly every answer is a score-store hit and the
router's forward, its connections and the JSON round-trips carry the
cost.  A fixed number of read phases alternate with one update each,
posted to the router's ``/update``; the next phase starts only once
every replica is synced with no pending refreshes.  No lexicon is
built: set-up-side changes to the semantic layers must leave this
workload unchanged.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from e2ebench import checks, layers, ops, spec
from e2ebench.common import (
    ClosedLoop,
    Connection,
    MetricDeltas,
    Outcome,
    PassResult,
    get,
    mean,
    percentile,
    quiesce,
    vm_hwm_mb,
    wait_until,
)
from e2ebench.spans import Tracer, maybe_span

#: ``/metrics`` fields the traced run reads from the router and from
#: the shards around every read phase.
_FIELDS = (
    ("repro_serve_request_seconds", "sum", {"endpoint": "/rank"}),
    ("repro_serve_request_seconds", "count", {"endpoint": "/rank"}),
    ("repro_cluster_forward_seconds", "sum", {"endpoint": "/rank"}),
    ("repro_cluster_forward_seconds", "count", {"endpoint": "/rank"}),
    ("repro_cluster_retries_total", "value", {}),
    ("repro_serve_store_hits_total", "value", {}),
    ("repro_serve_store_misses_total", "value", {}),
    ("repro_serve_store_evictions_total", "value", {}),
)


@dataclass(frozen=True)
class Read:
    """One ``/rank`` read of hot-set item ``item``."""

    index: int
    item: int


@dataclass
class Inputs:
    hot: list[ops.Op]
    nodes: list[np.ndarray]
    bodies: list[bytes]
    phases: list[list[Read]]
    warmup: list[bytes]
    deltas: list


@dataclass
class State:
    prep: object
    cluster: object
    conn: Connection
    bodies: list[bytes]
    references: dict = field(default_factory=dict)


def _body(nodes: np.ndarray) -> bytes:
    return json.dumps({"nodes": nodes.tolist()}).encode()


def prepare_inputs(seed: int, seconds: float, dataset) -> Inputs:
    workload = spec.WORKLOADS["fleet-hot"]
    info = ops.GraphInfo.from_dataset(dataset)
    hot = ops.hot_set(seed, info)
    nodes = [ops.subgraph_nodes(op, dataset, dataset.graph) for op in hot]
    ranks = ops.plan_fleet_hot(seed, workload.read_count(seconds), len(hot))
    return Inputs(
        hot=hot,
        nodes=nodes,
        bodies=[_body(n) for n in nodes],
        phases=ops.split_phases(
            [Read(i, r) for i, r in enumerate(ranks)], workload.phases
        ),
        warmup=[
            _body(ops.subgraph_nodes(op, dataset, dataset.graph))
            for op in ops.plan_warmup("fleet-hot", seed, info)
        ],
        deltas=ops.plan_deltas(
            seed, workload.phases - 1, dataset.graph, dataset
        ),
    )


def _router_ready(conn: Connection) -> bool:
    health = conn.json("GET", "/healthz")
    return health["status"] == "ok" and all(
        r["synced"] and not r["ejected"] for r in health["replicas"].values()
    )


def setup(inputs: Inputs, tracer: Tracer | None) -> State:
    from repro.core.precompute import ApproxRankPreprocessor
    from repro.generators.datasets import make_au_like
    from repro.serve.cluster import start_cluster

    with maybe_span(tracer, "generators.build"):
        dataset = make_au_like(spec.GRAPH_PAGES, seed=spec.GRAPH_SEED)
    with maybe_span(tracer, "core.global_pass"):
        prep = ApproxRankPreprocessor(dataset.graph)
    cluster = start_cluster(dataset.graph, num_shards=2, placement="process")
    conn = Connection(*cluster.address)
    state = State(prep, cluster, conn, inputs.bodies)
    try:
        wait_until(lambda: _router_ready(conn), timeout=60.0)
        # Warm-up first (keys outside the hot set), then one read of
        # every hot item so the measured reads find it stored.
        for body in inputs.warmup + inputs.bodies:
            status, raw = conn.request("POST", "/rank", body)
            if status != 200:
                raise RuntimeError(f"warm-up /rank -> {status}: {raw[:200]!r}")
    except BaseException:
        teardown(state)
        raise
    return state


def teardown(state: State) -> None:
    state.conn.close()
    state.cluster.stop()
    for handle in state.cluster.manager.all():
        if handle.process is not None and handle.process.is_alive():
            raise RuntimeError(f"{handle.name} did not stop")


def hook(tracer: Tracer) -> None:
    layers.hook_router(tracer)


def _replica_addresses(state: State) -> list[tuple[str, int]]:
    return [tuple(h.address) for h in state.cluster.manager.all()]


def _quiescent(state: State, replicas: list[Connection]) -> bool:
    if not _router_ready(state.conn):
        return False
    return all(
        conn.json("GET", "/healthz")["updates"]["pending_refreshes"] == 0
        for conn in replicas
    )


def apply_update(state: State, delta) -> float:
    """Post ``delta`` to the router and wait until every replica is
    synced with no pending refreshes; returns the seconds from the
    router's reply to that point."""
    body = json.dumps({"delta": delta.to_payload()}).encode()
    reply = state.conn.json("POST", "/update", body)
    returned = time.perf_counter()
    if reply["replicas_updated"] != reply["replicas_total"]:
        raise RuntimeError(f"update reached only {reply}")
    replicas = [Connection(*a) for a in _replica_addresses(state)]
    try:
        wait_until(lambda: _quiescent(state, replicas), timeout=120.0)
    finally:
        for conn in replicas:
            conn.close()
    return time.perf_counter() - returned


def make_execute(bodies: list[bytes]):
    def execute(conn: Connection, read: Read) -> Outcome:
        started = time.perf_counter()
        status, raw = conn.request("POST", "/rank", bodies[read.item])
        payload = json.loads(raw)
        latency = time.perf_counter() - started
        if status != 200:
            return Outcome(
                read.index, latency, False,
                error=f"HTTP {status}: {payload.get('error', '')}"[:200],
            )
        return Outcome(
            read.index, latency, True,
            stale=bool(payload.get("stale")), payload=payload,
        )

    return execute


def verify_phase(state: State, inputs: Inputs, reads, outcomes, result):
    from repro.core.precompute import ApproxRankPreprocessor
    from repro.serve.store import DEFAULT_STALENESS_BUDGET, graph_fingerprint

    graph = state.cluster.manager.graph
    fingerprint = graph_fingerprint(graph)[:16]
    prep = None
    for read, outcome in zip(reads, outcomes):
        if not outcome.answered:
            continue
        payload, outcome.payload = outcome.payload, None
        try:
            nodes = np.asarray(payload["nodes"], dtype=np.int64)
            if not np.array_equal(nodes, inputs.nodes[read.item]):
                raise checks.AnswerError("answer ranks a different node set")
            scores, lam = payload["scores"], payload["lambda_score"]
            if payload["stale"]:
                checks.check_stale(
                    payload["staleness"], DEFAULT_STALENESS_BUDGET
                )
                checks.check_distribution(
                    scores, lam,
                    payload["staleness"] + spec.EXACT_MASS_TOLERANCE,
                )
            else:
                if payload.get("graph_fingerprint") != fingerprint:
                    raise checks.AnswerError(
                        f"fresh answer from graph "
                        f"{payload.get('graph_fingerprint')}, the cluster "
                        f"is at {fingerprint}"
                    )
                key = (fingerprint, read.item)
                if key not in state.references:
                    if prep is None:
                        prep = (
                            state.prep if state.prep.graph is graph
                            else ApproxRankPreprocessor(graph)
                        )
                    state.references[key] = prep.rank(inputs.nodes[read.item])
                checks.check_exact(nodes, scores, lam, state.references[key])
        except (checks.AnswerError, KeyError, TypeError, ValueError) as exc:
            result.wrong.append(
                f"{inputs.hot[read.item].label}: {exc!r}"[:300]
            )
        else:
            outcome.correct = True


def run_pass(
    state: State, inputs: Inputs, tracer: Tracer | None
) -> PassResult:
    result = PassResult()
    drains: list[float] = []
    router = MetricDeltas(_FIELDS)
    shards = MetricDeltas(_FIELDS)
    address = state.cluster.address
    replicas = _replica_addresses(state)
    loop = ClosedLoop(
        spec.CLIENT_THREADS, lambda: Connection(*address),
        make_execute(state.bodies),
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
                router.start([address])
                shards.start(replicas)
            outcomes, wall = loop.run_phase(phase)
            if tracer is not None:
                router.stop([address])
                shards.stop(replicas)
            result.read_wall_s += wall
            result.outcomes += outcomes
            verify_phase(state, inputs, phase, outcomes, result)
        result.peak_rss_mb = vm_hwm_mb() + sum(
            vm_hwm_mb(h.process.pid) for h in state.cluster.manager.all()
        )
        health = [json.loads(get(a, "/healthz")) for a in replicas]
    finally:
        loop.close()
    if tracer is not None:
        result.layers = _layers(
            tracer, result, router, shards, drains, health
        )
    return result


def _mean_ms(scrapes: MetricDeltas, name: str) -> float:
    count = scrapes.get(name, "count")
    return scrapes.get(name, "sum") / count * 1e3 if count else 0.0


def _layers(tracer, result, router, shards, drains, health) -> dict:
    out = {
        "updates.apply_delta_ms_p50": percentile(
            [s.duration * 1e3 for s in
             tracer.named("updates.apply_delta", "update")], 50
        ),
        "updates.store_apply_ms_p50": percentile(
            [s.duration * 1e3 for s in
             tracer.named("updates.store_apply", "update")], 50
        ),
        "updates.refresh_drain_ms_p50": percentile(drains, 50) * 1e3,
        "updates.iterations_saved_ratio": layers.iterations_saved_ratio(
            sum(h["updates"]["iterations_saved"] for h in health),
            sum(h["updates"]["entries_refreshed"] for h in health),
        ),
    }
    answered = [o for o in result.outcomes if o.answered]
    shard_ms = _mean_ms(shards, "repro_serve_request_seconds")
    router_ms = _mean_ms(router, "repro_serve_request_seconds")
    forward_ms = _mean_ms(router, "repro_cluster_forward_seconds")
    out["serve.server.handle_ms_mean"] = shard_ms
    out["serve.transport_ms_mean"] = (
        mean([o.latency_s for o in answered]) * 1e3 - router_ms
    )
    out["serve.cluster.forward_ms_mean"] = forward_ms
    out["serve.cluster.router_overhead_ms_mean"] = forward_ms - shard_ms
    forwards = router.get("repro_cluster_forward_seconds", "count")
    if forwards:
        out["serve.cluster.retries_per_request"] = (
            router.get("repro_cluster_retries_total") / forwards
        )
    hits = shards.get("repro_serve_store_hits_total")
    lookups = hits + shards.get("repro_serve_store_misses_total")
    if lookups:
        out["serve.store.hit_ratio"] = hits / lookups
    out["serve.store.evictions"] = shards.get(
        "repro_serve_store_evictions_total"
    )
    if answered:
        out["serve.store.stale_served_ratio"] = (
            sum(1 for o in answered if o.stale) / len(answered)
        )
    return out
