"""``offline``: in-process select-then-rank calls, no HTTP.

Each read extracts a subgraph (BFS crawl, domain, dangling frontier,
or a semantic neighborhood via ``SemanticPipeline.select``), ranks it
with ``ApproxRankPreprocessor.rank`` or an estimator, and, for
semantic reads, deduplicates the answer.  Between read phases one
seeded update is applied the way an offline user applies it: a new
graph, a new global pass and a rebuilt semantic pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from e2ebench import checks, layers, ops, spec
from e2ebench.common import (
    Outcome,
    PassResult,
    quiesce,
    solver_settings,
    vm_hwm_mb,
)
from e2ebench.spans import Tracer, maybe_span


@dataclass
class Inputs:
    phases: list[list[ops.Op]]
    warmup: list[ops.Op]
    deltas: list


@dataclass
class State:
    dataset: object
    graph: object
    prep: object
    lexicon: object
    pipeline: object
    engines: dict


@dataclass
class Answer:
    scores: object
    selection: object = None
    semantic: object = None


def prepare_inputs(seed: int, seconds: float, dataset) -> Inputs:
    workload = spec.WORKLOADS["offline"]
    info = ops.GraphInfo.from_dataset(dataset)
    reads = ops.plan_reads("offline", seed, workload.read_count(seconds), info)
    return Inputs(
        phases=ops.split_phases(reads, workload.phases),
        warmup=ops.plan_warmup("offline", seed, info),
        deltas=ops.plan_deltas(
            seed, workload.phases - 1, dataset.graph, dataset
        ),
    )


def build(tracer: Tracer | None):
    """Graph, global pass, lexicon and semantic pipeline."""
    from repro.core.precompute import ApproxRankPreprocessor
    from repro.generators.datasets import make_au_like
    from repro.search.lexicon import SyntheticLexicon
    from repro.semantic.pipeline import SemanticPipeline

    with maybe_span(tracer, "generators.build"):
        dataset = make_au_like(spec.GRAPH_PAGES, seed=spec.GRAPH_SEED)
    with maybe_span(tracer, "core.global_pass"):
        prep = ApproxRankPreprocessor(dataset.graph)
    with maybe_span(tracer, "search.lexicon_build"):
        lexicon = SyntheticLexicon(
            dataset.graph, group_of=dataset.labels["domain"]
        )
    with maybe_span(tracer, "semantic.embed_build"):
        pipeline = SemanticPipeline(dataset.graph, lexicon, preprocessor=prep)
    return dataset, prep, lexicon, pipeline


def setup(inputs: Inputs, tracer: Tracer | None) -> State:
    from repro.estimation import resolve_estimator

    dataset, prep, lexicon, pipeline = build(tracer)
    state = State(
        dataset=dataset,
        graph=dataset.graph,
        prep=prep,
        lexicon=lexicon,
        pipeline=pipeline,
        engines={
            name: resolve_estimator(name)
            for name in (spec.PUSH_SPEC, spec.MONTECARLO_SPEC)
        },
    )
    for op in inputs.warmup:
        execute(state, op, None)
    return state


def teardown(state: State) -> None:
    """Nothing runs in the background; dropping the state frees it."""


def execute(state: State, op: ops.Op, tracer: Tracer | None) -> Answer:
    selection = None
    if op.family == "semantic":
        selection = state.pipeline.select(op.terms)
        nodes = selection.nodes
    else:
        with maybe_span(tracer, "subgraphs.select", family=op.family):
            nodes = ops.subgraph_nodes(op, state.dataset, state.graph)
    settings = solver_settings(op.damping)
    if op.estimator == "exact":
        scores = state.prep.rank(nodes, settings)
    else:
        scores = state.engines[op.estimator].estimate(
            state.graph, nodes, settings, state.prep
        )
    semantic = None
    if selection is not None:
        semantic = state.pipeline.finish(
            selection, scores, k=10,
            estimator_name=scores.extras.get("estimator", "exact"),
        )
    return Answer(scores=scores, selection=selection, semantic=semantic)


def apply_update(state: State, delta, tracer: Tracer | None) -> None:
    """What answers need before they reflect ``delta``."""
    from repro.core.precompute import ApproxRankPreprocessor
    from repro.semantic.pipeline import SemanticPipeline
    from repro.updates.delta import apply_delta

    with maybe_span(tracer, "updates.apply_delta"):
        graph = apply_delta(state.graph, delta)
    prep = ApproxRankPreprocessor(graph)
    state.pipeline = SemanticPipeline(
        graph, state.lexicon,
        embeddings=state.pipeline.embeddings, preprocessor=prep,
    )
    state.graph, state.prep = graph, prep


def verify(state: State, op: ops.Op, answer: Answer) -> None:
    """Check one answer against the graph it was computed on."""
    scores = answer.scores
    lam = scores.extras["lambda_score"]
    if op.estimator == "exact":
        reference = state.prep.rank(
            scores.local_nodes, solver_settings(op.damping)
        )
        checks.check_exact(scores.local_nodes, scores.scores, lam, reference)
    else:
        reference = state.prep.rank(
            scores.local_nodes,
            solver_settings(op.damping, spec.REFERENCE_TOLERANCE),
        )
        checks.check_estimate(
            op.estimator, scores.scores, lam,
            float(scores.extras["error_bound"]), reference,
        )
    if answer.selection is not None:
        again = state.pipeline.select(op.terms)
        if again.nodes.tobytes() != answer.selection.nodes.tobytes():
            raise checks.AnswerError("semantic selection is not repeatable")
        if op.estimator == "exact":
            expected = state.pipeline.finish(answer.selection, reference, k=10)
            got = [(h.page, h.score) for h in answer.semantic.hits]
            want = [(h.page, h.score) for h in expected.hits]
            if got != want:
                raise checks.AnswerError(
                    "semantic hits differ from the offline pipeline"
                )


def run_pass(
    state: State, inputs: Inputs, tracer: Tracer | None
) -> PassResult:
    from repro.perf.cache import GLOBAL_TRANSITION_CACHE

    result = PassResult()
    hits = misses = 0
    for number, phase in enumerate(inputs.phases):
        if number:
            quiesce()
            if tracer is not None:
                tracer.stage = "update"
            started = time.perf_counter()
            apply_update(state, inputs.deltas[number - 1], tracer)
            result.update_s.append(time.perf_counter() - started)
        answers = []
        quiesce()
        if tracer is not None:
            tracer.stage = "read"
        before = GLOBAL_TRANSITION_CACHE.stats()
        phase_start = time.perf_counter()
        for op in phase:
            started = time.perf_counter()
            try:
                with maybe_span(
                    tracer, "op", op_id=op.index, family=op.family,
                    estimator=op.estimator,
                ):
                    answer = execute(state, op, tracer)
            except Exception as exc:  # noqa: BLE001 — a failed read
                result.outcomes.append(Outcome(
                    op.index, time.perf_counter() - started, False,
                    error=repr(exc),
                ))
                continue
            answers.append((op, answer))
            result.outcomes.append(Outcome(
                op.index, time.perf_counter() - started, True,
                stale=op.estimator != "exact",
            ))
        result.read_wall_s += time.perf_counter() - phase_start
        after = GLOBAL_TRANSITION_CACHE.stats()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
        _verify_phase(state, answers, result, tracer)
    result.peak_rss_mb = vm_hwm_mb()
    if tracer is not None:
        result.layers = layers.library_layers(tracer)
        if hits + misses:
            result.layers["perf.cache.local_block_hit_ratio"] = (
                hits / (hits + misses)
            )
    return result


def _verify_phase(state, answers, result: PassResult, tracer) -> None:
    by_index = {o.index: o for o in result.outcomes}
    if tracer is not None:
        tracer.active = False
    try:
        for op, answer in answers:
            try:
                verify(state, op, answer)
            except checks.AnswerError as exc:
                result.wrong.append(f"{op.label}: {exc}")
                continue
            by_index[op.index].correct = True
    finally:
        if tracer is not None:
            tracer.active = True


def hook(tracer: Tracer) -> None:
    layers.hook_library(tracer)
