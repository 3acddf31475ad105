"""Tests of the benchmark itself: inputs, names, spans and checks."""

import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from e2ebench import checks, ops, spec
from e2ebench.spans import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def dataset():
    from repro.generators.datasets import make_au_like

    return make_au_like(20_000, seed=spec.GRAPH_SEED)


@pytest.fixture(scope="module")
def info(dataset):
    return ops.GraphInfo.from_dataset(dataset)


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_same_seed_same_reads_other_seed_other_reads(workload, info):
    first = ops.plan_reads(workload, 3, 200, info)
    again = ops.plan_reads(workload, 3, 200, info)
    other = ops.plan_reads(workload, 4, 200, info)
    assert [op.label for op in first] == [op.label for op in again]
    assert [op.label for op in first] != [op.label for op in other]
    assert [op.index for op in first] == list(range(200))


def test_same_seed_same_deltas_and_warmup(dataset, info):
    def deltas(seed):
        return ops.plan_deltas(seed, 3, dataset.graph, dataset)

    assert deltas(5) == deltas(5)
    assert deltas(5) != deltas(6)
    for workload in spec.WORKLOADS:
        assert ops.plan_warmup(workload, 5, info) == ops.plan_warmup(
            workload, 5, info
        )


def test_deltas_apply_in_sequence(dataset):
    from repro.updates.delta import apply_delta

    graph = dataset.graph
    for delta in ops.plan_deltas(9, 4, dataset.graph, dataset):
        assert len(delta.added_edges) == spec.UPDATE_ADDED_EDGES
        assert len(delta.removed_edges) == spec.UPDATE_REMOVED_EDGES
        graph = apply_delta(graph, delta)
    assert graph.num_edges == dataset.graph.num_edges + 4 * (
        spec.UPDATE_ADDED_EDGES - spec.UPDATE_REMOVED_EDGES
    )


def test_mixes_are_exact_shares(info):
    reads = ops.plan_offline(1, 500, info)
    families = {f: sum(op.family == f for op in reads) for f, __ in
                ops.OFFLINE_FAMILIES}
    assert families == {"bfs": 250, "domain": 125, "semantic": 100,
                        "frontier": 25}
    bfs = [op for op in reads if op.family == "bfs"]
    assert sum(op.estimator == "exact" for op in bfs) == 175
    cold = ops.plan_serve_cold(1, 500, info)
    assert sum(op.family == "semantic" for op in cold) == 100
    assert sum(op.estimator == spec.PUSH_SPEC for op in cold) == 50
    keys = [op.label.split("|")[0] for op in cold]
    assert len(set(keys)) == len(keys), "serve-cold repeats a subgraph"


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_every_phase_is_dealt_the_same_mix(workload, info):
    phases = spec.WORKLOADS[workload].phases
    reads = ops.plan_reads(workload, 1, 401, info)
    cut = ops.split_phases(reads, phases)
    assert [len(p) for p in cut] == ops.phase_sizes(401, phases)
    keys = [lambda op: op.label]
    if workload != "fleet-hot":  # fleet-hot is dealt by popularity rank
        keys.append(lambda op: (op.family, op.estimator))
    for key in keys:
        mixes = [Counter(map(key, p)) for p in cut]
        for value in set().union(*mixes):
            counts = [mix[value] for mix in mixes]
            assert max(counts) - min(counts) <= 1, (key, value, counts)


def test_warmup_never_touches_measured_keys(info):
    for workload in ("offline", "serve-cold"):
        measured = ops.plan_reads(workload, 2, 300, info)
        warm = ops.plan_warmup(workload, 2, info)
        seeds = {op.seed_page for op in measured if op.family == "bfs"}
        terms = {t for op in measured for t in op.terms}
        assert not seeds & {op.seed_page for op in warm if op.family == "bfs"}
        assert not terms & {t for op in warm for t in op.terms}
    hot = ops.hot_set(2, info)
    warm = ops.plan_warmup("fleet-hot", 2, info)
    assert not {op.seed_page for op in hot} & {op.seed_page for op in warm}


def test_hot_set_reads_each_size_class_equally(info):
    counts = np.bincount(ops.plan_fleet_hot(1, 4000, 64), minlength=64)
    again = np.bincount(ops.plan_fleet_hot(2, 4000, 64), minlength=64)
    # Only reads whose slice straddles a rank boundary can move.
    assert np.abs(counts - again).max() <= 2
    assert counts[0] > counts[-1] > 0


def test_metric_names_and_units():
    names = [m.name for m in spec.END_TO_END] + [
        m.name for m in spec.PER_LAYER
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert NAME.match(name), name
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.match(metric.unit), metric.unit
        assert metric.better in ("lower", "higher")
    end_to_end = {m.name for m in spec.END_TO_END}
    for layer in spec.PER_LAYER:
        assert set(layer.moves) <= end_to_end, layer.name
        assert set(layer.workloads) <= set(spec.WORKLOADS), layer.name


def test_benchmark_json_matches_spec():
    record = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(record) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in record["workloads"]] == list(spec.WORKLOADS)
    for entry in record["workloads"]:
        assert entry["why"] == spec.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    assert record["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert record["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER
    ]
    setup = [m for m in spec.END_TO_END if m.name == "setup_s"][0]
    assert setup.bound == max(m.bound for m in spec.END_TO_END) <= 0.25


def test_self_time_on_hand_built_tree():
    spans = [
        Span(1, "op", start=0.0, end=10.0),
        Span(2, "assembly", start=1.0, end=4.0, parent=1),
        Span(3, "solve", start=3.0, end=7.0, parent=1),  # overlaps 2
        Span(4, "normalize", start=1.5, end=2.0, parent=2),
        Span(5, "late", start=9.0, end=12.0, parent=1),  # runs past 1
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (7.0 - 1.0) - (10.0 - 9.0))
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(0.5)
    assert own[5] == pytest.approx(3.0)


def test_tracer_nests_and_restores():
    class Layer:
        def work(self, x):
            return x + 1

    original = Layer.__dict__["work"]
    tracer = Tracer()
    tracer.wrap(Layer, "work", "layer.work",
                describe=lambda a, k, r: {"result": r})
    with tracer.span("op", op_id=7):
        assert Layer().work(1) == 2
    with tracer.paused():
        Layer().work(5)
    tracer.restore()
    Layer().work(9)
    (op,) = tracer.named("op")
    (work,) = tracer.named("layer.work")
    assert work.parent == op.span_id and work.op_id == 7
    assert work.attrs["result"] == 2
    assert Layer.__dict__["work"] is original


def _reference(size=5, seed=0):
    from repro.pagerank.result import SubgraphScores

    rng = np.random.default_rng(seed)
    vector = rng.random(size + 1)
    vector /= vector.sum()
    return SubgraphScores(
        local_nodes=np.arange(size, dtype=np.int64),
        scores=vector[:size].copy(),
        method="approxrank",
        iterations=10,
        residual=0.0,
        converged=True,
        runtime_seconds=0.0,
        extras={"lambda_score": float(vector[size])},
    )


def test_checker_accepts_the_reference_and_rejects_a_perturbation():
    ref = _reference()
    lam = ref.extras["lambda_score"]
    checks.check_exact(ref.local_nodes, ref.scores.tolist(), lam, ref)
    perturbed = ref.scores.copy()
    perturbed[2] = np.nextafter(perturbed[2], 1.0)
    with pytest.raises(checks.AnswerError, match="bit-identical"):
        checks.check_exact(ref.local_nodes, perturbed, lam, ref)
    with pytest.raises(checks.AnswerError, match="node set"):
        checks.check_exact(ref.local_nodes + 1, ref.scores, lam, ref)


def test_checker_holds_estimates_to_their_certificate():
    ref = _reference()
    lam = ref.extras["lambda_score"]
    estimate = ref.scores.copy()
    estimate[0] += 1e-4
    error = checks.check_estimate(spec.PUSH_SPEC, estimate, lam, 2e-4, ref)
    assert error == pytest.approx(1e-4)
    with pytest.raises(checks.AnswerError, match="certificate"):
        checks.check_estimate(spec.PUSH_SPEC, estimate, lam, 5e-5, ref)
    with pytest.raises(checks.AnswerError, match="negative"):
        checks.check_distribution([-1e-3, 0.5], 0.501, 1e-2)


def test_checker_rejects_an_over_budget_stale_answer():
    checks.check_stale(0.4, 1.0)
    with pytest.raises(checks.AnswerError, match="over the budget"):
        checks.check_stale(1.0 + 1e-12, 1.0)
    with pytest.raises(checks.AnswerError):
        checks.check_stale(float("nan"), 1.0)
