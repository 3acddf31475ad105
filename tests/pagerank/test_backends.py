"""Tests for the solver precision switch (float64 default, float32 mode).

Three load-bearing guarantees:

* **Bit-identity of the default path** — an explicit ``dtype="float64"``
  solve reproduces the default solve byte for byte.
* **Float32 agreement** — the float32 score mode agrees with float64
  within the documented :func:`float32_l1_bound`.
* **Caller-invisible relabeling** — the degree-ordered CSR layout of
  the float32 mode is an internal detail; scores always come back
  float64 in original node order.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.graph.relabel import (
    degree_order_permutation,
    inverse_permutation,
    permute_csr,
    permute_vector,
    restore_vector,
)
from repro.obs.metrics import REGISTRY
from repro.pagerank.precision import (
    default_dtype,
    effective_tolerance,
    float32_l1_bound,
    prepare,
    resolve_dtype,
    set_default_dtype,
)
from repro.pagerank.solver import (
    PowerIterationSettings,
    power_iteration,
    uniform_teleport,
)
from repro.pagerank.transition import transition_matrix_transpose

DTYPES = ["float64", "float32"]


def _cell_id(dtype: str) -> str:
    """Sweep-cell id: the scipy reference kernels at one dtype."""
    return f"reference-{dtype}"


@pytest.fixture
def restore_default_dtype():
    """Reset the process-default dtype to ``REPRO_DTYPE`` afterwards."""
    yield
    set_default_dtype(None)


def solve(graph, dtype=None, settings=None):
    transition_t, dangling = transition_matrix_transpose(graph)
    return power_iteration(
        transition_t,
        teleport=uniform_teleport(graph.num_nodes),
        dangling_mask=dangling,
        settings=settings or PowerIterationSettings(),
        dtype=dtype,
    )


@pytest.mark.usefixtures("restore_default_dtype")
class TestDefaultSelection:
    def test_env_spec_drives_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        set_default_dtype(None)
        assert default_dtype() == np.dtype(np.float32)

    def test_set_default_dtype_none_resets_to_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        set_default_dtype("float32")
        assert default_dtype() == np.dtype(np.float32)
        set_default_dtype(None)
        assert default_dtype() == np.dtype(np.float64)

    def test_default_dtype_drives_solves(self, messy_graph):
        explicit = solve(messy_graph, dtype="float32")
        set_default_dtype("float32")
        implicit = solve(messy_graph)
        assert np.array_equal(explicit.scores, implicit.scores)

    def test_bad_dtype_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="float32/float64"):
            resolve_dtype("float16")
        monkeypatch.setenv("REPRO_DTYPE", "int8")
        set_default_dtype(None)
        with pytest.raises(ValueError, match="REPRO_DTYPE"):
            default_dtype()

    def test_info_gauge_marks_only_the_default(self):
        set_default_dtype("float32")
        set_default_dtype("float64")
        name = "repro_solver_dtype_info"
        assert REGISTRY.value(name, dtype="float64") == 1.0
        assert REGISTRY.value(name, dtype="float32") == 0.0


class TestAgreement:
    @pytest.mark.parametrize("dtype", DTYPES, ids=_cell_id)
    def test_cell_agrees_with_reference_f64(self, dtype, messy_graph):
        baseline = solve(messy_graph)  # default: float64
        outcome = solve(messy_graph, dtype=dtype)
        gap = float(np.abs(outcome.scores - baseline.scores).sum())
        if dtype == "float64":
            assert gap == 0.0
        else:
            settings = PowerIterationSettings()
            bound = float32_l1_bound(
                messy_graph.num_nodes,
                settings.tolerance,
                settings.damping,
            )
            assert gap <= bound

    @pytest.mark.parametrize("dtype", DTYPES, ids=_cell_id)
    def test_scores_are_float64_and_normalised(self, dtype, messy_graph):
        outcome = solve(messy_graph, dtype=dtype)
        assert outcome.scores.dtype == np.dtype(np.float64)
        assert outcome.scores.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(outcome.scores > 0)

    def test_reference_f64_is_bit_identical_to_default(
        self, messy_graph, tight_settings
    ):
        explicit = solve(
            messy_graph, dtype="float64", settings=tight_settings
        )
        implicit = solve(messy_graph, settings=tight_settings)
        assert np.array_equal(explicit.scores, implicit.scores)


class TestFloat32Mode:
    def test_tolerance_floor_clamps_only_float32(self):
        assert effective_tolerance(1e-12, 10_000, "float64") == 1e-12
        assert effective_tolerance(1e-12, 10_000, "float32") > 1e-12
        assert effective_tolerance(1e-3, 10_000, "float32") == 1e-3

    def test_bound_grows_with_size(self):
        settings = PowerIterationSettings()
        small = float32_l1_bound(100, settings.tolerance, settings.damping)
        large = float32_l1_bound(
            10**8, settings.tolerance, settings.damping
        )
        assert 0 < small <= large

    def test_float32_uses_degree_layout(self, messy_graph):
        transition_t, __ = transition_matrix_transpose(messy_graph)
        prepared = prepare(transition_t, "float32")
        assert prepared.perm is not None
        assert not prepared.identity
        assert prepared.matrix.dtype == np.dtype(np.float32)
        assert prepare(transition_t, "float64").matrix is transition_t

    def test_prepare_is_memoised_per_matrix(self, messy_graph):
        transition_t, __ = transition_matrix_transpose(messy_graph)
        assert prepare(transition_t, "float32") is prepare(
            transition_t, "float32"
        )


class TestRelabel:
    def test_permutation_orders_by_descending_degree(self):
        matrix = sparse.csr_matrix(
            np.array(
                [
                    [0.0, 1.0, 0.0],
                    [1.0, 1.0, 1.0],
                    [0.0, 0.0, 0.0],
                ]
            )
        )
        perm = degree_order_permutation(matrix)
        assert perm.tolist() == [1, 0, 2]

    def test_permute_csr_round_trips(self, messy_graph):
        transition_t, __ = transition_matrix_transpose(messy_graph)
        perm = degree_order_permutation(transition_t)
        inv = inverse_permutation(perm)
        relabeled = permute_csr(transition_t, perm)
        restored = permute_csr(relabeled, inv)
        assert np.array_equal(
            restored.toarray(), transition_t.toarray()
        )

    def test_vector_restore_inverts_permute(self):
        rng = np.random.default_rng(0)
        vector = rng.random(50)
        perm = rng.permutation(50)
        relabeled = permute_vector(vector, perm)
        assert np.array_equal(restore_vector(relabeled, perm), vector)

    def test_relabeled_solve_returns_original_order(self, messy_graph):
        # The visible contract: the degree-relabeled float32 solve must
        # hand back scores indexed by the caller's node ids.
        baseline = solve(messy_graph)
        relabeled = solve(messy_graph, dtype="float32")
        # Same top domain structure: ranking of the clear winners agrees.
        top = np.argsort(baseline.scores)[-5:]
        settings = PowerIterationSettings()
        bound = float32_l1_bound(
            messy_graph.num_nodes, settings.tolerance, settings.damping
        )
        assert float(
            np.abs(relabeled.scores[top] - baseline.scores[top]).sum()
        ) <= bound
