"""Tier-2 performance gate: the kernel benchmark in smoke mode.

Excluded from the tier-1 run by the ``tier2`` marker (see
``pyproject.toml``); CI runs it via ``make test-tier2`` or
``make bench-kernels-smoke``.  The gate fails when the batched solver
is slower than K sequential single solves on the smoke workload, when
the in-place kernels allocate as much as the legacy step, or when the
float32 solve leaves its documented L1 bound.
"""

import pytest

from repro.pagerank.precision import float32_l1_bound
from repro.perf.bench import run_kernel_benchmark

pytestmark = pytest.mark.tier2


@pytest.fixture(scope="module")
def smoke_record():
    return run_kernel_benchmark(smoke=True, output_path=None)


class TestSmokeGate:
    def test_gate_passes(self, smoke_record):
        assert smoke_record["gate_passed"], (
            "smoke gate failed: "
            f"speedup={smoke_record['batched']['speedup_vs_single']:.2f}x, "
            f"kernel_peak={smoke_record['allocations']['kernel_peak_bytes']}B "
            f"vs legacy_peak={smoke_record['allocations']['legacy_peak_bytes']}B"
        )

    def test_batched_not_slower_than_sequential(self, smoke_record):
        assert (
            smoke_record["batched"]["seconds"]
            < smoke_record["single"]["seconds"]
        )

    def test_batched_matches_single_scores(self, smoke_record):
        tolerance = smoke_record["workload"]["tolerance"]
        assert smoke_record["batched"]["max_l1_gap_vs_single"] < tolerance

    def test_kernels_allocate_less_than_legacy(self, smoke_record):
        alloc = smoke_record["allocations"]
        assert alloc["kernel_peak_bytes"] < alloc["legacy_peak_bytes"]

    def test_batched_saves_matrix_sweeps(self, smoke_record):
        assert (
            smoke_record["batched"]["matrix_sweeps"]
            < smoke_record["single"]["total_iterations"]
        )

    def test_cache_warm_lookup_is_cheap(self, smoke_record):
        cache = smoke_record["cache"]
        assert cache["transpose_warm_seconds"] < cache["transpose_cold_seconds"]
        assert (
            cache["local_block_warm_seconds"]
            < cache["local_block_cold_seconds"]
        )

    def test_float32_within_documented_bound(self, smoke_record):
        workload = smoke_record["workload"]
        f32 = smoke_record["float32"]
        assert f32["l1_bound"] == float32_l1_bound(
            workload["pages"], workload["tolerance"], workload["damping"]
        )
        assert f32["within_bound"]
        assert 0.0 < f32["l1_gap_vs_float64"] <= f32["l1_bound"]
