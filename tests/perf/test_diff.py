"""Unit tests for the benchmark-record diff engine (bench-diff)."""

from __future__ import annotations

import json

import pytest

from repro.perf.diff import (
    DEFAULT_THRESHOLD,
    diff_records,
    format_diff,
    load_record,
)


def record(**overrides):
    base = {
        "benchmark": "parallel_rank_many",
        "created_unix": 1_700_000_000.0,
        "gate_passed": True,
        "sweep": [
            {"workers": 1, "seconds": 1.0, "speedup_vs_serial": 1.0},
            {"workers": 2, "seconds": 0.5, "speedup_vs_serial": 2.0},
        ],
        "best_speedup": 2.0,
    }
    base.update(overrides)
    return base


class TestClassification:
    def test_identical_records_report_nothing(self):
        report = diff_records(record(), record())
        assert report["regressions"] == []
        assert report["improvements"] == []
        assert report["neutral"] == []
        assert not report["gate_lost"]

    def test_slower_seconds_is_a_regression(self):
        new = record()
        new["sweep"][0]["seconds"] = 2.0
        report = diff_records(record(), new)
        assert len(report["regressions"]) == 1
        entry = report["regressions"][0]
        assert entry["metric"] == "sweep[workers=1].seconds"
        assert entry["change_pct"] == pytest.approx(100.0)

    def test_faster_seconds_is_an_improvement(self):
        new = record()
        new["sweep"][0]["seconds"] = 0.5
        report = diff_records(record(), new)
        assert report["regressions"] == []
        assert len(report["improvements"]) == 1

    def test_lower_speedup_is_a_regression(self):
        new = record(best_speedup=0.5)
        report = diff_records(record(), new)
        assert any(
            e["metric"] == "best_speedup"
            for e in report["regressions"]
        )

    def test_counts_are_neutral(self):
        old = record(cpu_count=4)
        new = record(cpu_count=8)
        report = diff_records(old, new)
        assert report["regressions"] == []
        assert any(
            e["metric"] == "cpu_count" for e in report["neutral"]
        )

    def test_noise_below_threshold_suppressed(self):
        new = record()
        new["sweep"][0]["seconds"] = 1.0 + DEFAULT_THRESHOLD / 2
        report = diff_records(record(), new)
        assert report["regressions"] == []
        tight = diff_records(record(), new, threshold=0.01)
        assert len(tight["regressions"]) == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            diff_records(record(), record(), threshold=-0.1)


def estimation_record(**point_overrides):
    base = {
        "estimator": "montecarlo",
        "walks": 20000,
        "error_inf": 1e-3,
        "edges_touched": 5000,
        "edges_fraction": 0.04,
        "seconds": 0.5,
    }
    base.update(point_overrides)
    return {
        "benchmark": "estimation",
        "gate_passed": True,
        "sweep": [base],
    }


class TestEstimationDirections:
    """Per-benchmark overrides: error/edges regress when they grow."""

    def test_larger_error_is_a_regression(self):
        report = diff_records(
            estimation_record(), estimation_record(error_inf=2e-3)
        )
        assert any(
            e["metric"].endswith("error_inf")
            for e in report["regressions"]
        )

    def test_fewer_edges_touched_is_an_improvement(self):
        report = diff_records(
            estimation_record(),
            estimation_record(edges_touched=2500, edges_fraction=0.02),
        )
        assert report["regressions"] == []
        improved = {e["metric"] for e in report["improvements"]}
        assert any(m.endswith("edges_touched") for m in improved)
        assert any(m.endswith("edges_fraction") for m in improved)

    def test_sweep_points_keyed_by_estimator_and_parameter(self):
        report = diff_records(
            estimation_record(), estimation_record(error_inf=2e-3)
        )
        metric = report["regressions"][0]["metric"]
        assert metric.startswith("sweep[montecarlo/walks=20000]")

    def test_overrides_scoped_to_the_estimation_benchmark(self):
        # The same leaf names stay neutral in other benchmarks.
        old = record(error_inf=1e-3)
        new = record(error_inf=2e-3)
        report = diff_records(old, new)
        assert report["regressions"] == []
        assert any(
            e["metric"] == "error_inf" for e in report["neutral"]
        )


class TestStructure:
    def test_list_entries_keyed_by_label_not_position(self):
        # Reordering sweep cells must not produce phantom changes.
        new = record()
        new["sweep"] = list(reversed(new["sweep"]))
        report = diff_records(record(), new)
        assert report["regressions"] == []
        assert report["improvements"] == []
        assert report["neutral"] == []

    def test_one_sided_metrics_reported(self):
        new = record()
        new["sweep"].append(
            {"workers": 4, "seconds": 0.4, "speedup_vs_serial": 2.5}
        )
        report = diff_records(record(), new)
        assert any(
            path.startswith("sweep[workers=4]")
            for path in report["only_in_new"]
        )
        assert report["only_in_old"] == []

    def test_timestamps_ignored(self):
        new = record(created_unix=1_800_000_000.0)
        report = diff_records(record(), new)
        assert report["neutral"] == []

    def test_gate_lost_detected(self):
        report = diff_records(record(), record(gate_passed=False))
        assert report["gate_lost"]
        assert not diff_records(
            record(gate_passed=False), record()
        )["gate_lost"]

    def test_mismatched_benchmarks_flagged(self):
        other = record(benchmark="solver_kernels")
        report = diff_records(record(), other)
        assert not report["comparable"]
        assert "different benchmarks" in format_diff(report)


class TestFormatting:
    def test_report_mentions_gate_transition(self):
        text = format_diff(diff_records(record(), record(gate_passed=False)))
        assert "PASS -> FAIL" in text
        assert "REGRESSED" in text

    def test_quiet_diff_says_so(self):
        text = format_diff(diff_records(record(), record()))
        assert "no changes above the noise threshold" in text


class TestLoadRecord:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(record()), encoding="utf-8")
        assert load_record(str(path))["benchmark"] == "parallel_rank_many"

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ValueError, match="must be an object"):
            load_record(str(path))
