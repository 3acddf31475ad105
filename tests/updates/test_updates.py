"""Tests for incremental re-ranking after graph updates."""

import numpy as np
import pytest

from repro.exceptions import GraphError, SubgraphError
from repro.graph.builder import graph_from_edges
from repro.pagerank.globalrank import global_pagerank
from repro.pagerank.solver import PowerIterationSettings
from repro.updates.affected import affected_region, changed_pages
from repro.updates.delta import GraphDelta, apply_delta, random_region_delta
from repro.updates.rerank import incremental_rerank
from tests.conftest import random_digraph

pytestmark = pytest.mark.updates

SETTINGS = PowerIterationSettings(tolerance=1e-10)


class TestGraphDelta:
    def test_empty(self):
        assert GraphDelta().is_empty
        assert not GraphDelta(added_edges=((0, 1),)).is_empty

    def test_touched_sources(self):
        delta = GraphDelta(
            added_edges=((3, 1), (0, 2)),
            removed_edges=((3, 2),),
        )
        assert delta.touched_sources().tolist() == [0, 3]

    def test_rejects_negative_new_pages(self):
        with pytest.raises(GraphError, match="new_pages"):
            GraphDelta(new_pages=-1)


class TestApplyDelta:
    @pytest.fixture
    def graph(self):
        return graph_from_edges(4, [(0, 1), (1, 2), (2, 0)])

    def test_add_edge(self, graph):
        updated = apply_delta(graph, GraphDelta(added_edges=((0, 3),)))
        assert updated.has_edge(0, 3)
        assert updated.num_edges == 4

    def test_add_existing_edge_noop(self, graph):
        updated = apply_delta(graph, GraphDelta(added_edges=((0, 1),)))
        assert updated.num_edges == graph.num_edges
        assert updated.edge_weight(0, 1) == 1.0

    def test_remove_edge(self, graph):
        updated = apply_delta(
            graph, GraphDelta(removed_edges=((1, 2),))
        )
        assert not updated.has_edge(1, 2)
        assert updated.num_edges == 2

    def test_remove_missing_edge_rejected(self, graph):
        with pytest.raises(GraphError, match="missing edge"):
            apply_delta(graph, GraphDelta(removed_edges=((0, 3),)))

    def test_new_pages_appended(self, graph):
        delta = GraphDelta(new_pages=2, added_edges=((4, 0), (0, 5)))
        updated = apply_delta(graph, delta)
        assert updated.num_nodes == 6
        assert updated.has_edge(4, 0)
        assert updated.has_edge(0, 5)

    def test_rejects_self_loop(self, graph):
        with pytest.raises(GraphError, match="self-loop"):
            apply_delta(graph, GraphDelta(added_edges=((1, 1),)))

    def test_rejects_out_of_range(self, graph):
        with pytest.raises(GraphError, match="out of range"):
            apply_delta(graph, GraphDelta(added_edges=((0, 9),)))


class TestRandomRegionDelta:
    def test_confined_to_region(self):
        graph = random_digraph(100, seed=1)
        region = np.arange(20, 50)
        delta = random_region_delta(graph, region, added=15, seed=2)
        region_set = set(region.tolist())
        for source, target in delta.added_edges:
            assert source in region_set
            assert target in region_set

    def test_removals_existed(self):
        graph = random_digraph(100, seed=3)
        region = np.arange(0, 60)
        delta = random_region_delta(
            graph, region, added=0, removed=5, seed=4
        )
        for source, target in delta.removed_edges:
            assert graph.has_edge(source, target)

    def test_deterministic(self):
        graph = random_digraph(80, seed=5)
        region = np.arange(40)
        a = random_region_delta(graph, region, added=10, seed=6)
        b = random_region_delta(graph, region, added=10, seed=6)
        assert a == b

    def test_rejects_tiny_region(self):
        graph = random_digraph(10, seed=7)
        with pytest.raises(GraphError, match="at least 2"):
            random_region_delta(graph, np.array([3]), added=1)


class TestAffectedRegion:
    def test_changed_pages_row_diff(self):
        old = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        new = graph_from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert changed_pages(old, new).tolist() == [1]

    def test_changed_pages_includes_new_ids(self):
        old = graph_from_edges(3, [(0, 1)])
        new = graph_from_edges(5, [(0, 1), (3, 0)])
        assert changed_pages(old, new).tolist() == [3, 4]

    def test_changed_pages_rejects_shrink(self):
        old = graph_from_edges(5, [(0, 1)])
        new = graph_from_edges(3, [(0, 1)])
        with pytest.raises(GraphError, match="shrink"):
            changed_pages(old, new)

    def test_changed_pages_new_pages_and_changed_rows_combined(self):
        # Regression for the vectorised row diff: an update that BOTH
        # appends pages and rewrites existing rows must report the
        # union (the offset-gather compares only the shared prefix of
        # rows, and the new-id tail is concatenated afterwards).
        old = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        new = graph_from_edges(
            6, [(0, 1), (1, 2), (1, 4), (2, 3), (4, 0), (5, 1)]
        )
        assert changed_pages(old, new).tolist() == [1, 4, 5]

    def test_changed_pages_weight_only_change(self):
        # Equal row lengths with different weights: caught by the data
        # comparison, not the nnz-count shortcut.
        from repro.graph.builder import GraphBuilder

        def build(w01):
            builder = GraphBuilder(3)
            builder.add_edge(0, 1, w01)
            builder.add_edge(1, 2, 1.0)
            return builder.build()

        assert changed_pages(build(1.0), build(2.0)).tolist() == [0]

    def test_changed_pages_matches_naive_row_diff(self):
        # The vectorised diff agrees with a per-row reference loop on
        # a random churned graph (rows added, removed and reweighted).
        graph = random_digraph(150, seed=21)
        delta = random_region_delta(
            graph, np.arange(20, 80), added=40, removed=10, seed=22
        )
        updated = apply_delta(graph, delta)
        a, b = graph.adjacency, updated.adjacency

        def naive():
            out = []
            for row in range(graph.num_nodes):
                ra = slice(a.indptr[row], a.indptr[row + 1])
                rb = slice(b.indptr[row], b.indptr[row + 1])
                if (
                    not np.array_equal(a.indices[ra], b.indices[rb])
                    or not np.array_equal(a.data[ra], b.data[rb])
                ):
                    out.append(row)
            out.extend(range(graph.num_nodes, updated.num_nodes))
            return out

        assert changed_pages(graph, updated).tolist() == naive()

    def test_halo_expansion(self):
        # 0 -> 1 -> 2 -> 3 chain; change row of 0 only.
        old = graph_from_edges(5, [(0, 1), (1, 2), (2, 3)])
        new = graph_from_edges(5, [(0, 1), (0, 4), (1, 2), (2, 3)])
        assert affected_region(old, new, hops=0).tolist() == [0]
        assert affected_region(old, new, hops=1).tolist() == [0, 1, 4]
        assert affected_region(old, new, hops=2).tolist() == [
            0, 1, 2, 4,
        ]

    def test_delta_shortcut_matches_diff(self):
        graph = random_digraph(80, seed=8)
        region = np.arange(10, 30)
        delta = random_region_delta(graph, region, added=8, seed=9)
        updated = apply_delta(graph, delta)
        via_diff = affected_region(graph, updated, hops=1)
        via_delta = affected_region(graph, updated, hops=1, delta=delta)
        # The delta shortcut may include touched-but-unchanged sources
        # (an add that duplicated an existing edge), so it must be a
        # superset of the exact diff-based region.
        assert set(via_diff.tolist()) <= set(via_delta.tolist())

    def test_empty_update(self):
        graph = random_digraph(30, seed=10)
        assert affected_region(graph, graph, hops=2).size == 0


class TestIncrementalRerank:
    def test_tracks_full_recompute(self):
        graph = random_digraph(400, mean_degree=5.0, seed=11)
        old_truth = global_pagerank(graph, SETTINGS)
        region = np.arange(100, 160)
        delta = random_region_delta(graph, region, added=60, seed=12)
        updated = apply_delta(graph, delta)
        new_truth = global_pagerank(updated, SETTINGS)
        result = incremental_rerank(
            graph, updated, old_truth.scores, delta=delta,
            settings=SETTINGS,
        )
        error = float(np.abs(result.scores - new_truth.scores).sum())
        # A confined update leaves external scores nearly unchanged;
        # the spliced vector should be close to the fresh truth.
        assert error < 0.02
        assert result.scores.sum() == pytest.approx(1.0, abs=1e-9)

    def test_more_hops_more_accuracy(self):
        graph = random_digraph(300, seed=13)
        old_truth = global_pagerank(graph, SETTINGS)
        region = np.arange(50, 90)
        delta = random_region_delta(graph, region, added=80, seed=14)
        updated = apply_delta(graph, delta)
        new_truth = global_pagerank(updated, SETTINGS)
        errors = {}
        for hops in (0, 2):
            result = incremental_rerank(
                graph, updated, old_truth.scores, delta=delta,
                hops=hops, settings=SETTINGS,
            )
            errors[hops] = float(
                np.abs(result.scores - new_truth.scores).sum()
            )
        assert errors[2] <= errors[0] + 1e-9

    def test_new_pages_get_scores(self):
        graph = random_digraph(100, seed=15)
        old_truth = global_pagerank(graph, SETTINGS)
        delta = GraphDelta(
            new_pages=3,
            added_edges=((100, 5), (101, 100), (5, 102), (102, 101)),
        )
        updated = apply_delta(graph, delta)
        result = incremental_rerank(
            graph, updated, old_truth.scores, delta=delta,
            settings=SETTINGS,
        )
        assert result.scores.size == 103
        assert np.all(result.scores[100:] > 0)
        assert set([100, 101, 102]) <= set(result.region.tolist())

    def test_empty_delta_returns_old_scores(self):
        graph = random_digraph(50, seed=16)
        old_truth = global_pagerank(graph, SETTINGS)
        result = incremental_rerank(
            graph, graph, old_truth.scores, settings=SETTINGS
        )
        np.testing.assert_array_equal(result.scores, old_truth.scores)
        assert result.iterations == 0

    def test_rejects_wrong_score_length(self):
        graph = random_digraph(50, seed=17)
        with pytest.raises(GraphError, match="old_scores"):
            incremental_rerank(graph, graph, np.ones(10))

    def test_whole_graph_update_rejected(self):
        old = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        # Reverse every edge: all rows change.
        new = graph_from_edges(4, [(1, 0), (2, 1), (3, 2), (0, 3)])
        scores = np.full(4, 0.25)
        with pytest.raises(SubgraphError, match="whole graph"):
            incremental_rerank(old, new, scores, settings=SETTINGS)

    def test_region_is_small_fraction_of_graph(self):
        # The structural property behind the update scenario's cost
        # advantage: a confined update re-ranks a small region, not
        # the graph.  (Wall-clock wins only materialise at web scale,
        # where the global solve costs minutes; at test scale both
        # paths are milliseconds and constant factors dominate.)
        graph = random_digraph(3000, mean_degree=6.0, seed=18)
        old_truth = global_pagerank(graph, SETTINGS)
        region = np.arange(100, 200)
        delta = random_region_delta(graph, region, added=50, seed=19)
        updated = apply_delta(graph, delta)
        result = incremental_rerank(
            graph, updated, old_truth.scores, delta=delta,
            settings=SETTINGS,
        )
        assert result.region.size < 0.5 * graph.num_nodes
        assert result.iterations > 0


class TestWarmStartAndStaleness:
    """The incremental engine's warm-start and Theorem-2 accounting."""

    def _setup(self, n=400, seed=23):
        graph = random_digraph(n, mean_degree=5.0, seed=seed)
        old_truth = global_pagerank(graph, SETTINGS)
        region = np.arange(100, 160)
        delta = random_region_delta(
            graph, region, added=60, seed=seed + 1
        )
        updated = apply_delta(graph, delta)
        return graph, updated, delta, old_truth

    def test_warm_start_saves_iterations_and_matches_cold(self):
        graph, updated, delta, old_truth = self._setup()
        warm = incremental_rerank(
            graph, updated, old_truth.scores, delta=delta,
            settings=SETTINGS,
        )
        cold = incremental_rerank(
            graph, updated, old_truth.scores, delta=delta,
            settings=SETTINGS, warm_start=False,
        )
        assert warm.warm_start is True
        assert cold.warm_start is False
        assert cold.iterations_saved == 0
        assert warm.iterations_saved > 0
        assert warm.iterations <= cold.iterations
        # Both converged to the same fixed point within solver
        # truncation of one another.
        tol = 2 * SETTINGS.tolerance / (1.0 - SETTINGS.damping)
        error = float(np.abs(warm.scores - cold.scores).sum())
        assert error <= tol

    def test_staleness_charge_certifies_true_error(self):
        # The charge is a worst-case certificate: the spliced vector's
        # actual L1 distance from the fresh global truth must sit
        # under it (with the truth's own truncation slack).
        graph, updated, delta, old_truth = self._setup()
        result = incremental_rerank(
            graph, updated, old_truth.scores, delta=delta,
            settings=SETTINGS,
        )
        assert result.delta_e_bound > 0
        assert result.staleness_charge > 0
        damping = SETTINGS.damping
        assert result.staleness_charge >= (
            damping / (1.0 - damping) * result.delta_e_bound
        )
        new_truth = global_pagerank(updated, SETTINGS)
        error = float(
            np.abs(result.scores - new_truth.scores).sum()
        )
        slack = 2 * SETTINGS.tolerance / (1.0 - damping)
        assert error <= result.staleness_charge + slack

    def test_staleness_charge_bound_validates_damping(self):
        from repro.updates.rerank import staleness_charge_bound

        with pytest.raises(GraphError, match="damping"):
            staleness_charge_bound(0.1, 1.0)
        # Amplification + truncation + clamp compose additively.
        charge = staleness_charge_bound(
            0.06, 0.85, residual=0.015, float32_clamp=0.5
        )
        expected = 0.85 / 0.15 * 0.06 + 0.015 / 0.15 + 0.5
        assert charge == pytest.approx(expected)

    def test_empty_update_charges_nothing(self):
        graph = random_digraph(60, seed=27)
        old_truth = global_pagerank(graph, SETTINGS)
        result = incremental_rerank(
            graph, graph, old_truth.scores, settings=SETTINGS
        )
        assert result.staleness_charge == 0.0
        assert result.delta_e_bound == 0.0
        assert result.warm_start is False
        assert result.iterations_saved == 0
        assert result.dtype == ""

    def test_float32_backend_widens_charge_and_is_recorded(self):
        graph, updated, delta, old_truth = self._setup(seed=29)
        settings = PowerIterationSettings(tolerance=1e-6)
        wide = incremental_rerank(
            graph, updated, old_truth.scores, delta=delta,
            settings=settings, dtype="float64",
        )
        narrow = incremental_rerank(
            graph, updated, old_truth.scores, delta=delta,
            settings=settings, dtype="float32",
        )
        assert wide.dtype == "float64"
        assert narrow.dtype == "float32"
        # The float32 path must carry the documented roundoff clamp on
        # top of the shared perturbation + truncation terms.
        assert narrow.staleness_charge > wide.staleness_charge

    def test_rerank_emits_update_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        graph, updated, delta, old_truth = self._setup(seed=31)
        registry = MetricsRegistry()
        result = incremental_rerank(
            graph, updated, old_truth.scores, delta=delta,
            settings=SETTINGS, registry=registry,
        )
        families = registry.snapshot()["families"]
        assert "repro_update_regions_reranked_total" in families
        reranked = families["repro_update_regions_reranked_total"]
        assert reranked["samples"][0]["value"] == 1
        if result.iterations_saved:
            saved = families["repro_update_iterations_saved_total"]
            assert saved["samples"][0]["value"] == (
                result.iterations_saved
            )
