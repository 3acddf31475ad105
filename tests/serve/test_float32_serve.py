"""The float32 score mode reaches the serving tier.

With the process-default dtype set to float32, a served ``/rank`` —
whether solved alone or coalesced into a multi-damping batch — runs
the float32 kernels and lands within the documented
:func:`float32_l1_bound` of the float64 offline ``approxrank()``;
``/healthz`` reports the dtype.
"""

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.generators.datasets import make_tiny_web
from repro.obs.metrics import MetricsRegistry
from repro.pagerank.precision import float32_l1_bound, set_default_dtype
from repro.pagerank.solver import PowerIterationSettings
from repro.serve.batching import BatchPolicy
from repro.serve.client import RankingClient
from repro.serve.server import RankingService, start_background_server

pytestmark = pytest.mark.serve

SETTINGS = PowerIterationSettings(tolerance=1e-6)
NODES = list(range(30, 90))
LOCAL = np.asarray(NODES, dtype=np.int64)


@pytest.fixture(scope="module")
def web():
    return make_tiny_web(num_pages=300, seed=11)


@pytest.fixture
def float32_default():
    set_default_dtype("float32")
    yield
    set_default_dtype(None)


def _offline(web, damping: float, dtype: str):
    """Offline ApproxRank with the process default set to ``dtype``."""
    set_default_dtype(dtype)
    try:
        return approxrank(
            web.graph, LOCAL, replace(SETTINGS, damping=damping)
        )
    finally:
        set_default_dtype("float32")


def _bound(damping: float) -> float:
    return float32_l1_bound(len(NODES) + 1, SETTINGS.tolerance, damping)


@pytest.mark.usefixtures("float32_default")
class TestFloat32Serving:
    def test_healthz_reports_dtype(self, web):
        service = RankingService(
            web.graph, settings=SETTINGS, registry=MetricsRegistry()
        )
        with start_background_server(service) as handle:
            health = RankingClient(*handle.address).healthz()
        assert health["solver_dtype"] == "float32"

    def test_singleton_rank_runs_float32(self, web):
        service = RankingService(
            web.graph, settings=SETTINGS, registry=MetricsRegistry()
        )
        with start_background_server(service) as handle:
            wire = RankingClient(*handle.address).rank_scores(
                NODES, damping=0.85
            )
        exact = _offline(web, 0.85, "float64")
        gap = float(np.abs(wire.scores - exact.scores).sum())
        assert 0.0 < gap <= _bound(0.85)
        # A lone request is the offline path, so it is bit-identical
        # to the offline solve at the same dtype.
        assert np.array_equal(
            wire.scores, _offline(web, 0.85, "float32").scores
        )

    def test_multi_damping_batch_runs_float32(self, web):
        service = RankingService(
            web.graph,
            settings=SETTINGS,
            policy=BatchPolicy(max_batch_size=4, max_linger_seconds=5.0),
            registry=MetricsRegistry(),
        )
        dampings = [0.6, 0.7, 0.8, 0.85]

        async def main():
            outcomes = await asyncio.gather(
                *(service.rank(NODES, damping=d) for d in dampings)
            )
            await service.close()
            return outcomes

        for damping, (scores, cache_hit) in zip(
            dampings, asyncio.run(main())
        ):
            assert not cache_hit
            assert scores.extras["batched_columns"] == len(dampings)
            exact = _offline(web, damping, "float64")
            gap = float(np.abs(scores.scores - exact.scores).sum())
            assert 0.0 < gap <= _bound(damping)
