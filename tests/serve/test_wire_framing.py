"""Request framing on the wire, for a RankingServer and a ShardRouter.

A ``Content-Length`` that is not plain decimal digits leaves the body's
extent unknown: the server must answer 400 and close that connection,
and keep serving everyone else bit-identically.  The query string comes
only from the request target, never from a client header.
"""

import json
import socket

import numpy as np
import pytest

from repro.core.approxrank import approxrank
from repro.generators.datasets import make_tiny_web
from repro.obs.export import parse_prometheus_text
from repro.pagerank.solver import PowerIterationSettings
from repro.serve.client import RankingClient
from repro.serve.cluster import start_cluster
from repro.serve.server import RankingService, start_background_server

pytestmark = pytest.mark.serve

SETTINGS = PowerIterationSettings(tolerance=1e-9)
NODES = list(range(20, 60))


@pytest.fixture(scope="module")
def web():
    return make_tiny_web(num_pages=240, seed=5)


@pytest.fixture(scope="module")
def offline(web):
    return approxrank(
        web.graph, np.asarray(NODES, dtype=np.int64), SETTINGS
    )


@pytest.fixture(scope="module", params=["server", "router"])
def address(request, web):
    if request.param == "server":
        service = RankingService(web.graph, settings=SETTINGS)
        with start_background_server(service) as handle:
            yield handle.address
    else:
        with start_cluster(
            web.graph,
            num_shards=2,
            replicas_per_shard=1,
            placement="thread",
            manager_kwargs={"settings": SETTINGS},
        ) as handle:
            yield handle.address


def _exchange(address, request: bytes) -> tuple[int, dict, bytes]:
    """Send raw bytes, read until the server closes the connection."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split(" ")[1]), headers, body


def _unknown_400s(address) -> float:
    text = RankingClient(*address).metrics_text()
    family = parse_prometheus_text(text)["families"].get(
        "repro_serve_requests_total", {"samples": []}
    )
    return sum(
        sample["value"]
        for sample in family["samples"]
        if sample["labels"] == {"endpoint": "unknown", "status": "400"}
    )


@pytest.mark.parametrize("value", ["abc", "-5", ""])
def test_bad_content_length_is_400_then_serving_continues(
    address, offline, value
):
    before = _unknown_400s(address)
    status, headers, body = _exchange(
        address,
        (
            "POST /rank HTTP/1.1\r\n"
            "Host: test\r\n"
            f"Content-Length: {value}\r\n"
            "\r\n"
        ).encode("latin-1"),
    )
    assert status == 400
    assert headers["connection"] == "close"
    assert "Content-Length" in json.loads(body)["error"]
    assert _unknown_400s(address) == before + 1

    wire = RankingClient(*address).rank_scores(NODES)
    assert np.array_equal(wire.scores, offline.scores)
    assert not wire.extras.get("stale")


def test_query_header_from_client_is_ignored(address, offline):
    body = json.dumps({"nodes": NODES}).encode("utf-8")
    status, __, payload = _exchange(
        address,
        (
            "POST /rank HTTP/1.1\r\n"
            "Host: test\r\n"
            "Connection: close\r\n"
            "x-repro-query: estimator=montecarlo\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1") + body,
    )
    assert status == 200
    answer = json.loads(payload)
    assert answer["scores"] == offline.scores.tolist()
    assert "estimator" not in answer
    assert "estimated" not in answer
    assert answer["stale"] is False
