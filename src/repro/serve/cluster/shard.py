"""One shard worker: a :class:`RankingServer` with chaos hooks.

A shard worker is a full :class:`~repro.serve.server.RankingServer` —
it holds the **whole global graph**, so every answer it produces is
bit-identical to the offline solve (the cluster shards the *request
keyspace* for cache affinity, never the graph; see
:mod:`repro.serve.cluster`).  On top of the base server it adds:

* ``POST /update`` — apply a wire-shipped
  :class:`~repro.updates.delta.GraphDelta` and swap the served graph,
  so the router can fan one update out to every replica;
* the **serve-path fault injection sites** — each request is an
  opportunity for the armed :mod:`repro.resilience.faults` kinds
  (``kill_shard``, ``slow_shard``, ``drop_conn``, ``flap_health``),
  keyed by this worker's site name so each replica replays its own
  deterministic schedule.

Faults only ever *remove* behaviour (a missing response, a late
response, a failing health check) — they never alter score bytes, so
whatever survives them is either correct or visibly absent.  That is
what makes the chaos contract ("fresh, flagged-stale, or honest 503 —
never silently wrong") testable.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal

from repro.exceptions import GraphError, ReproError
from repro.resilience.faults import serve_fault_fires
from repro.serve.server import RankingServer, _JSON
from repro.updates.delta import GraphDelta

__all__ = ["ShardServer"]

log = logging.getLogger(__name__)


class _DropConnectionSignal(ConnectionResetError):
    """Raised through the request handler to sever the connection.

    Subclasses :class:`ConnectionResetError` so the base server's
    connection loop swallows it and closes the socket without writing
    a response — from the router's side the replica just vanished
    mid-request.
    """


class ShardServer(RankingServer):
    """A shard replica's HTTP server (see module docstring).

    Parameters
    ----------
    service:
        The replica's own :class:`~repro.serve.server.RankingService`.
    shard_id / replica_index:
        Position in the cluster; together they name the fault site
        (``shard-<id>``: faults are scheduled per shard, so a
        replica's schedule does not depend on how many siblings the
        shard has) and the log identity.
    process_mode:
        True when this server owns a whole worker process, making
        ``kill_shard`` a genuine ``SIGKILL``; in thread placement the
        crash is simulated by dropping the listening socket and every
        open connection.
    """

    ENDPOINTS: tuple[str, ...] = (
        "/rank", "/search", "/healthz", "/metrics", "/update"
    )

    def __init__(
        self,
        service,
        shard_id: int,
        replica_index: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        process_mode: bool = False,
        **kwargs,
    ):
        super().__init__(service, host=host, port=port, **kwargs)
        self.shard_id = int(shard_id)
        self.replica_index = int(replica_index)
        self.process_mode = bool(process_mode)
        self.crashed = False
        self._site = f"shard-{self.shard_id}"

    @property
    def name(self) -> str:
        return f"shard-{self.shard_id}/replica-{self.replica_index}"

    # ------------------------------------------------------------------
    # Simulated abrupt death (thread placement)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Die abruptly: stop listening, sever every connection.

        Must run on the server's own event loop.  In process mode the
        whole worker process is SIGKILLed instead — the real thing.
        """
        if self.process_mode:
            log.warning("%s: SIGKILL (injected kill_shard)", self.name)
            os.kill(os.getpid(), signal.SIGKILL)
            return
        log.warning(
            "%s: simulated crash — dropping listener and %d "
            "connection(s)",
            self.name,
            len(self._connections),
        )
        self.crashed = True
        if self._server is not None:
            self._server.close()
        current = asyncio.current_task()
        for task in list(self._connections):
            if task is not current:
                task.cancel()

    # ------------------------------------------------------------------
    # Routing (fault sites + /update)
    # ------------------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: dict[str, str] | None = None,
        query: str = "",
    ):
        if path in ("/rank", "/search"):
            # Injection sites: each ranked request is one opportunity
            # per kind, in a fixed order so the per-site schedule is
            # reproducible.
            if serve_fault_fires("kill_shard", self._site) is not None:
                self.crash()
                raise _DropConnectionSignal("injected kill_shard")
            spec = serve_fault_fires("slow_shard", self._site)
            if spec is not None:
                await asyncio.sleep(spec.delay)
            if serve_fault_fires("drop_conn", self._site) is not None:
                raise _DropConnectionSignal("injected drop_conn")
        elif path == "/healthz":
            if serve_fault_fires("flap_health", self._site) is not None:
                return 503, {
                    "status": "failing",
                    "error": "injected health flap",
                    "shard": self.shard_id,
                    "replica": self.replica_index,
                }, _JSON
        elif path == "/update":
            return await self._handle_update(method, body)
        return await super()._route(method, path, body, headers, query)

    async def _handle_update(self, method: str, body: bytes):
        if method != "POST":
            return 405, {"error": "use POST"}, _JSON
        try:
            request = self._parse_json(body)
            delta = GraphDelta.from_payload(
                request.get("delta", request)
            )
            report = await self.service.apply_update(delta)
        except (GraphError, ValueError) as exc:
            return 400, {
                "error": str(exc),
                "kind": type(exc).__name__,
            }, _JSON
        except ReproError as exc:
            return 500, {
                "error": str(exc),
                "kind": type(exc).__name__,
            }, _JSON
        return 200, {
            "graph_fingerprint": self.service.fingerprint[:16],
            "graph_nodes": self.service.graph.num_nodes,
            "graph_edges": self.service.graph.num_edges,
            "stale_entries": report.stale,
            "evicted": report.evicted,
            "staleness_charge": report.staleness_charge,
        }, _JSON
