"""Pieces every workload shares: timing records, closed-loop clients,
HTTP, ``/metrics`` scraping, memory and statistics."""

from __future__ import annotations

import gc
import http.client
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Outcome:
    """What happened to one read.

    ``answered`` means a well-formed answer arrived; ``correct`` is set
    by the workload's checker after the read phase ends, and stays
    False for anything unanswered.
    """

    index: int
    latency_s: float
    answered: bool
    stale: bool = False
    correct: bool = False
    error: str = ""
    payload: object = field(default=None, repr=False)


@dataclass
class PassResult:
    """Everything one measured pass over the reads produced."""

    outcomes: list[Outcome] = field(default_factory=list)
    read_wall_s: float = 0.0
    update_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)


def quiesce() -> None:
    """Collect garbage so no collection lands inside a timed phase."""
    gc.collect()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def solver_settings(damping: float, tolerance: float | None = None):
    """Solver settings at ``damping``, with the library's default
    tolerance unless ``tolerance`` is given."""
    from repro.pagerank.solver import PowerIterationSettings

    if tolerance is None:
        return PowerIterationSettings(damping=damping)
    return PowerIterationSettings(damping=damping, tolerance=tolerance)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of a process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Connection:
    """One keep-alive HTTP/1.1 connection (one per client thread)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self._address = (host, port)
        self._timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                *self._address, timeout=self._timeout
            )
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def json(self, method: str, path: str, body: bytes | None = None):
        status, raw = self.request(method, path, body)
        if status != 200:
            raise RuntimeError(f"{method} {path} -> {status}: {raw[:200]!r}")
        return json.loads(raw)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def get(address, path: str) -> bytes:
    """One GET on a fresh connection; the body of a 200 answer."""
    conn = Connection(*address)
    try:
        status, raw = conn.request("GET", path)
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} -> {status}: {raw[:200]!r}")
    return raw


def scrape(address) -> dict:
    """``/metrics`` of one server, parsed into families."""
    from repro.obs.export import parse_prometheus_text

    return parse_prometheus_text(
        get(address, "/metrics").decode("utf-8")
    )["families"]


def family_total(families: dict, name: str, field_name: str = "value",
                 **labels) -> float:
    """Sum of one field over a family's samples matching ``labels``
    (``value`` for counters and gauges, ``sum``/``count`` for
    histograms); 0 for an absent family."""
    family = families.get(name)
    if family is None:
        return 0.0
    total = 0.0
    for sample in family["samples"]:
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += float(sample[field_name])
    return total


class MetricDeltas:
    """Movement of chosen ``/metrics`` fields, summed over a set of
    servers and over every read phase bracketed by :meth:`start` and
    :meth:`stop`.  ``fields`` are ``(family, field, labels)`` triples,
    ``field`` as in :func:`family_total`."""

    def __init__(self, fields):
        self.fields = tuple(fields)
        self.totals = [0.0] * len(self.fields)
        self._before: list[float] = []

    def _read(self, addresses) -> list[float]:
        values = [0.0] * len(self.fields)
        for address in addresses:
            families = scrape(address)
            for i, (name, field_name, labels) in enumerate(self.fields):
                values[i] += family_total(families, name, field_name, **labels)
        return values

    def start(self, addresses) -> None:
        self._before = self._read(addresses)

    def stop(self, addresses) -> None:
        after = self._read(addresses)
        self.totals = [
            t + a - b for t, a, b in zip(self.totals, after, self._before)
        ]

    def get(self, name: str, field_name: str = "value") -> float:
        """Total movement of one family field over all its label sets."""
        return sum(
            total
            for (n, f, __), total in zip(self.fields, self.totals)
            if n == name and f == field_name
        )


def wait_until(predicate, timeout: float, interval: float = 0.02) -> None:
    """Poll ``predicate`` until it holds.  Each poll is an HTTP request
    the system under test must answer on the same two CPUs, so the
    interval is coarse enough not to slow what is being waited for."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("condition not reached in time")
        time.sleep(interval)


class ClosedLoop:
    """``threads`` client threads draining one phase's ops at a time.

    Each thread owns one connection (``make_connection``) and sends
    its next op only after the previous answer arrived.  Phases are
    separated by a barrier: :meth:`run_phase` returns only when both
    threads are idle, so nothing the caller does between phases (an
    update, a check) overlaps a read.
    """

    def __init__(self, threads: int, make_connection, execute):
        self._execute = execute
        self._lock = threading.Lock()
        self._ops: list = []
        self._next = 0
        self._results: list[Outcome] = []
        self._stop = False
        self._start = threading.Barrier(threads + 1)
        self._done = threading.Barrier(threads + 1)
        self._threads = [
            threading.Thread(
                target=self._client, args=(make_connection(),),
                name=f"e2ebench-client-{i}", daemon=True,
            )
            for i in range(threads)
        ]
        for thread in self._threads:
            thread.start()

    def _take(self):
        with self._lock:
            if self._next >= len(self._ops):
                return None
            op = self._ops[self._next]
            self._next += 1
            return op

    def _client(self, conn) -> None:
        try:
            while True:
                self._start.wait()
                if self._stop:
                    return
                while (op := self._take()) is not None:
                    try:
                        outcome = self._execute(conn, op)
                    except Exception as exc:  # noqa: BLE001 — a failed op
                        outcome = Outcome(
                            op.index, 0.0, False, error=repr(exc)
                        )
                    with self._lock:
                        self._results.append(outcome)
                self._done.wait()
        finally:
            conn.close()

    def run_phase(self, ops: list) -> tuple[list[Outcome], float]:
        """Run ``ops`` to completion; returns outcomes (op order) and
        the phase's wall time."""
        self._ops, self._next, self._results = list(ops), 0, []
        quiesce()
        self._start.wait()
        started = time.perf_counter()
        self._done.wait()
        wall = time.perf_counter() - started
        return sorted(self._results, key=lambda o: o.index), wall

    def close(self) -> None:
        self._stop = True
        self._start.wait()
        for thread in self._threads:
            thread.join(timeout=30.0)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not stop")
