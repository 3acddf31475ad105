"""In-memory spans recorded around calls into the system's layers.

The benchmark measures layers from outside: in a traced run it
wraps public functions and methods of the program (class attributes,
module globals) with timing shims for the duration of the run and
restores them afterwards.  Every call becomes a :class:`Span` with a
name, start, end, parent and op id.  Parents follow
:mod:`contextvars`, so nesting is tracked per thread and per asyncio
task; work handed to an executor thread starts a new root and is
joined to its request by the ``key`` attribute instead.

Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One timed call."""

    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op_id: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged before they
    are subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(
            children.get(span.span_id, ()), key=lambda c: c.start
        ):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = span.duration - covered
    return result


class Tracer:
    """Collects spans; patches layer entry points while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("e2ebench_span", default=None)
        )
        self._patches: list[tuple[object, str, object]] = []
        #: Stamped on every span opened (``setup``, ``read``, ``update``).
        self.stage = "setup"
        #: Shims call straight through while False (output checks).
        self.active = True

    def _open(self, name: str, op_id, attrs) -> tuple[Span, object]:
        parent = self._current.get()
        span = Span(
            span_id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=parent.span_id if parent is not None else None,
            op_id=op_id if op_id is not None else (
                parent.op_id if parent is not None else None
            ),
            attrs={"stage": self.stage, **attrs},
        )
        return span, self._current.set(span)

    def _close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, op_id: int | None = None, **attrs):
        """Time the enclosed block as one span; yields the span so the
        caller can attach attributes."""
        span, token = self._open(name, op_id, attrs)
        try:
            yield span
        finally:
            self._close(span, token)

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a timing shim until :meth:`restore`.

        ``describe(args, kwargs, result)`` may return attributes to
        record on the span (a node-set key, an iteration count).
        """
        original = getattr(owner, attr)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def shim(*args, **kwargs):
                if not tracer.active:
                    return await original(*args, **kwargs)
                span, token = tracer._open(name, None, {})
                try:
                    result = await original(*args, **kwargs)
                    if describe is not None:
                        span.attrs.update(describe(args, kwargs, result))
                    return result
                finally:
                    tracer._close(span, token)
        else:
            @functools.wraps(original)
            def shim(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                span, token = tracer._open(name, None, {})
                try:
                    result = original(*args, **kwargs)
                    if describe is not None:
                        span.attrs.update(describe(args, kwargs, result))
                    return result
                finally:
                    tracer._close(span, token)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, shim)

    @contextmanager
    def paused(self):
        """Record nothing inside the block."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def named(self, name: str, stage: str | None = None) -> list[Span]:
        with self._lock:
            return [
                s for s in self.spans
                if s.name == name
                and (stage is None or s.attrs.get("stage") == stage)
            ]

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total and self milliseconds."""
        with self._lock:
            spans = list(self.spans)
        own = self_times(spans)
        out: dict[str, dict] = {}
        for span in spans:
            row = out.setdefault(
                span.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            row["count"] += 1
            row["total_ms"] += span.duration * 1e3
            row["self_ms"] += own[span.span_id] * 1e3
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = [asdict(s) for s in self.spans]
        payload = {"summary": self.summary(), "spans": spans}
        path.write_text(json.dumps(payload, default=str) + "\n")


@contextmanager
def maybe_span(tracer: Tracer | None, name: str, op_id=None, **attrs):
    """``tracer.span`` when tracing, a no-op otherwise."""
    if tracer is None:
        yield None
        return
    with tracer.span(name, op_id=op_id, **attrs) as span:
        yield span
