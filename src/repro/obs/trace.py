"""Lightweight span tracing for the commit pipeline and the wire.

A :class:`Tracer` keeps a ring buffer of *completed* root traces, each a
plain JSON-codable dict::

    {"name": "server.dispatch", "start": ..., "end": ...,
     "duration": ..., "tags": {"op": "commit"},
     "spans": [ ...child dicts, same shape... ]}

Three entry points, cheapest first:

* ``tracer.record(trace)`` — append a prebuilt dict.  The store engine
  uses this on the commit hot path: it captures raw timestamps inline
  and assembles the trace *after* the critical section, so tracing
  costs one dict build + one deque append per commit.
* ``tracer.event(name, tags)`` — a zero-duration marker; the fault
  harness stamps injected faults into the same timeline this way.
* ``tracer.span(name, **tags)`` — a context manager for structural
  paths (server dispatch, replica sync, elections).  Spans nest via a
  thread-local stack: a span entered while another is open on the same
  thread becomes its child and folds into the parent's dict on exit;
  only root spans land in the ring.

:data:`NULL_TRACER` is the disabled tracer: ``span`` returns a shared
inert context manager, ``record``/``event`` drop their input, queries
return empty.  Code holds a tracer attribute unconditionally and never
branches on enablement.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "TRACE_RING"]

#: How many recent root traces a :class:`Tracer` keeps.
TRACE_RING = 256


class Span:
    """One timed section; its own context manager (no contextlib
    indirection on the serving path)."""

    __slots__ = ("tracer", "name", "tags", "start", "end", "parent",
                 "children")

    def __init__(self, tracer: "Tracer", name: str, tags: dict):
        self.tracer = tracer
        self.name = name
        self.tags = tags
        self.start = 0.0
        self.end = 0.0
        self.parent: Span | None = None
        self.children: list[dict] = []

    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        stack.append(self)
        self.start = self.tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        self.end = self.tracer.clock()
        stack = self.tracer._stack()
        # Robust under interleaving (asyncio callbacks can close spans
        # out of order): remove this span wherever it sits, not only
        # when it is the top of the stack.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break
        done = self.to_dict()
        if self.parent is not None:
            self.parent.children.append(done)
        else:
            self.tracer.record(done)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.end - self.start,
            "tags": self.tags,
            "spans": self.children,
        }


class Tracer:
    """Ring buffer of recent traces with thread-local span nesting."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._ring: deque[dict] = deque(maxlen=TRACE_RING)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **tags) -> Span:
        return Span(self, name, tags)

    def record(self, trace: dict) -> None:
        """Append a prebuilt trace dict to the ring (the fast path)."""
        with self._lock:
            self._ring.append(trace)

    def event(self, name: str, tags: dict | None = None) -> dict:
        """A zero-duration marker in the same timeline as the spans."""
        now = self.clock()
        trace = {"name": name, "start": now, "end": now, "duration": 0.0,
                 "tags": dict(tags) if tags else {}, "spans": []}
        self.record(trace)
        return trace

    def recent(self, n: int | None = None) -> list[dict]:
        """The most recent traces, oldest first (last ``n`` if given)."""
        with self._lock:
            items = list(self._ring)
        return items if n is None else items[len(items) - min(n, len(items)):]

    def slowest(self, n: int = 5) -> list[dict]:
        """The ``n`` longest recent traces, slowest first."""
        with self._lock:
            items = list(self._ring)
        items.sort(key=lambda t: -t["duration"])
        return items[:n]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)


class _NullSpan:
    """A shared inert context manager; do not mutate its ``tags``."""

    __slots__ = ()
    name = ""
    start = 0.0
    end = 0.0
    duration = 0.0

    @property
    def tags(self) -> dict:
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """Tracer-shaped nothing: the zero-cost disabled path."""

    enabled = False
    _span = _NullSpan()

    def span(self, name: str, **tags) -> _NullSpan:
        return self._span

    def record(self, trace: dict) -> None:
        return None

    def event(self, name: str, tags: dict | None = None) -> None:
        return None

    def recent(self, n: int | None = None) -> list[dict]:
        return []

    def slowest(self, n: int = 5) -> list[dict]:
        return []

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
