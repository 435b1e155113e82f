"""Outside-in span recording for the benchmark's traced run.

The program is not edited to be traced.  Instead :class:`Recorder`
replaces a public name *where its caller looks it up* — a class
attribute (``StoreEngine.commit``) or a module global
(``repro.store.engine.validate_changes``, ``repro.server.server
.encode_frame``) — with a wrapper that records one span per call.

A span is the list ``[sid, parent, name, start, end, tags]``.  ``start``
and ``end`` come from ``time.perf_counter``, which is CLOCK_MONOTONIC on
Linux, so spans recorded in the load generator and in the server child
share one timeline and can be nested across the process boundary.  A
span's parent is the innermost span open on the same thread; a span on
a thread with none open (the server's commit executor) adopts the open
``server.dispatch`` span, since the benchmark drives one connection.
"""

from __future__ import annotations

import collections
import inspect
import itertools
import threading
import time

clock = time.perf_counter


class Recorder:
    """Collects spans and call counts in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.root: int | None = None
        self.rows_s: float | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None, list]:
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        return sid, parent, stack

    def wrap(self, owner, attr: str, name, tags=None,
             root: bool = False) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is a string or ``name(args, kwargs)``; ``tags``, when
        given, is ``tags(args, kwargs, result)`` returning a dict stored
        with the span.  ``root=True`` makes the span the adoptive parent
        of spans on threads that have none open.
        """
        original = inspect.getattr_static(owner, attr)
        fn = original.__func__ if isinstance(original, classmethod) \
            else original
        rec = self

        def finish(sid, parent, stack, label, start, args, kwargs, result,
                   saved_root):
            end = clock()
            stack.pop()
            if root:
                rec.root = saved_root
            rec.spans.append([sid, parent, label, start, end,
                              tags(args, kwargs, result) if tags else None])

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                label = name if isinstance(name, str) else name(args, kwargs)
                sid, parent, stack = rec._open()
                saved_root = rec.root
                if root:
                    rec.root = sid
                result = None
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    finish(sid, parent, stack, label, start, args, kwargs,
                           result, saved_root)
        else:
            def wrapper(*args, **kwargs):
                label = name if isinstance(name, str) else name(args, kwargs)
                sid, parent, stack = rec._open()
                saved_root = rec.root
                if root:
                    rec.root = sid
                result = None
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    finish(sid, parent, stack, label, start, args, kwargs,
                           result, saved_root)

        wrapper.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, classmethod(wrapper)
                if isinstance(original, classmethod) else wrapper)
        self._undo.append((owner, attr, original))

    def count(self, owner, attr: str, key: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls
        (for calls too frequent and too short to time one by one)."""
        original = inspect.getattr_static(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def accumulate(self, owner, attr: str) -> None:
        """Add the time of every ``owner.attr`` call into
        :attr:`rows_s` while it is not ``None`` (the per-read row
        materialisation total); other calls pass straight through."""
        original = inspect.getattr_static(owner, attr)
        rec = self

        def wrapper(*args, **kwargs):
            if rec.rows_s is None:
                return original(*args, **kwargs)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                rec.rows_s += clock() - start

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _frame_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _fed_bytes(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs.get("data", b"")
    return {"bytes": len(data)}


def _dispatch_name(args, kwargs):
    message = args[2]
    return f"server.dispatch.{message.get('op')}"


def _request_name(args, kwargs):
    return f"client.request.{args[1]}"


def _request_relation(args, kwargs, result):
    return {"relation": kwargs.get("relation")}


def _replay_name(args, kwargs):
    full = kwargs.get("from_checkpoint", True) is False
    return "replay.full" if full else "replay.ckpt"


def install_server(rec: Recorder) -> None:
    """Wrap the server child's layers: dispatch, session, engine, txn,
    derive, WAL, graph, probe index and telemetry."""
    import repro.server.server as server_mod
    import repro.store.engine as engine_mod
    from repro.core.extension import DatabaseExtension
    from repro.obs.metrics import Histogram
    from repro.obs.trace import Tracer
    from repro.relational import Tuple
    from repro.store.session import Session
    from repro.store.txn import Transaction
    from repro.store.version_graph import VersionGraph
    from repro.store.wal import WriteAheadLog

    rec.wrap(server_mod.StoreServer, "_dispatch", _dispatch_name, root=True)
    _wrap_read(rec, server_mod.StoreServer)
    rec.accumulate(Tuple, "as_dict")
    rec.wrap(server_mod, "encode_frame", "server.encode_frame",
             tags=_frame_bytes)
    rec.wrap(Session, "commit", "session.commit")
    rec.wrap(engine_mod.StoreEngine, "commit", "store.commit")
    rec.wrap(engine_mod.StoreEngine, "_checkpoint_locked", "store.checkpoint")
    rec.wrap(engine_mod.ProbeIndex, "apply", "probe_index.apply")
    rec.wrap(Transaction, "net_changes", "txn.net_changes")
    rec.wrap(engine_mod, "write_footprint", "txn.write_footprint")
    rec.wrap(engine_mod, "validate_changes", "commit.validate")
    rec.wrap(engine_mod, "checkpoint_record", "wal.checkpoint_record")
    rec.wrap(DatabaseExtension, "apply_changes", "commit.derive")
    rec.wrap(WriteAheadLog, "append", "wal.append")
    rec.wrap(WriteAheadLog, "rotate", "wal.rotate")
    rec.wrap(VersionGraph, "add_commit", "graph.add_commit")
    rec.wrap(Tracer, "record", "obs.tracer.record")
    rec.count(Histogram, "observe", "obs.histogram.observe")


def _wrap_read(rec: Recorder, server_cls) -> None:
    """``server.read`` spans carry ``rows_s``: the summed time of the
    ``Tuple.as_dict`` calls the read handler made."""
    original = inspect.getattr_static(server_cls, "_op_read")

    async def wrapper(*args, **kwargs):
        sid, parent, stack = rec._open()
        rec.rows_s = 0.0
        start = clock()
        try:
            return await original(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            rec.spans.append([sid, parent, "server.read", start, end,
                              {"rows_s": rec.rows_s}])
            rec.rows_s = None

    setattr(server_cls, "_op_read", wrapper)
    rec._undo.append((server_cls, "_op_read", original))


def install_client(rec: Recorder) -> None:
    """Wrap the load generator's layers: the wire client and frame
    codec, and the replay and replica paths the recovery phase runs."""
    import repro.io as io_mod
    import repro.server.client as client_mod
    from repro.core.extension import DatabaseExtension
    from repro.server.replica import ReplicaEngine
    from repro.store.engine import StoreEngine
    from repro.store.txn import Transaction

    rec.wrap(client_mod.StoreClient, "run", "client.run")
    rec.wrap(client_mod.StoreClient, "request", _request_name,
             tags=_request_relation)
    rec.wrap(client_mod, "encode_frame", "io.encode_frame",
             tags=_frame_bytes)
    rec.wrap(io_mod.FrameDecoder, "feed", "io.frame_decode", tags=_fed_bytes)
    rec.wrap(StoreEngine, "replay", _replay_name)
    rec.wrap(StoreEngine, "apply_wal_record", "replay.apply_wal_record")
    rec.wrap(Transaction, "from_records", "txn.from_records")
    rec.wrap(DatabaseExtension, "apply_changes", "replay.derive")
    rec.wrap(io_mod, "database_from_dict", "io.database_from_dict")
    rec.wrap(ReplicaEngine, "catch_up", "replica.catch_up")
    rec.wrap(ReplicaEngine, "sync", "replica.sync")
