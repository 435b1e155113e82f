"""The asyncio network front end over a store engine (or a replica).

One :class:`StoreServer` owns one listening socket and one engine.  A
connection is a sequence of length-prefixed JSON frames (see
:mod:`repro.io` for the bytes and :mod:`repro.server.protocol` for the
messages).  A commit is one stateless frame carrying all of its ops: the
server buffers them into a fresh transaction on the connection's branch
and commits it onto the branch head, so no transaction state lives
between frames, and the same exceptions an embedded caller sees come
back as typed error payloads.

Robustness posture:

* Each connection reads through its own :class:`~repro.io.FrameDecoder`
  — the same parser the client uses — and answers frames in stream
  order, pipelined ones included, whether they are good or bad.
* A frame that *delimits* but does not *parse* (bad JSON, non-object
  payload, unknown op) costs exactly one ``bad-frame``/
  ``protocol-error`` response; the connection — and the accept loop —
  live on.  The fuzz sweep in ``tests/test_server_protocol.py`` holds
  the server to that.
* A frame whose declared length exceeds the one cap,
  :data:`repro.io.MAX_FRAME_BYTES`, is *fatal* for that connection (the
  stream offset can no longer be trusted) but for that connection only.
* ``idle_timeout`` bounds the wait for each next *complete* frame, not
  for the next read, so a client dribbling bytes is closed too.
* The connection pool is bounded: over-capacity connections receive one
  ``overloaded`` error frame and are closed before any connection state is
  allocated.
* Commits and branch creations run on the event loop's default
  executor, so the loop keeps answering other connections while the
  engine works.  A connection dispatches its frames one at a time, so
  commits in flight never outnumber connections (``max_connections``),
  and the executor bounds the threads that run them.
* A disconnect mid-commit leaves nothing to clean up: the commit on
  its executor thread either lands or is rejected, and its response
  goes nowhere.

A server constructed over a :class:`~repro.server.replica.ReplicaEngine`
is read-only: write ops answer ``read-only``, reads are served from the
replica's graph, and a background task keeps :meth:`ReplicaEngine.sync`
ticking so staleness stays bounded while the primary writes.
"""

from __future__ import annotations

import asyncio
import threading
from bisect import bisect_left
from typing import Any

from repro.errors import EpochFenced, ProtocolError, StoreError
from repro.io import FrameDecoder, JSONText, encode_frame, encode_json
from repro.kernel.batch import sweep_counts
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.relational import Relation
from repro.server import protocol
from repro.server.replica import ReplicaEngine
from repro.store.engine import StoreEngine

# Bytes asked of the socket per read; the frame decoder reassembles
# frames across reads.
_READ_BYTES = 65536


class _Connection:
    """Per-connection state: the bound branch."""

    __slots__ = ("branch",)

    def __init__(self) -> None:
        self.branch = "main"


class _RowTexts:
    """A relation's rows as JSON text, one string per row.

    ``keys`` holds each row's ``repr`` and ``texts`` its
    :func:`~repro.io.encode_json` text, both in ``Relation.__iter__``
    order (sorted by ``repr``); ``text`` is the JSON array of the rows,
    ``"[" + ",".join(texts) + "]"``, which is ``encode_json(list(rel))``
    to the byte.  Rows whose ``repr`` ties encode alike, so the order
    among them does not show in the text.

    A patch matches rows by equality, which is sound because equal rows
    hold the same values: the domain check admits a value only as the
    member it equals (``True`` or ``1.0`` is refused where the domain
    holds ``1``), so a row kept across versions encodes as it did.
    """

    __slots__ = ("relation", "keys", "texts", "text")

    def __init__(self, relation: Relation, keys: list[str],
                 texts: list[str]):
        self.relation = relation
        self.keys = keys
        self.texts = texts
        self.text = JSONText("[" + ",".join(texts) + "]")

    def patched(self, rel: Relation) -> "_RowTexts":
        """``rel``'s row texts, built from these: the rows gone from
        ``rel`` are dropped and only the rows it adds are encoded, each
        merged in at its sorted place.  The lists are copied, never
        changed, and nothing is built if an encode fails."""
        keys, texts = self.keys, self.texts
        # (key, 0, "") drops a row and (key, 1, text) adds one; sorted,
        # a drop comes before an add of the same key.
        changes = sorted(
            [(repr(t), 0, "") for t in self.relation.tuples - rel.tuples]
            + [(repr(t), 1, encode_json(t))
               for t in rel.tuples - self.relation.tuples])
        new_keys: list[str] = []
        new_texts: list[str] = []
        start = 0
        for key, add, text in changes:
            i = bisect_left(keys, key, start)
            new_keys += keys[start:i]
            new_texts += texts[start:i]
            if add:
                new_keys.append(key)
                new_texts.append(text)
                start = i
            else:
                start = i + 1  # keys[i] is the row dropped
        new_keys += keys[start:]
        new_texts += texts[start:]
        return _RowTexts(rel, new_keys, new_texts)


# The entry of a relation not read yet: a first read patches it.
_NO_ROWS = _RowTexts(Relation(()), [], [])


class StoreServer:
    """Serve one engine over a listening socket.

    Parameters
    ----------
    engine:
        A :class:`StoreEngine` (primary — read/write) or a
        :class:`ReplicaEngine` (read-only; an unbootstrapped replica
        syncs once before the socket listens, then a background task
        keeps it synced every ``sync_interval`` seconds).
    host, port:
        Bind address; ``port=0`` picks a free port, readable from
        :attr:`address` after start.
    max_connections:
        Bound on simultaneously served connections; excess connections
        get one ``overloaded`` error frame and are closed.
    idle_timeout:
        Seconds a connection may wait for its next *complete* frame
        before the server closes it (``None``, the default, never does)
        — abandoned or byte-dribbling connections otherwise pin the
        bounded connection cap forever.
    cluster:
        An optional health view — anything with a ``gossip() -> dict``
        (a :class:`~repro.server.cluster.HealthMonitor`); when set,
        ``status`` responses carry it as their ``cluster`` field, so
        any client can ask one node what it believes about the others.
    metrics, tracer:
        The observability pair the ``metrics`` op serves.  By default
        the server builds its own :class:`MetricsRegistry` and
        :class:`Tracer` and attaches them to the engine
        (``attach_observability``), so a plain ``serve --listen``
        already records commit-phase histograms; pass shared instances
        to aggregate several servers into one registry.  The server's
        own counters (``server.*``) live only in the registry.
    slow_commit_threshold:
        Seconds past which a commit lands in the engine's structured
        slow-commit log (default 0.1; ``None`` disables the log).
    """

    def __init__(self, engine: StoreEngine | ReplicaEngine,
                 host: str = "127.0.0.1", port: int = 0,
                 max_connections: int = 64,
                 sync_interval: float = 0.02,
                 idle_timeout: float | None = None,
                 cluster: Any = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 slow_commit_threshold: float | None = 0.1):
        self.engine = engine
        self.cluster = cluster
        self.read_only = isinstance(engine, ReplicaEngine)
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.sync_interval = sync_interval
        if idle_timeout is not None and idle_timeout <= 0:
            raise StoreError(
                f"idle_timeout must be positive (or None), "
                f"got {idle_timeout}")
        self.idle_timeout = idle_timeout
        self.address: tuple[str, int] | None = None
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._sync_task: asyncio.Task | None = None
        # relation name -> the _RowTexts of the Relation last read under
        # that name; see _op_read.
        self._read_cache: dict[str, _RowTexts] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None \
            else Tracer(clock=self.metrics.clock)
        engine.attach_observability(
            self.metrics, self.tracer,
            slow_commit_threshold=slow_commit_threshold)
        m = self.metrics
        self._g_connections = m.gauge("server.connections")
        self._c_commits = m.counter("server.commits")
        self._c_rejected_overloaded = m.counter("server.rejected_overloaded")
        self._c_frames_served = m.counter("server.frames_served")
        self._c_bad_frames = m.counter("server.bad_frames")
        self._c_idle_closed = m.counter("server.idle_closed")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _start(self) -> None:
        self._loop = asyncio.get_running_loop()
        if self.read_only and not self.engine.ready:
            # Bootstrap before listening, so the first connection's
            # hello is answered whenever the log already holds a
            # snapshot or checkpoint; the sync task retries failures.
            try:
                await self._loop.run_in_executor(None, self.engine.sync)
            except StoreError:
                pass
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        if self.read_only and self.sync_interval:
            self._sync_task = self._loop.create_task(self._sync_forever())

    async def _stop(self) -> None:
        if self._sync_task is not None:
            self._sync_task.cancel()
            try:
                await self._sync_task
            except asyncio.CancelledError:
                pass
            self._sync_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        handlers = [t for t in asyncio.all_tasks()
                    if t is not asyncio.current_task()]
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)

    async def serve_forever(self) -> None:
        """Run in the caller's event loop until cancelled (CLI mode)."""
        await self._start()
        try:
            await self._server.serve_forever()
        finally:
            await self._stop()

    def start_background(self) -> tuple[str, int]:
        """Run the server on a dedicated daemon thread; returns the
        bound ``(host, port)`` once accepting."""
        if self._thread is not None:
            raise StoreError("server already started")

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                try:
                    loop.run_until_complete(self._start())
                except BaseException as exc:  # bind failures etc.
                    self._startup_error = exc
                    return
                finally:
                    self._started.set()
                loop.run_forever()
                loop.run_until_complete(self._stop())
            finally:
                asyncio.set_event_loop(None)
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-store-server", daemon=True)
        self._thread.start()
        self._started.wait(10.0)
        if self._startup_error is not None:
            self._thread.join(1.0)
            self._thread = None
            raise self._startup_error
        if self.address is None:
            raise StoreError("server failed to start within 10s")
        return self.address

    def stop(self) -> None:
        """Stop a background server: close the listener, cancel the
        sync task and every connection handler, join the thread."""
        if self._thread is None:
            return
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        self._thread.join(10.0)
        self._thread = None
        self._started.clear()
        self.address = None

    def __enter__(self) -> "StoreServer":
        self.start_background()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # replica upkeep
    # ------------------------------------------------------------------
    async def _sync_forever(self) -> None:
        assert isinstance(self.engine, ReplicaEngine)
        while True:
            try:
                await self._loop.run_in_executor(None, self.engine.sync)
            except EpochFenced:
                # Promoted out from under the server (or pinned to a
                # demoted epoch): the replica will never tail again —
                # keep serving its graph, stop burning the poll.
                return
            except StoreError:
                # Tail pruned out from under the cursor — re-bootstrap
                # from the newest checkpoint and keep following.
                try:
                    await self._loop.run_in_executor(
                        None, self.engine.resync)
                except StoreError:
                    pass  # primary mid-rotation; next tick retries
            await asyncio.sleep(self.sync_interval)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if self._g_connections.value >= self.max_connections:
            self._c_rejected_overloaded.inc()
            await self._send(writer, protocol.error_response(
                None, "overloaded",
                f"server at capacity ({self.max_connections} connections)",
                fatal=True))
            writer.close()
            return
        self._g_connections.inc()
        conn = _Connection()
        decoder = FrameDecoder()
        try:
            while True:
                try:
                    messages = await self._next_frames(reader, decoder)
                except asyncio.TimeoutError:
                    self._c_idle_closed.inc()
                    break  # idle past the bound: free the slot
                except ProtocolError as exc:
                    self._c_bad_frames.inc()
                    await self._send(writer, protocol.error_response(
                        None, "bad-frame", str(exc),
                        fatal=decoder.poisoned))
                    if decoder.poisoned:
                        break
                    continue
                if not messages:
                    break  # client went away (possibly mid-frame)
                for message in messages:
                    response = await self._dispatch(conn, message)
                    self._c_frames_served.inc()
                    await self._send(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._g_connections.dec()
            writer.close()

    async def _next_frames(self, reader: asyncio.StreamReader,
                           decoder: FrameDecoder) -> list[dict]:
        """The next complete frames' messages, in stream order — those
        already buffered first, else whatever the next reads complete;
        empty at end of stream.  ``idle_timeout`` bounds the wait for a
        *complete* frame, so a client dribbling bytes cannot hold its
        slot forever."""
        messages = decoder.feed()
        if messages:
            return messages

        async def fill() -> list[dict]:
            while True:
                data = await reader.read(_READ_BYTES)
                if not data:
                    return []
                messages = decoder.feed(data)
                if messages:
                    return messages

        if self.idle_timeout is None:
            return await fill()
        return await asyncio.wait_for(fill(), self.idle_timeout)

    async def _send(self, writer: asyncio.StreamWriter,
                    message: dict) -> None:
        writer.write(encode_frame(message))
        await writer.drain()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, conn: _Connection, message: dict) -> dict:
        try:
            rid, op = protocol.validate_request(message)
        except ProtocolError as exc:
            self._c_bad_frames.inc()
            return {"id": message.get("id") if not isinstance(
                        message.get("id"), (dict, list)) else None,
                    "ok": False, "error": protocol.error_payload(exc)}
        # Dispatch tracing is explicit timestamps, not a span context
        # manager: the handler awaits, and a span held across an await
        # would adopt concurrent dispatches as children.
        tracer = self.tracer
        start = tracer.clock() if tracer.enabled else 0.0
        self.metrics.counter(f"server.ops.{op}").inc()
        if self.read_only and op in protocol.WRITE_OPS:
            response = protocol.error_response(
                rid, "read-only", f"'{op}' is not served by a read-only "
                "replica; connect to the primary")
        else:
            try:
                handler = getattr(self, f"_op_{op}")
                response = await handler(conn, rid, message)
            except Exception as exc:  # typed errors -> typed payloads
                response = {"id": rid, "ok": False,
                            "error": protocol.error_payload(exc)}
        if tracer.enabled:
            end = tracer.clock()
            tracer.record({
                "name": "server.dispatch", "start": start, "end": end,
                "duration": end - start,
                "tags": {"op": op, "ok": bool(response.get("ok"))},
                "spans": [],
            })
        return response

    @property
    def _store(self) -> StoreEngine:
        """The graph-bearing engine (the replica's inner one when
        read-only)."""
        if self.read_only:
            return self.engine.engine  # raises StoreError until ready
        return self.engine

    async def _op_hello(self, conn, rid, message) -> dict:
        branch = message.get("branch", "main")
        if not isinstance(branch, str):
            raise ProtocolError("'branch' must be a string")
        store = self._store
        store.head_version(branch)  # fail fast on unknown branches
        conn.branch = branch
        summary = store.describe()
        return protocol.ok_response(
            rid, protocol=protocol.PROTOCOL_VERSION,
            role="replica" if self.read_only else "primary",
            epoch=summary.get("epoch", 0),
            branch=branch, branches=summary["branches"],
            relations=summary["relations"])

    async def _op_ping(self, conn, rid, message) -> dict:
        return protocol.ok_response(rid, pong=True)

    def _status_counters(self) -> dict:
        """The registry's counters and gauges as one flat name->number
        map — the ``counters`` section of the status schema."""
        snap = self.metrics.snapshot()
        counters = dict(snap["counters"])
        counters.update(snap["gauges"])
        return counters

    async def _op_status(self, conn, rid, message) -> dict:
        gossip = ({} if self.cluster is None
                  else {"cluster": self.cluster.gossip()})
        if self.read_only:
            body = self.engine.status()
            counters = dict(body.get("counters", {}))
            counters.update(self._status_counters())
            body["counters"] = counters
            return protocol.ok_response(rid, **body, **gossip)
        summary = self.engine.describe()
        return protocol.ok_response(rid, **gossip, **protocol.status_payload(
            role="primary",
            epoch=summary.get("epoch", 0),
            ready=True,
            counters=self._status_counters(),
            max_connections=self.max_connections,
            seq=summary["seq"], versions=summary["versions"],
            branches=summary["branches"]))

    async def _op_metrics(self, conn, rid, message) -> dict:
        traces = message.get("traces", 0)
        if isinstance(traces, bool) or not isinstance(traces, int) \
                or traces < 0:
            raise ProtocolError("'traces' must be a non-negative integer")
        snapshot = self.metrics.snapshot()
        # The kernel cannot hold a registry (it never imports upward);
        # its process-wide sweep counters are sampled in at read time.
        snapshot["counters"].update(
            {f"kernel.sweep.{k}": v for k, v in sweep_counts().items()})
        payload: dict[str, Any] = {
            "metrics": snapshot,
            "slow_commits": list(getattr(self.engine,
                                         "slow_commits", ()) or ()),
        }
        if traces:
            payload["traces"] = self.tracer.slowest(traces)
        return protocol.ok_response(rid, **payload)

    async def _op_commit(self, conn, rid, message) -> dict:
        ops = message.get("ops")
        if not isinstance(ops, list):
            raise ProtocolError("'ops' must be a list of op records")
        engine, branch = self.engine, conn.branch

        def commit():
            return engine.commit(engine.begin(branch).apply_records(ops))

        version = await self._loop.run_in_executor(None, commit)
        self._c_commits.inc()
        parent = version.parent.vid if version.parent is not None else None
        return protocol.ok_response(rid, version=version.vid,
                                    parent=parent, branch=version.branch)

    async def _op_read(self, conn, rid, message) -> dict:
        """One relation's rows at a version, encoded in O(|delta|).

        The cache keeps, per relation name, the :class:`_RowTexts` of
        the ``Relation`` last read under it.  A read of that very object
        (``is``) splices its JSON text (a :class:`~repro.io.JSONText`,
        written verbatim by ``encode_frame``) into the response.  Any
        other ``Relation`` -- a commit, another branch, an ``at=`` read,
        a replica resync -- is patched from the kept entry by set
        difference, so only the rows it gained are encoded, and the
        frame is byte-identical to one encoding ``list(rel)``.  The
        cache holds at most one entry per relation name.  Only the
        event-loop thread runs this, so it takes no lock.
        """
        relation = message.get("relation")
        if not isinstance(relation, str):
            raise ProtocolError("'relation' must be a string")
        branch = message.get("branch", conn.branch)
        at = message.get("at")
        if at is not None and not isinstance(at, str):
            raise ProtocolError("'at' must be a version id string")
        store = self._store
        version = store.graph.get(at) if at is not None \
            else store.head_version(branch)
        rel = version.state.R(relation)
        entry = self._read_cache.get(relation, _NO_ROWS)
        if entry.relation is not rel:
            entry = entry.patched(rel)
            self._read_cache[relation] = entry
        return protocol.ok_response(rid, relation=relation, rows=entry.text,
                                    version=version.vid)

    async def _op_branch(self, conn, rid, message) -> dict:
        name = message.get("name")
        if not isinstance(name, str):
            raise ProtocolError("'name' must be a branch name string")
        at = message.get("at")
        from_branch = message.get("from_branch", conn.branch)
        version = await self._loop.run_in_executor(
            None, self.engine.branch, name, at, from_branch)
        return protocol.ok_response(rid, branch=name, at=version.vid)
