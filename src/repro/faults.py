"""Deterministic fault injection: every failure mode from a seed.

Failover code is only trustworthy under failure, and failures summoned
by ``sleep`` calls are flaky theatre.  This module makes them
*scheduled*: a :class:`FaultPlan` is a seeded schedule of fault sites —
probabilistic rates and exact call-index trips — and the wrappers
consult it at each site, so a failing run is replayed exactly by
re-running with the same seed (the chaos CI lane prints it).

Two fault surfaces, matching where the store touches the world:

* :class:`FaultyWal` wraps a :class:`~repro.store.WriteAheadLog` and
  injects the crash shapes the PR-6 durability contract is written
  against — torn writes (a durable partial final line), short writes
  (a partial line that never reached disk), silent fsync loss (bytes
  the OS acknowledged but power loss would eat), and transient
  ``OSError``\\ s.  :meth:`FaultyWal.simulate_power_loss` then rolls the
  files back to their durable watermark, producing exactly the on-disk
  state a real crash would leave.
* :class:`ChaosProxy` is a frame-aware TCP relay (built on
  :func:`repro.io.split_frames`) injecting the network shapes client
  resilience is written against — delayed, dropped, and truncated
  frames, plain disconnects, and the ambiguous *disconnect-mid-commit*
  (the server receives and applies the commit; the client never sees
  the ack).

Fault types are typed so retry policies can classify them:
:class:`InjectedFault` is an ``OSError`` (transient, retryable);
:class:`InjectedCrash` is not (it *is* the simulated process death —
nothing downstream of it runs).
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import threading
import time
from collections import defaultdict
from random import Random
from typing import Any, Iterable, Mapping

from repro.io import FRAME_HEADER, MAX_FRAME_BYTES, split_frames
from repro.obs.trace import NULL_TRACER, Tracer
from repro.store.wal import WriteAheadLog


class InjectedFault(OSError):
    """A scheduled *transient* failure (I/O hiccup, flaky syscall).

    Derives from ``OSError`` so the production retry classification —
    which treats OS-level errors as retryable — applies to injected
    faults without special cases."""


class InjectedCrash(Exception):
    """A scheduled *process death* at a chosen point.

    Deliberately not an ``OSError``: nothing may catch-and-continue
    past it inside the system under test — the test harness catches it
    at the top, then inspects the on-disk wreckage."""


_MISS = object()


class FaultPlan:
    """A seeded schedule of fault sites.

    Parameters
    ----------
    seed:
        Seeds the plan's private RNG; two plans with equal seed, rates,
        and trips fire identically (given the same call order), which
        is what makes every chaos failure replayable.
    rates:
        ``{site: probability}`` — each :meth:`fire` call at ``site``
        draws once and fires with that probability.
    trips:
        ``{site: indices}`` — exact call indices (0-based, per site) at
        which the site fires.  Indices may carry payloads:
        ``{"wal.torn": {3: 17}}`` fires the 4th torn-write check with
        payload ``17`` (for :class:`FaultyWal`, the byte offset to cut
        the record at); a plain list/set/int fires with no payload.
        Trips fire regardless of the site's rate.

    Every firing is appended to :attr:`events` (site, per-site call
    index, payload), so a test can assert which faults actually
    happened and print the plan on failure.  :meth:`fire` is
    thread-safe — the proxy's pump threads share one plan.

    Attach a :class:`~repro.obs.trace.Tracer` (constructor argument or
    :attr:`tracer` assignment) and every firing is also stamped into
    its timeline as a ``fault.<site>`` event — injected faults then
    interleave, in wall-clock order, with the commit/election spans of
    the system under test.
    """

    def __init__(self, seed: int = 0,
                 rates: Mapping[str, float] | None = None,
                 trips: Mapping[str, Any] | None = None,
                 tracer: Tracer | None = None):
        self.seed = seed
        self.rates = {site: float(rate)
                      for site, rate in (rates or {}).items()}
        self.trips: dict[str, dict[int, Any]] = {
            site: self._normalise(spec)
            for site, spec in (trips or {}).items()}
        self._rng = Random(seed)
        self._counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self.events: list[dict] = []
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @staticmethod
    def _normalise(spec: Any) -> dict[int, Any]:
        if isinstance(spec, Mapping):
            return {int(i): payload for i, payload in spec.items()}
        if isinstance(spec, Iterable) and not isinstance(spec, (str, bytes)):
            return {int(i): None for i in spec}
        return {int(spec): None}

    def configured(self, site: str) -> bool:
        """True when ``site`` can ever fire — wrappers use this to skip
        work (e.g. decoding a frame to find its op) for sites the plan
        never exercises."""
        return self.rates.get(site, 0.0) > 0.0 or site in self.trips

    def fire(self, site: str) -> dict | None:
        """One consultation of ``site``: returns the fault event (with
        its ``payload``, possibly ``None``) when the schedule says
        fire, else ``None``.  Each call advances the site's index."""
        with self._lock:
            index = self._counts[site]
            self._counts[site] += 1
            payload = self.trips.get(site, {}).get(index, _MISS)
            if payload is _MISS:
                rate = self.rates.get(site, 0.0)
                if rate <= 0.0 or self._rng.random() >= rate:
                    return None
                payload = None
            event = {"site": site, "index": index, "payload": payload}
            self.events.append(event)
        self.tracer.event(f"fault.{site}",
                          {"index": event["index"],
                           "payload": event["payload"]})
        return event

    def randrange(self, n: int) -> int:
        """A deterministic draw in ``[0, n)`` from the plan's RNG (cut
        offsets, delay jitter)."""
        with self._lock:
            return self._rng.randrange(n)

    def uniform(self, low: float, high: float) -> float:
        with self._lock:
            return self._rng.uniform(low, high)

    def describe(self) -> dict:
        """The replay recipe: everything needed to reconstruct this
        plan (print it when a chaos test fails)."""
        return {"seed": self.seed, "rates": dict(self.rates),
                "trips": {site: dict(spec)
                          for site, spec in self.trips.items()},
                "fired": list(self.events)}

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, rates={self.rates}, "
                f"trips={self.trips}, fired={len(self.events)})")


# ----------------------------------------------------------------------
# the WAL file layer
# ----------------------------------------------------------------------
class FaultyWal:
    """A :class:`WriteAheadLog` wrapper that crashes on schedule.

    Drop-in for the engine's ``wal`` attribute (everything but
    :meth:`append` delegates to the wrapped log).  Sites, consulted on
    every append in this order:

    ``wal.io_error``
        Raise :class:`InjectedFault` before writing anything — a
        transient failure an engine-side caller may retry.
    ``wal.torn``
        Write a proper prefix of the encoded record, **fsync it**, and
        raise :class:`InjectedCrash` — the classic torn tail: the
        partial line is durably on disk.  The payload (or a seeded
        draw) picks the cut offset in ``[0, len(line)-1]``.
    ``wal.short``
        Write a proper prefix *without* syncing and raise
        :class:`InjectedCrash` — a short write the page cache held;
        :meth:`simulate_power_loss` makes it vanish entirely.
    ``wal.fsync_loss``
        Let the append succeed but *do not advance the durable
        watermark* — the record was acknowledged, yet a later
        :meth:`simulate_power_loss` erases it, modelling an fsync the
        device quietly dropped.

    The durable watermark is per file (rotation-aware): after every
    fully-durable append the current sizes of all the log's files are
    recorded, and :meth:`simulate_power_loss` truncates each file back
    to its watermark — producing exactly the bytes a real power cut at
    that point could have left behind.
    """

    def __init__(self, wal: WriteAheadLog, plan: FaultPlan):
        self.wal = wal
        self.plan = plan
        self._durable: dict[str, int] = {}
        self._mark_durable()

    def __getattr__(self, name: str) -> Any:
        return getattr(self.wal, name)

    def _mark_durable(self) -> None:
        for p in WriteAheadLog.segment_paths(self.wal.path):
            if p.exists():
                self._durable[str(p)] = p.stat().st_size

    def _write_partial(self, line: str, event: dict,
                       durable: bool) -> None:
        cut = event["payload"]
        if cut is None:
            cut = self.plan.randrange(max(1, len(line) - 1))
        cut = max(0, min(int(cut), len(line) - 1))
        fh = self.wal._open()
        fh.write(line[:cut])
        fh.flush()
        if durable:
            os.fsync(fh.fileno())
            self._mark_durable()

    def append(self, record: dict) -> None:
        event = self.plan.fire("wal.io_error")
        if event:
            raise InjectedFault(
                f"injected transient WAL failure "
                f"(site=wal.io_error, index={event['index']})")
        line = json.dumps(record, sort_keys=True) + "\n"
        event = self.plan.fire("wal.torn")
        if event:
            self._write_partial(line, event, durable=True)
            raise InjectedCrash(
                f"injected crash mid-append: torn write of "
                f"{record.get('type', '?')!r} record "
                f"(site=wal.torn, index={event['index']})")
        event = self.plan.fire("wal.short")
        if event:
            self._write_partial(line, event, durable=False)
            raise InjectedCrash(
                f"injected crash mid-append: short write of "
                f"{record.get('type', '?')!r} record "
                f"(site=wal.short, index={event['index']})")
        self.wal.append(record)
        if not self.plan.fire("wal.fsync_loss"):
            self._mark_durable()

    def simulate_power_loss(self) -> dict[str, int]:
        """Roll every log file back to its durable watermark, closing
        the wrapped handle first (the process is dead).  Returns
        ``{path: bytes dropped}`` for the files that lost data — the
        on-disk state recovery and promotion are then tested against.
        """
        self.wal.close()
        dropped: dict[str, int] = {}
        for p in WriteAheadLog.segment_paths(self.wal.path):
            if not p.exists():
                continue
            watermark = self._durable.get(str(p))
            if watermark is None or p.stat().st_size <= watermark:
                continue
            dropped[str(p)] = p.stat().st_size - watermark
            with open(p, "r+b") as fh:
                fh.truncate(watermark)
                fh.flush()
                os.fsync(fh.fileno())
        return dropped

    def __repr__(self) -> str:
        return f"FaultyWal({self.wal.path}, plan={self.plan!r})"


# ----------------------------------------------------------------------
# the network transport layer
# ----------------------------------------------------------------------
class ChaosProxy:
    """A frame-aware TCP relay that corrupts traffic on schedule.

    Sits between a :class:`~repro.server.StoreClient` and a
    :class:`~repro.server.StoreServer`; each accepted connection is
    paired with one upstream connection and pumped in both directions
    by daemon threads.  Bytes are regrouped into protocol frames
    (:func:`repro.io.split_frames` — no JSON decoding on the happy
    path), and each frame consults the plan:

    ``net.delay``
        Hold the frame for ``payload`` seconds (or a seeded draw up to
        ``max_delay``) before forwarding.
    ``net.drop``
        Swallow the frame (the peer sees silence, not a close).
    ``net.truncate``
        Forward a proper prefix of the frame, then close both sides —
        a mid-frame cut desynchronises the stream, so the connection
        cannot survive it (matching the server's own fatal-frame
        rule).
    ``net.disconnect``
        Close both sides instead of forwarding.
    ``net.commit_disconnect``
        Client→server direction only: when the frame is a ``commit``
        request, forward it and *then* close — the server applies the
        commit, the client never learns.  The ambiguous failure every
        retry design must survive.
    ``net.duplicate``
        Forward the frame **twice** — the retransmit-after-lost-ack
        shape; request ids make the duplicate detectable, idempotent
        replay makes it survivable.
    ``net.reorder``
        Hold the frame back and deliver it *after* the next frame in
        the same direction (held frames are flushed, in order, when
        the stream ends — reordering never silently drops).
    ``net.partition``
        Start a partition: frames in **both** directions are swallowed
        (the peer sees silence, exactly what a heartbeat prober sees)
        for ``payload`` seconds — or until :meth:`heal` when the
        payload is ``None``.  Also triggerable by hand via
        :meth:`partition`.
    ``net.pause``
        Freeze the relay (a SIGSTOP'd peer): frames queue behind the
        pause and flow again, in order, after ``payload`` seconds or
        :meth:`resume`.  Unlike a partition nothing is lost — only
        late.

    ``start()`` binds and returns the proxy's own ``(host, port)`` for
    clients to dial; ``stop()`` closes the listener and every live
    pair.  Multiple client connections are supported (each gets its
    own pump threads, all sharing the one plan).
    """

    def __init__(self, target: tuple[str, int], plan: FaultPlan,
                 host: str = "127.0.0.1", port: int = 0,
                 max_delay: float = 0.05):
        self.target = target
        self.plan = plan
        self.host = host
        self.port = port
        self.max_delay = max_delay
        self.address: tuple[str, int] | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._threads: list[threading.Thread] = []
        self._pairs: list[tuple[socket.socket, socket.socket]] = []
        self._lock = threading.Lock()
        self._stopping = False
        self._partition_until: float | None = None
        self._pause_until: float | None = None

    # -- manual partition / pause --------------------------------------
    def partition(self, duration: float | None = None) -> None:
        """Black-hole both directions for ``duration`` seconds (or
        until :meth:`heal`): frames are swallowed, connections stay
        up — the probe-timeout shape, as opposed to a clean close."""
        self._partition_until = (float("inf") if duration is None
                                 else time.monotonic() + duration)

    def heal(self) -> None:
        """End a partition (frames flow again; what was swallowed
        while partitioned stays lost)."""
        self._partition_until = None

    def pause(self, duration: float | None = None) -> None:
        """Freeze the relay for ``duration`` seconds (or until
        :meth:`resume`): frames queue behind the pause and are
        delivered, in order, once it lifts."""
        self._pause_until = (float("inf") if duration is None
                             else time.monotonic() + duration)

    def resume(self) -> None:
        self._pause_until = None

    def _partitioned(self) -> bool:
        until = self._partition_until
        if until is None:
            return False
        if time.monotonic() >= until:
            self._partition_until = None
            return False
        return True

    def _hold_while_paused(self) -> None:
        while not self._stopping:
            until = self._pause_until
            if until is None:
                return
            now = time.monotonic()
            if now >= until:
                self._pause_until = None
                return
            # Sleep in small slices so resume()/stop() take effect
            # promptly even under an open-ended pause.
            time.sleep(min(0.005, max(0.0, until - now)))

    # -- lifecycle -----------------------------------------------------
    def start(self) -> tuple[str, int]:
        if self._listener is not None:
            raise RuntimeError("proxy already started")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen()
        self.address = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_forever, name="chaos-proxy-accept",
            daemon=True)
        self._accept_thread.start()
        return self.address

    def stop(self) -> None:
        self._stopping = True
        if self._listener is not None:
            self._close(self._listener)
            self._listener = None
        with self._lock:
            pairs, self._pairs = self._pairs, []
        for a, b in pairs:
            self._close(a, b)
        for t in [self._accept_thread, *self._threads]:
            if t is not None:
                t.join(1.0)
        self._accept_thread = None
        self._threads = []

    def __enter__(self) -> "ChaosProxy":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- plumbing ------------------------------------------------------
    def _accept_forever(self) -> None:
        listener = self._listener
        while not self._stopping and listener is not None:
            try:
                downstream, _ = listener.accept()
            except OSError:
                return  # listener closed by stop()
            try:
                upstream = socket.create_connection(self.target,
                                                    timeout=10.0)
            except OSError:
                downstream.close()
                continue
            with self._lock:
                self._pairs.append((downstream, upstream))
            # List both pumps before either starts: once a byte has
            # crossed the pair, every thread serving it is listed.
            pumps = [threading.Thread(
                target=self._pump, args=(src, dst, direction),
                name=f"chaos-proxy-{direction}", daemon=True)
                for src, dst, direction in (
                    (downstream, upstream, "c2s"),
                    (upstream, downstream, "s2c"))]
            self._threads.extend(pumps)
            for t in pumps:
                t.start()

    @staticmethod
    def _close(*socks: socket.socket) -> None:
        """Shut each socket down, then close it.  ``close`` alone does
        not wake a thread blocked in ``accept`` or ``recv`` on the
        socket: the pump reading a pair's other socket would stay
        blocked, and :meth:`stop` would wait out its join timeout."""
        for s in socks:
            with contextlib.suppress(OSError):  # never connected, or gone
                s.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                s.close()

    @staticmethod
    def _frame_op(frame: bytes) -> str | None:
        """The ``op`` of one frame's request object, or ``None`` when
        the payload does not decode (corrupt frames are forwarded
        untouched — mangling them further is the server's problem)."""
        try:
            message = json.loads(frame[FRAME_HEADER.size:])
        except (ValueError, UnicodeDecodeError):
            return None
        return message.get("op") if isinstance(message, dict) else None

    def _pump(self, src: socket.socket, dst: socket.socket,
              direction: str) -> None:
        plan = self.plan
        buffer = b""
        held: list[bytes] = []  # frames net.reorder is holding back
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                buffer += data
                if len(buffer) > MAX_FRAME_BYTES + FRAME_HEADER.size:
                    # Never a protocol frame (the server would fatal it
                    # anyway); pass the bytes through rather than
                    # buffering without bound.
                    dst.sendall(buffer)
                    buffer = b""
                    continue
                frames, buffer = split_frames(buffer)
                for frame in frames:
                    if plan.fire("net.reorder"):
                        held.append(frame)
                        continue
                    if not self._relay_frame(frame, dst, direction):
                        self._close(src, dst)
                        return
                    while held:  # held frames ride behind the next one
                        late = held.pop(0)
                        if not self._relay_frame(late, dst, direction):
                            self._close(src, dst)
                            return
        except OSError:
            pass
        # Reordering must never silently drop: flush what is still held
        # before the close the peer is about to see.
        for late in held:
            try:
                dst.sendall(late)
            except OSError:
                break
        self._close(src, dst)

    def _relay_frame(self, frame: bytes, dst: socket.socket,
                     direction: str) -> bool:
        """Forward one frame through the schedule; False = the pair
        must close (truncation/disconnect fired, or the peer is
        gone)."""
        plan = self.plan
        event = plan.fire("net.partition")
        if event:
            duration = event["payload"]
            self.partition(None if duration is None
                           else float(duration))
        event = plan.fire("net.pause")
        if event:
            duration = event["payload"]
            self.pause(None if duration is None else float(duration))
        if self._partitioned():
            return True  # the link eats the frame; connections live on
        self._hold_while_paused()
        event = plan.fire("net.delay")
        if event:
            delay = event["payload"]
            if delay is None:
                delay = plan.uniform(0.0, self.max_delay)
            time.sleep(float(delay))
        if plan.fire("net.drop"):
            return True
        event = plan.fire("net.truncate")
        if event:
            cut = event["payload"]
            if cut is None:
                cut = plan.randrange(max(1, len(frame) - 1))
            cut = max(0, min(int(cut), len(frame) - 1))
            try:
                dst.sendall(frame[:cut])
            except OSError:
                pass
            return False
        if plan.fire("net.disconnect"):
            return False
        duplicate = bool(plan.fire("net.duplicate"))
        commit_cut = (direction == "c2s"
                      and plan.configured("net.commit_disconnect")
                      and self._frame_op(frame) == "commit"
                      and plan.fire("net.commit_disconnect"))
        try:
            dst.sendall(frame)
            if duplicate:
                dst.sendall(frame)
        except OSError:
            return False
        return not commit_cut

    def __repr__(self) -> str:
        return (f"ChaosProxy({self.address} -> {self.target}, "
                f"plan={self.plan!r})")
