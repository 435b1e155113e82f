"""Self-healing cluster: failure detection and deterministic leader
election.

PR 8 made promotion *safe* — epoch fencing, the race-guarded
:func:`~repro.server.failover.promote`, zero acked-commit loss — but an
operator still had to notice the primary died and run it.  This module
closes the loop with two cooperating pieces:

* :class:`HealthMonitor` — a clock-injected failure detector.
  Heartbeat probes ride the existing ``hello``/``status`` ops (or call
  a local engine directly); consecutive misses walk a peer through
  *alive → suspect → dead* suspicion levels, so one dropped frame never
  triggers an election.  The clock is injected, which makes detection
  timing a pure function of ticks — the chaos suite drives it with a
  fake clock and counts them.
* :class:`Coordinator` — one per replica, runs deterministic leader
  election when the monitor declares the primary dead.  Candidates
  rank by ``(durable WAL position, replica id)``: the most-caught-up
  replica wins, ties break on the highest id, and no external
  consensus service is needed because every candidate ranks against
  the same durable log.  The winner calls ``promote()``; the epoch
  stamp's race guard remains the final arbiter, so even coordinators
  with disjoint membership views cannot split-brain — at most one
  stamp lands, losers get :class:`~repro.errors.EpochFenced` and
  re-pin to the new epoch by simply continuing to tail the log.

Reads hold no cluster state of their own: the
:class:`~repro.server.failover.ReadBalancer` takes the monitor as its
suspicion source and lives beside the client that degrades through it.

The election rule leans on a property the store already guarantees:
replicas of one log apply identical prefixes, so the cursor position
``(segment, offset)`` is totally ordered across candidates and "most
caught up" is well defined without any vote exchange.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, Sequence

from repro.errors import EpochFenced, StoreError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.server.client import StoreClient
from repro.server.failover import promote
from repro.server.protocol import SUSPICION_STATES
from repro.server.replica import ReplicaEngine

ALIVE, SUSPECT, DEAD = SUSPICION_STATES


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def wire_probe(address: Sequence, timeout: float = 1.0
               ) -> Callable[[], dict]:
    """A probe that dials ``address`` and asks ``status`` over the wire
    (one ``hello`` + one ``status`` round trip per call, so a probe
    failure is indistinguishable from the process being gone — which is
    the point)."""
    host, port = str(address[0]), int(address[1])

    def probe() -> dict:
        with StoreClient(host, port, timeout=timeout) as client:
            return client.status()

    probe.address = (host, port)  # type: ignore[attr-defined]
    return probe


def engine_probe(target: Any) -> Callable[[], dict]:
    """A probe over a local object — a :class:`ReplicaEngine` (its
    :meth:`~ReplicaEngine.status` report) or a primary
    :class:`~repro.store.StoreEngine` (its ``describe`` summary, tagged
    with the primary role)."""

    def probe() -> dict:
        if hasattr(target, "status"):
            return target.status()
        summary = target.describe()
        summary.setdefault("role", "primary")
        return summary

    return probe


class _Peer:
    __slots__ = ("peer_id", "probe", "state", "misses", "probes",
                 "last_status", "last_error", "last_ok_at", "next_due")

    def __init__(self, peer_id: str, probe: Callable[[], dict],
                 due: float):
        self.peer_id = peer_id
        self.probe = probe
        self.state = ALIVE
        self.misses = 0
        self.probes = 0
        self.last_status: dict | None = None
        self.last_error: str | None = None
        self.last_ok_at: float | None = None
        self.next_due = due


# ----------------------------------------------------------------------
# the failure detector
# ----------------------------------------------------------------------
class HealthMonitor:
    """A timeout-with-suspicion failure detector.

    Parameters
    ----------
    clock:
        The time source (``time.monotonic`` by default).  Tests inject
        a fake clock, making every transition a pure function of ticks.
    probe_interval:
        Seconds between probes of one peer.
    suspect_after, dead_after:
        Consecutive misses before a peer is marked ``suspect`` /
        ``dead``.  ``suspect_after`` must be at least 2 — one dropped
        frame never even raises suspicion, let alone an election — and
        ``dead_after`` must be strictly larger.

    :meth:`tick` runs every due probe once and returns the state
    *transitions* it caused; the full event history accumulates in
    :attr:`events`.  A probe is any callable returning a status
    mapping (see :func:`wire_probe` / :func:`engine_probe`); raising
    counts as a miss.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 probe_interval: float = 0.05, suspect_after: int = 2,
                 dead_after: int = 4):
        if suspect_after < 2:
            raise StoreError(
                f"suspect_after must be >= 2 so a single dropped probe "
                f"never raises suspicion, got {suspect_after}")
        if dead_after <= suspect_after:
            raise StoreError(
                f"dead_after ({dead_after}) must exceed suspect_after "
                f"({suspect_after}): a peer is suspected before it is "
                "declared dead, never the other way around")
        self.clock = clock
        self.probe_interval = probe_interval
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self._peers: dict[str, _Peer] = {}
        self.events: list[dict] = []
        self.metrics: MetricsRegistry | None = None
        self.tracer = NULL_TRACER
        self._c_probes = None
        self._c_misses = None
        self._c_transitions = None

    def attach_observability(self, metrics: MetricsRegistry | None = None,
                             tracer: Tracer | None = None) -> None:
        """Count probes/misses/suspicion transitions into a registry
        (``cluster.*``) and stamp transitions into a tracer's timeline;
        the per-peer ``probes``/``misses`` attributes stay as they
        were."""
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if metrics is None:
            self._c_probes = self._c_misses = self._c_transitions = None
        else:
            self._c_probes = metrics.counter("cluster.probes")
            self._c_misses = metrics.counter("cluster.probe_misses")
            self._c_transitions = metrics.counter("cluster.transitions")

    # -- membership ----------------------------------------------------
    def add_peer(self, peer_id: str, probe: Callable[[], dict]) -> None:
        """Register ``peer_id``; its first probe is due immediately.
        Re-adding replaces the probe and resets suspicion."""
        self._peers[str(peer_id)] = _Peer(str(peer_id), probe,
                                          self.clock())

    def peer_ids(self) -> list[str]:
        return sorted(self._peers)

    # -- probing -------------------------------------------------------
    def tick(self) -> list[dict]:
        """Probe every peer whose next probe is due; returns the state
        transitions this tick caused (empty when nothing changed)."""
        now = self.clock()
        transitions: list[dict] = []
        for peer in self._peers.values():
            if peer.next_due > now:
                continue
            self._probe(peer, now, transitions)
        return transitions

    def _probe(self, peer: _Peer, now: float,
               transitions: list[dict]) -> None:
        peer.probes += 1
        if self._c_probes is not None:
            self._c_probes.inc()
        previous = peer.state
        try:
            status = peer.probe()
            if not isinstance(status, Mapping):
                raise StoreError(
                    f"probe for {peer.peer_id!r} returned "
                    f"{type(status).__name__}, not a status mapping")
        except Exception as exc:
            peer.misses += 1
            if self._c_misses is not None:
                self._c_misses.inc()
            peer.last_error = repr(exc)
            if peer.misses >= self.dead_after:
                peer.state = DEAD
            elif peer.misses >= self.suspect_after:
                peer.state = SUSPECT
        else:
            peer.misses = 0
            peer.state = ALIVE
            peer.last_status = dict(status)
            peer.last_error = None
            peer.last_ok_at = now
        peer.next_due = now + self.probe_interval
        if peer.state != previous:
            event = {"peer": peer.peer_id, "from": previous,
                     "to": peer.state, "misses": peer.misses, "at": now}
            self.events.append(event)
            transitions.append(event)
            if self._c_transitions is not None:
                self._c_transitions.inc()
            self.tracer.event("cluster.transition", event)

    # -- state ---------------------------------------------------------
    def _peer(self, peer_id: str) -> _Peer:
        try:
            return self._peers[str(peer_id)]
        except KeyError:
            raise StoreError(
                f"unknown peer {peer_id!r}; known: "
                f"{self.peer_ids()}") from None

    def state(self, peer_id: str) -> str:
        return self._peer(peer_id).state

    def status(self, peer_id: str) -> dict | None:
        """The peer's last *successful* probe payload (``None`` before
        the first success) — stale by at most the suspicion window,
        which is exactly why election ranks re-read live positions
        where they can."""
        return self._peer(peer_id).last_status

    def healthy(self, peer_id: str) -> bool:
        return self._peer(peer_id).state == ALIVE

    def gossip(self) -> dict:
        """The suspicion table in wire form — merged into the ``status``
        op's response (see :class:`~repro.server.StoreServer`) so any
        client can ask one node what it believes about the others."""
        suspicion = {}
        for peer in self._peers.values():
            status = peer.last_status or {}
            suspicion[peer.peer_id] = {
                "state": peer.state,
                "misses": peer.misses,
                "probes": peer.probes,
                "role": status.get("role"),
                "epoch": status.get("epoch"),
                "behind_bytes": status.get("behind_bytes"),
            }
        return {"probe_interval": self.probe_interval,
                "suspect_after": self.suspect_after,
                "dead_after": self.dead_after,
                "suspicion": suspicion}

    def __repr__(self) -> str:
        states = {p.peer_id: p.state for p in self._peers.values()}
        return f"HealthMonitor({states})"


# ----------------------------------------------------------------------
# leader election
# ----------------------------------------------------------------------
def election_rank(status: Mapping, candidate_id: str
                  ) -> tuple[str, int, str]:
    """The deterministic election key: ``(segment, offset, id)``.

    Replicas of one log consume identical prefixes, so the cursor
    position orders candidates by how caught up they are (segment
    names sort lexicographically by design; the offset orders within
    a segment).  The id is the total tie-break — every coordinator
    computes the same winner from the same statuses."""
    position = status.get("position") or {}
    return (str(position.get("segment") or ""),
            int(position.get("offset") or 0),
            str(candidate_id))


class Coordinator:
    """One replica's seat in the autonomous failover loop.

    Each :meth:`step`:

    1. ticks the shared :class:`HealthMonitor` (probes fire on the
       injected clock's schedule);
    2. keeps the local replica tailing (transient sync failures are
       swallowed — they only make this candidate's rank staler);
    3. if the log's epoch advanced past the last one this coordinator
       observed, some election already resolved: re-pin to the new
       primary (``repinned``) and re-target the monitor's view of who
       the primary is;
    4. if the monitor says the primary is ``dead``, run the election:
       rank every non-dead, non-promoted candidate (self via a live
       status; peers via their monitored statuses) by
       :func:`election_rank` — the winner promotes, everyone else
       defers (``deferred``) and waits for the stamp to show up in
       the tail.

    Losing the promote race (:class:`EpochFenced`) is a normal
    outcome, not an error: the stamp that beat ours is the truth, the
    replica already rolled its promoted mark back, and the next step
    re-pins.  A deferred-to winner that dies before stamping is
    declared dead by the monitor after ``dead_after`` more misses and
    drops out of the next round's candidate set — detection, election
    and promotion all complete within a bounded number of ticks.
    """

    def __init__(self, replica_id: str, replica: ReplicaEngine,
                 monitor: HealthMonitor, primary_id: str = "primary",
                 promote_timeout: float = 5.0,
                 segment_records: int | None = None,
                 sync_on_step: bool = True):
        self.replica_id = str(replica_id)
        self.replica = replica
        self.monitor = monitor
        self.primary_id = str(primary_id)
        self.promote_timeout = promote_timeout
        self.segment_records = segment_records
        self.sync_on_step = sync_on_step
        self.role = "follower"
        self.engine = None  # the promoted StoreEngine once primary
        self.elections = 0
        self.events: list[dict] = []
        self._baseline_epoch = (replica.engine.epoch
                                if replica.ready else 0)
        self.tracer = NULL_TRACER
        self._c_elections = None

    def attach_observability(self, metrics: MetricsRegistry | None = None,
                             tracer: Tracer | None = None) -> None:
        """Count election rounds into a registry and stamp every
        coordinator event (repinned/deferred/promoted/...) into a
        tracer's timeline; :attr:`elections`/:attr:`events` stay as
        they were."""
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._c_elections = (None if metrics is None
                             else metrics.counter("cluster.elections"))

    # -- the loop ------------------------------------------------------
    def step(self) -> dict | None:
        """One supervision round; returns the event it caused (or
        ``None`` for an uneventful round)."""
        self.monitor.tick()
        if self.role == "primary":
            return None
        if self.sync_on_step:
            self._sync_quietly()
        event = self._maybe_repin()
        if event is not None:
            return event
        primary_state = self.monitor.state(self.primary_id)
        if primary_state == ALIVE:
            status = self.monitor.status(self.primary_id) or {}
            self._baseline_epoch = max(self._baseline_epoch,
                                       int(status.get("epoch") or 0))
            return None
        if primary_state == SUSPECT:
            return None  # suspicion alone never elects
        return self._elect()

    def _sync_quietly(self) -> None:
        try:
            self.replica.sync()
        except (StoreError, OSError):
            # EpochFenced is a StoreError: a pinned follower crossing a
            # stamp, or transient tail trouble — either way the rank
            # just goes stale; the election logic reads epochs itself.
            pass

    def _event(self, action: str, **fields: Any) -> dict:
        event = {"action": action, "replica_id": self.replica_id,
                 **fields}
        self.events.append(event)
        self.tracer.event(f"cluster.{action}", event)
        return event

    # -- epoch re-pinning ----------------------------------------------
    def _maybe_repin(self) -> dict | None:
        """When the log's epoch advanced past the last one we observed,
        an election already resolved — adopt its outcome."""
        if not self.replica.ready:
            return None
        epoch = self.replica.engine.epoch
        if epoch <= self._baseline_epoch:
            return None
        self._baseline_epoch = epoch
        winner = self._find_promoted_peer()
        if winner is not None:
            self.primary_id = winner
        return self._event("repinned", epoch=epoch,
                           primary=self.primary_id)

    def _find_promoted_peer(self) -> str | None:
        best: tuple[int, str] | None = None
        for peer_id in self.monitor.peer_ids():
            if self.monitor.state(peer_id) == DEAD:
                continue
            status = self.monitor.status(peer_id) or {}
            if status.get("promoted") or status.get("role") == "primary":
                key = (int(status.get("epoch") or 0), peer_id)
                if best is None or key > best:
                    best = key
        return best[1] if best is not None else None

    # -- the election --------------------------------------------------
    def _elect(self) -> dict:
        self.elections += 1
        if self._c_elections is not None:
            self._c_elections.inc()
        with self.tracer.span("cluster.election",
                              replica=self.replica_id):
            return self._elect_inner()

    def _elect_inner(self) -> dict:
        candidates: dict[str, tuple[str, int, str]] = {}
        if self.replica.ready and not self.replica.promoted:
            candidates[self.replica_id] = election_rank(
                self.replica.status(), self.replica_id)
        for peer_id in self.monitor.peer_ids():
            if peer_id == self.primary_id or peer_id == self.replica_id:
                continue
            if self.monitor.state(peer_id) == DEAD:
                continue
            status = self.monitor.status(peer_id)
            if status is None or not status.get("ready", True):
                continue
            if status.get("promoted") or status.get("role") == "primary":
                # Already the new primary; the repin path adopts it.
                continue
            if status.get("role") != "replica":
                continue
            candidates[peer_id] = election_rank(status, peer_id)
        if not candidates:
            return self._event("no-candidates",
                               primary=self.primary_id)
        winner = max(candidates.values())[2]
        if winner != self.replica_id:
            return self._event("deferred", winner=winner,
                               rank=candidates[self.replica_id]
                               if self.replica_id in candidates
                               else None)
        return self._promote_self(candidates)

    def _promote_self(self, candidates: Mapping) -> dict:
        # Last look before stamping: the tail may already carry a
        # winner's stamp (promote()'s own race guard still backstops
        # the narrower window after this check).
        self._sync_quietly()
        repin = self._maybe_repin()
        if repin is not None:
            return repin
        try:
            engine = promote(self.replica, timeout=self.promote_timeout,
                             segment_records=self.segment_records)
        except EpochFenced as exc:
            # Raced and lost: the stamp that beat ours is the truth;
            # the replica resumed following, the next step re-pins.
            return self._event("election-lost", held=exc.held,
                               current=exc.current)
        except StoreError as exc:
            # A live tail (the "dead" primary is writing) or a replica
            # that cannot serve yet: refuse, keep following.
            return self._event("aborted", reason=str(exc))
        self.role = "primary"
        self.engine = engine
        self._baseline_epoch = engine.epoch
        return self._event("promoted", epoch=engine.epoch,
                           candidates={cid: list(rank) for cid, rank
                                       in candidates.items()})

    def describe(self) -> dict:
        return {"replica_id": self.replica_id, "role": self.role,
                "primary_id": self.primary_id,
                "epoch": (self.replica.engine.epoch
                          if self.replica.ready else 0),
                "elections": self.elections,
                "events": len(self.events)}

    def __repr__(self) -> str:
        return (f"Coordinator({self.replica_id}, role={self.role}, "
                f"primary={self.primary_id})")
