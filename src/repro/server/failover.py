"""Failover: replica promotion, epoch fencing, and resilient clients.

The server stack so far has a single point of failure: one primary owns
the WAL, replicas can only follow it.  This module completes the loop:

* :func:`promote` turns a caught-up :class:`ReplicaEngine` into a
  read/write :class:`~repro.store.StoreEngine` — finish the tail,
  apply the PR-6 torn-tail repair, stamp the next **epoch** into the
  log, adopt it for writing.  The stamp is the fence: a demoted
  primary's next append raises :class:`~repro.errors.EpochFenced`
  instead of silently forking history (the Alexandrov reading from
  PAPERS.md — the epoch is an explicit dimension of the version graph,
  not an ambient assumption).
* :class:`RetryPolicy` classifies failures as retryable or fatal
  (transport and capacity errors heal with time; semantic errors — a
  rejected commit stays rejected — never do) and draws backoff delays
  with *decorrelated jitter*.  It runs no loop of its own.
* :class:`ReadBalancer` fans reads out across replicas within
  staleness budgets and degrades down one ladder — healthy in-budget
  replicas, then the primary, then any replica within
  ``max_staleness`` — instead of failing.
* :class:`FailoverClient` drives a fleet of addresses through a
  kill-and-promote event: it tracks the highest epoch it has seen and
  refuses stale primaries (client-side fencing), runs the one
  backoff-and-deadline retry loop, retries each write until a
  promotion completes or the deadline lapses, and degrades reads
  through the balancer's last rung to a replica within a bounded
  staleness budget.

What promotion does — and does not — guarantee: every record durably
in the log at promotion time is in the promoted graph (the
differential suite holds the promoted graph byte-identical to a full
replay of the crashed primary's durable prefix), and no *old-epoch*
write can land after the stamp.  Writes the old primary acknowledged
but never durably logged are gone — exactly the WAL's own crash
contract, now spanning two machines.
"""

from __future__ import annotations

import time
from random import Random
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import (
    CommitRejected,
    DeadlineExceeded,
    EpochFenced,
    ProtocolError,
    ReproError,
    ServerOverloaded,
    StoreError,
)
from repro.obs.metrics import MetricsRegistry
from repro.server.client import StoreClient
from repro.server.protocol import SUSPICION_STATES
from repro.server.replica import ReplicaEngine
from repro.store.engine import StoreEngine
from repro.store.wal import WriteAheadLog

ALIVE = SUSPICION_STATES[0]


# ----------------------------------------------------------------------
# promotion
# ----------------------------------------------------------------------
def promote(replica: ReplicaEngine, timeout: float = 5.0,
            sync: bool = False,
            segment_records: int | None = None) -> StoreEngine:
    """Promote ``replica`` to primary over the log it was tailing.

    The contract, in order:

    1. **Finish the tail** — :meth:`ReplicaEngine.sync` applies every
       complete record already durable in the log.
    2. **Repair** — :meth:`WriteAheadLog.repair` truncates a torn
       final line (the crashed primary's in-flight append; never
       acknowledged, so dropping it loses nothing acknowledged-and-
       durable), then a final catch-up drains what repair exposed.
       Anything still unconsumed after that is a *live* tail — the old
       primary is not actually dead — and promotion refuses.
    3. **Stamp the epoch** — a fresh :class:`WriteAheadLog` handle is
       opened on the log, :meth:`~WriteAheadLog.stamp_epoch` writes an
       ``epoch`` record (new epoch number, the graph's sequence
       counter and branch heads at takeover) heading a fresh segment,
       fsynced.  From this instant every old-epoch handle is fenced.
    4. **Adopt** — the replica's inner engine takes the stamped log as
       its own WAL (:meth:`StoreEngine.adopt_wal`) and is returned,
       ready to serve writes (wrap it in a new
       :class:`~repro.server.StoreServer`).

    The replica is marked *promoted* before the stamp lands, so a
    racing background sync can never re-apply the promotion record to
    the engine that wrote it; if the stamp loses a promotion race
    (:class:`EpochFenced` — another replica stamped first), the mark
    is rolled back and this replica resumes following the winner.

    Two promotions of the same log race safely: epochs must advance,
    so exactly one stamp wins and the loser raises.
    """
    replica.sync()
    repaired = WriteAheadLog.repair(replica.wal_path)
    replica.catch_up(timeout=timeout)
    behind = replica.behind_bytes()
    if behind:
        raise StoreError(
            f"cannot promote: {behind} bytes of log tail are still "
            f"unconsumed after catch-up and repair (dropped "
            f"{repaired} torn bytes) — the old primary appears to be "
            "alive and writing; stop it first")
    engine = replica.engine  # raises until the replica bootstrapped
    replica.mark_promoted()
    try:
        wal = WriteAheadLog(replica.wal_path, sync=sync,
                            segment_records=segment_records)
        if wal.epoch > engine.epoch or replica.behind_bytes():
            # Another promotion (or its first writes) landed between
            # our catch-up and opening the handle; that stamp is the
            # truth and this one must lose.
            raise EpochFenced(
                f"promotion raced and lost: the log advanced to epoch "
                f"{wal.epoch} past this replica's epoch {engine.epoch}",
                held=engine.epoch, current=wal.epoch)
        wal.stamp_epoch(seq=engine.graph.seq,
                        heads=engine.graph.branches())
    except EpochFenced:
        replica.unmark_promoted()  # lost the race: follow the winner
        raise
    engine.adopt_wal(wal)
    return engine


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
class RetryPolicy:
    """Backoff delays with decorrelated jitter plus a typed
    retryable-vs-fatal classification — the policy
    :class:`FailoverClient`'s retry loop consults.

    Retryable (heal with time): ``OSError`` (covers ``ConnectionError``
    and socket timeouts), :class:`ProtocolError` (torn streams, lost
    frames), :class:`ServerOverloaded` (capacity frees up).  Fatal
    (retrying replays the failure): everything else — a rejected
    commit, an unknown branch, a malformed row.  :class:`EpochFenced`
    is deliberately *fatal here*: retrying the same peer under a stale
    epoch can never succeed; only :class:`FailoverClient`, which can
    re-resolve the primary, treats it as a reason to try again
    elsewhere.

    Delays follow the decorrelated-jitter scheme: each sleep is drawn
    uniformly from ``[base_delay, 3 * previous]``, capped at
    ``max_delay`` — retries spread out instead of synchronising into
    thundering herds.  Pass ``seed`` to make the sequence
    deterministic (the chaos suite does).
    """

    RETRYABLE: tuple[type[BaseException], ...] = (
        OSError, ProtocolError, ServerOverloaded)

    def __init__(self, base_delay: float = 0.005, max_delay: float = 1.0,
                 seed: int | None = None):
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.seed = seed
        self._rng = Random(seed)

    def retryable(self, exc: BaseException) -> bool:
        """Whether waiting and retrying can plausibly fix ``exc``."""
        if isinstance(exc, EpochFenced):
            return False  # same peer + stale epoch never heals
        return isinstance(exc, self.RETRYABLE)

    def next_delay(self, previous: float | None = None) -> float:
        """The next sleep: uniform over ``[base, 3*previous]``, capped."""
        previous = self.base_delay if previous is None else previous
        high = max(self.base_delay, previous * 3.0)
        return min(self.max_delay,
                   self._rng.uniform(self.base_delay, high))

    def sleep(self, delay: float) -> None:  # overridable in tests
        time.sleep(delay)

    def __repr__(self) -> str:
        return (f"RetryPolicy(base_delay={self.base_delay}, "
                f"max_delay={self.max_delay}, seed={self.seed})")


# ----------------------------------------------------------------------
# fan-out reads
# ----------------------------------------------------------------------
class ReadBalancer:
    """Spread ``read``/``read_at`` across N replicas, within budgets.

    Parameters
    ----------
    replicas:
        ``{replica_id: (host, port)}`` — ids must match the monitor's
        peer ids when a monitor is supplied.
    primary:
        The primary's address — the first fallback rung.
    staleness_budget:
        Per-replica freshness bound in WAL bytes: an int applies to
        every replica, a mapping sets per-replica budgets (missing ids
        are unbounded), ``None`` accepts any lag.  A replica over its
        budget leaves the rotation until it catches back up.
    max_staleness:
        The *hard* bound used by the last degradation rung; ``None``
        means any reachable replica may serve it.
    monitor:
        Anything with ``state(peer_id) -> str`` (a
        :class:`~repro.server.cluster.HealthMonitor`); replicas not
        reported ``alive`` are ejected from the rotation.
    seed:
        Seeds the rotation's starting point, keeping fan-out spread
        deterministic for tests.
    refresh_every:
        How many reads a cached ``behind_bytes`` measurement may
        serve before the next read re-asks ``status`` (1 = every
        read).
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` to count into
        (``balancer.reads.<rid>``, ``balancer.fallbacks.*``,
        ``balancer.ejections``); a private registry is created when
        omitted.  These counters show where traffic actually went.

    The degradation ladder, in order: healthy in-budget replicas
    (rotation) → the primary → any reachable replica within
    ``max_staleness``.  Only when every rung fails does the last
    error surface.  :class:`FailoverClient` degrades through the same
    last rung when its primary is gone.
    """

    def __init__(self, replicas: Mapping[str, Sequence],
                 primary: Sequence | None = None, branch: str = "main",
                 staleness_budget: int | Mapping[str, int] | None = None,
                 max_staleness: int | None = None,
                 monitor: Any = None, seed: int = 0,
                 timeout: float = 5.0, refresh_every: int = 8,
                 metrics: MetricsRegistry | None = None):
        self._replicas = {
            str(rid): (str(addr[0]), int(addr[1]))
            for rid, addr in dict(replicas).items()}
        if not self._replicas:
            raise StoreError("read balancer needs at least one replica")
        self._primary = (None if primary is None
                         else (str(primary[0]), int(primary[1])))
        self.branch = branch
        self.staleness_budget = staleness_budget
        self.max_staleness = max_staleness
        self.monitor = monitor
        self.timeout = timeout
        self.refresh_every = max(1, int(refresh_every))
        self._clients: dict[str, StoreClient] = {}
        self._behind: dict[str, int | None] = {}
        self._reads_since_refresh: dict[str, int] = {}
        self._cursor = Random(seed).randrange(len(self._replicas))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_reads = {rid: self.metrics.counter(f"balancer.reads.{rid}")
                         for rid in self._replicas}
        self._c_fallbacks = {
            kind: self.metrics.counter(f"balancer.fallbacks.{kind}")
            for kind in ("primary", "stale")}
        self._c_ejections = self.metrics.counter("balancer.ejections")

    # -- membership ----------------------------------------------------
    def add_replica(self, replica_id: str, address: Sequence) -> None:
        rid = str(replica_id)
        self._replicas[rid] = (str(address[0]), int(address[1]))
        if rid not in self._c_reads:
            self._c_reads[rid] = self.metrics.counter(
                f"balancer.reads.{rid}")

    # -- plumbing ------------------------------------------------------
    def _budget(self, replica_id: str) -> int | None:
        budget = self.staleness_budget
        if budget is None:
            return None
        if isinstance(budget, Mapping):
            value = budget.get(replica_id)
            return None if value is None else int(value)
        return int(budget)

    def _rotation(self) -> list[str]:
        ids = sorted(self._replicas)
        start = self._cursor % len(ids)
        self._cursor += 1
        return ids[start:] + ids[:start]

    def _drop(self, replica_id: str) -> None:
        client = self._clients.pop(replica_id, None)
        if client is not None:
            client.close()
            self._c_ejections.inc()
        self._behind.pop(replica_id, None)
        self._reads_since_refresh.pop(replica_id, None)

    def _client_for(self, replica_id: str) -> StoreClient:
        client = self._clients.get(replica_id)
        if client is not None and client.is_stale():
            self._drop(replica_id)
            client = None
        if client is None:
            host, port = self._replicas[replica_id]
            client = StoreClient(host, port, branch=self.branch,
                                 timeout=self.timeout)
            self._clients[replica_id] = client
            self._reads_since_refresh[replica_id] = self.refresh_every
        return client

    def _behind_bytes(self, replica_id: str,
                      client: StoreClient) -> int | None:
        """The replica's lag, re-measured every ``refresh_every``
        reads (a fresh dial always measures)."""
        served = self._reads_since_refresh.get(replica_id,
                                               self.refresh_every)
        if served >= self.refresh_every:
            status = client.status()
            self._behind[replica_id] = status.get("behind_bytes")
            self._reads_since_refresh[replica_id] = 0
        return self._behind.get(replica_id)

    def _suspect(self, replica_id: str) -> bool:
        if self.monitor is None:
            return False
        try:
            return self.monitor.state(replica_id) != ALIVE
        except StoreError:
            return False  # not a monitored peer: trust it

    # -- reads ---------------------------------------------------------
    def read(self, relation: str, branch: str | None = None,
             at: str | None = None) -> list[dict]:
        rows, _ = self.read_at(relation, branch=branch, at=at)
        return rows

    def read_at(self, relation: str, branch: str | None = None,
                at: str | None = None) -> tuple[list[dict], str]:
        """Rows plus the version id that served them, from the first
        rung of the degradation ladder that answers."""
        last: BaseException | None = None
        rotation = self._rotation()
        # Rung 1: healthy replicas within their budgets.
        for rid in rotation:
            if self._suspect(rid):
                continue
            try:
                client = self._client_for(rid)
                behind = self._behind_bytes(rid, client)
                budget = self._budget(rid)
                if budget is not None and (behind is None
                                           or behind > budget):
                    continue
                result = client.read_at(relation, at=at, branch=branch)
            except Exception as exc:
                if not _read_retryable(exc):
                    raise
                self._drop(rid)
                last = exc
                continue
            self._c_reads[rid].inc()
            self._reads_since_refresh[rid] = (
                self._reads_since_refresh.get(rid, 0) + 1)
            return result
        # Rung 2: the primary.
        if self._primary is not None:
            try:
                with StoreClient(*self._primary, branch=self.branch,
                                 timeout=self.timeout) as client:
                    result = client.read_at(relation, at=at,
                                            branch=branch)
                self._c_fallbacks["primary"].inc()
                return result
            except Exception as exc:
                if not _read_retryable(exc):
                    raise
                last = exc
        # Rung 3: a stale-within-bound replica.
        result = self._read_stale(relation, branch, at, rotation)
        if result is not None:
            return result
        raise last if last is not None else StoreError(
            f"no replica within budget could serve {relation!r} and "
            "no primary is reachable")

    def _read_stale(self, relation: str, branch: str | None,
                    at: str | None, rotation: list[str]
                    ) -> tuple[list[dict], str] | None:
        """The last rung: the first peer in ``rotation`` that answers
        ``hello`` as a replica and lags at most ``max_staleness``
        bytes, suspicion notwithstanding — stale-within-budget beats
        down.  ``None`` when no peer qualified; raises the last
        retryable failure when one was seen."""
        last: BaseException | None = None
        for rid in rotation:
            try:
                client = self._client_for(rid)
                if client.role != "replica":
                    continue  # never a degraded read from a primary
                behind = client.status().get("behind_bytes")
                if (self.max_staleness is not None
                        and (behind is None
                             or behind > self.max_staleness)):
                    continue
                result = client.read_at(relation, at=at, branch=branch)
            except Exception as exc:
                if not _read_retryable(exc):
                    raise
                self._drop(rid)
                last = exc
                continue
            self._c_reads[rid].inc()
            self._c_fallbacks["stale"].inc()
            return result
        if last is not None:
            raise last
        return None

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        for rid in list(self._clients):
            client = self._clients.pop(rid)
            client.close()

    def __enter__(self) -> "ReadBalancer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        counters = {name: value for name, value
                    in self.metrics.snapshot()["counters"].items()
                    if name.startswith("balancer.")}
        return f"ReadBalancer({sorted(self._replicas)}, {counters})"


def _read_retryable(exc: BaseException) -> bool:
    """Whether another peer might answer a read that failed with
    ``exc`` — transport trouble yes, semantic errors (a rejected
    commit crossing the bridge, a malformed request) no.  A plain
    ``StoreError`` stays retryable: a lagging replica reports exactly
    that for a version it has not applied yet, and a fresher peer can
    genuinely answer it."""
    if isinstance(exc, EpochFenced):
        return True  # a demoted peer: another rung will answer
    if isinstance(exc, CommitRejected):
        return False
    return isinstance(exc,
                      (OSError, ProtocolError, ServerOverloaded,
                       StoreError))


# ----------------------------------------------------------------------
# the failover client
# ----------------------------------------------------------------------
class FailoverClient:
    """A client that survives a kill-and-promote event.

    Holds a *candidate list* of server addresses — the current
    primary, its replicas, and (via :meth:`add_address`) whatever gets
    promoted later.  One live primary connection is maintained
    lazily; every address is dialled and asked ``hello`` until one
    answers ``role == "primary"`` with an epoch no lower than the
    highest this client has seen.  That epoch floor is the client-side
    fence: after talking to the promoted primary (epoch *n*), a
    still-running stale primary (epoch *n-1*) is refused even though
    it answers — the client can never be fooled into writing to the
    loser of a failover.

    Write path: :meth:`run` keeps trying — reconnecting through the
    candidate list with the policy's backoff — until the commit lands
    or ``deadline`` seconds lapse (:class:`DeadlineExceeded`, last
    failure chained).  Fatal errors (a rejected commit) surface
    immediately.  A lost ack
    (disconnect mid-commit) is retried; the store's validation makes
    re-running an already-applied insert/delete batch a no-op commit,
    so the retry is safe.

    Read path: :meth:`read` prefers the primary; when no primary is
    reachable it degrades through the last rung of a
    :class:`ReadBalancer` over the candidates — any replica whose
    reported ``behind_bytes`` is within ``staleness_budget`` (``None``
    budget = any replica), counted in ``balancer.*``.  Heartbeats
    (:meth:`heartbeat`) and the :meth:`StoreClient.is_stale` peek
    detect dead peers between operations without a round trip.
    """

    def __init__(self, addresses: Iterable[Sequence],
                 branch: str = "main",
                 policy: RetryPolicy | None = None,
                 deadline: float = 10.0,
                 staleness_budget: int | None = None,
                 timeout: float = 5.0,
                 metrics: MetricsRegistry | None = None):
        self.addresses: list[tuple[str, int]] = [
            (str(a[0]), int(a[1])) for a in addresses]
        if not self.addresses:
            raise StoreError("failover client needs at least one address")
        self.branch = branch
        self.policy = policy or RetryPolicy()
        self.deadline = deadline
        self.timeout = timeout
        self.epoch = 0  # highest epoch witnessed; the client-side fence
        self._client: StoreClient | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_reconnects = self.metrics.counter("failover.reconnects")
        self._c_fenced = self.metrics.counter("failover.fenced")
        self._c_retries = self.metrics.counter("failover.retries")
        self._balancer = ReadBalancer(
            {f"{host}:{port}": (host, port)
             for host, port in self.addresses},
            branch=branch, max_staleness=staleness_budget,
            timeout=timeout, metrics=self.metrics)

    # -- membership ----------------------------------------------------
    def add_address(self, address: Sequence) -> None:
        """Add a candidate (e.g. the server wrapping a just-promoted
        engine) — idempotent."""
        addr = (str(address[0]), int(address[1]))
        if addr not in self.addresses:
            self.addresses.append(addr)
            self._balancer.add_replica(f"{addr[0]}:{addr[1]}", addr)

    # -- connection management ----------------------------------------
    def _drop_client(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def _connect_primary(self) -> StoreClient:
        """Dial the candidate list for a primary at (or past) the
        epoch floor; raises the last failure when none qualifies."""
        last: BaseException | None = None
        for addr in self.addresses:
            try:
                client = StoreClient(*addr, branch=self.branch,
                                     timeout=self.timeout)
            except Exception as exc:
                last = exc
                continue
            if client.role != "primary":
                client.close()
                last = StoreError(f"{addr} is a replica, not a primary")
                continue
            epoch = client.server_epoch
            if epoch < self.epoch:
                client.close()
                last = EpochFenced(
                    f"{addr} serves stale epoch {epoch}; this client "
                    f"has seen epoch {self.epoch}",
                    held=epoch, current=self.epoch)
                continue
            self.epoch = epoch
            self._c_reconnects.inc()
            return client
        raise last if last is not None else StoreError(
            "no candidate addresses")

    def _primary(self) -> StoreClient:
        if self._client is not None and self._client.is_stale():
            self._drop_client()
        if self._client is None:
            self._client = self._connect_primary()
        return self._client

    def heartbeat(self) -> bool:
        """Ping the held primary connection; a dead peer is dropped
        (the next operation re-resolves) and reported as ``False``."""
        if self._client is None:
            return False
        try:
            return self._client.ping()
        except Exception:
            self._drop_client()
            return False

    # -- writes --------------------------------------------------------
    def run(self, ops: Iterable[dict]) -> dict:
        """One transaction (``ops``, op records as for
        :meth:`StoreClient.run`, in one ``commit`` frame) against the
        current primary, surviving reconnects and promotions until it
        lands or the client's ``deadline`` lapses."""
        ops = list(ops)
        return self._until(lambda c: c.run(ops),
                           time.monotonic() + self.deadline)

    def _until(self, op: Callable[[StoreClient], Any],
               deadline_at: float) -> Any:
        """Run ``op`` against a (re)resolved primary until it succeeds,
        the deadline lapses, or a fatal error surfaces."""
        delay: float | None = None
        last: BaseException | None = None
        while True:
            try:
                client = self._primary()
            except Exception as exc:
                # Resolution failures — every candidate down, only
                # replicas answering, or all primaries stale — always
                # retry: a promotion in flight heals exactly this.
                if isinstance(exc, EpochFenced):
                    self.epoch = max(self.epoch, exc.current)
                    self._c_fenced.inc()
                self._drop_client()
                last = exc
            else:
                try:
                    return op(client)
                except EpochFenced as exc:
                    # Demoted mid-conversation: drop it and re-resolve
                    # — the promoted one may already be listed.
                    self.epoch = max(self.epoch, exc.current)
                    self._c_fenced.inc()
                    self._drop_client()
                    last = exc
                except Exception as exc:
                    if not self.policy.retryable(exc):
                        raise
                    self._drop_client()
                    last = exc
            delay = self.policy.next_delay(delay)
            if time.monotonic() + delay > deadline_at:
                raise DeadlineExceeded(
                    f"no primary accepted the operation before the "
                    f"deadline; last failure: {last}") from last
            self._c_retries.inc()
            self.policy.sleep(delay)

    # -- reads ---------------------------------------------------------
    def read(self, relation: str, branch: str | None = None) -> list[dict]:
        """Rows from the primary; degrades to a replica within the
        staleness budget when no primary is reachable."""
        client = None
        try:
            client = self._primary()
            return client.read(relation, branch=branch)
        except Exception as exc:
            # A failed resolution (no reachable primary at all) always
            # degrades; a failed read only when another peer could
            # answer — a semantic failure (unknown relation) could not.
            if client is not None and not (
                    self.policy.retryable(exc)
                    or isinstance(exc, EpochFenced)):
                raise
            failure = exc
        self._drop_client()
        try:
            served = self._balancer._read_stale(
                relation, branch, None, self._balancer._rotation())
        except (OSError, ReproError):
            served = None  # the primary-side failure is the one to report
        if served is None:
            raise failure
        return served[0]

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._drop_client()
        self._balancer.close()

    def __enter__(self) -> "FailoverClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"FailoverClient({self.addresses}, epoch={self.epoch})"
