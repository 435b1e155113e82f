"""WAL-tailing read replicas: horizontal scale-out for snapshot reads.

A :class:`ReplicaEngine` owns a :class:`~repro.store.WalCursor` over the
primary's write-ahead log and an inner :class:`~repro.store.StoreEngine`
it never writes to directly: every record the cursor yields is applied
through :meth:`StoreEngine.apply_wal_record`, the exact code path
``StoreEngine.replay`` drains a log through.  A replica's version graph
is therefore *identical* — version ids, branch heads, states — to what
a full replay of the same WAL prefix produces; the differential suite
in ``tests/test_replica.py`` holds it to that.

The topology reading (PAPERS.md's Alexandrov-topologies framing):
replica lag is one more dimension of the version graph.  A replica's
head is always some *ancestor* of the primary's head — an
older-but-valid version, never an invalid state — because the primary
only logs commits its axiom gate admitted, and the replica applies
whole records or nothing.  Reads served from a replica are exactly the
lock-free snapshot reads the store already gives local readers, just
pinned a few commits behind.

Crash tolerance is inherited from the PR-6 recovery contract via the
cursor: an in-progress (or torn) final line is waited out, the
primary's repair truncation is absorbed by offset clamping, and a
pruned-under-cursor segment triggers :meth:`resync` from the newest
checkpoint.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.errors import DeadlineExceeded, EpochFenced, StoreError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.store.engine import StoreEngine
from repro.store.wal import WalCursor, WriteAheadLog


class ReplicaEngine:
    """A read-only store that follows a primary's WAL.

    Parameters
    ----------
    wal_path:
        The primary's segment directory (a regular file is refused with
        :class:`~repro.errors.StoreError`).  The replica only ever reads
        it.
    from_checkpoint:
        When ``True`` (default), bootstrap skips to the newest
        checkpoint-headed segment, mirroring
        ``StoreEngine.replay(from_checkpoint=True)`` — pre-checkpoint
        versions are simply absent, restored as floor versions.  With
        ``False`` the replica applies the full history from v0.
    verify:
        Re-gate every followed commit through the replica's own axiom
        validation (the distrusting mode); the default trusts the
        primary's gate and installs records directly, which still
        re-derives every state and checks version-id agreement.

    The replica follows promotion ``epoch`` records, so its graph
    tracks whichever primary currently owns the log.

    Concurrency: :meth:`sync` is serialised by an internal lock (one
    tailer); reads are lock-free against the immutable graph, exactly
    as on a primary.  After :func:`repro.server.failover.promote` the
    replica is *promoted*: further :meth:`sync`/:meth:`resync` calls
    raise :class:`~repro.errors.EpochFenced` — the graph now belongs
    to the promoted :class:`StoreEngine`, which writes the log the
    cursor used to follow.
    """

    def __init__(self, wal_path: str | Path, from_checkpoint: bool = True,
                 verify: bool = False):
        self.wal_path = Path(wal_path)
        self.from_checkpoint = from_checkpoint
        self.verify = verify
        self.promoted = False
        self._engine: StoreEngine | None = None
        self._cursor = WalCursor(self.wal_path)
        if from_checkpoint:
            self._cursor.seek_newest_checkpoint_segment()
        self._lock = threading.Lock()
        self._applied_records = 0
        self._last_sync: float | None = None
        self.metrics: MetricsRegistry | None = None
        self.tracer = NULL_TRACER
        self._slow_commit_threshold: float | None = None
        self._c_syncs = None
        self._c_applied = None
        self._g_behind = None

    def attach_observability(self, metrics: MetricsRegistry | None = None,
                             tracer: Tracer | None = None,
                             slow_commit_threshold: float | None = None,
                             ) -> None:
        """Wire a registry/tracer into the tailer (``replica.*``
        instruments) and through to the inner engine — including one
        bootstrapped later, and therefore the engine a promotion turns
        into the new primary, so commit-phase histograms start the
        moment this node starts committing."""
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._slow_commit_threshold = slow_commit_threshold
        if metrics is None:
            self._c_syncs = self._c_applied = self._g_behind = None
        else:
            self._c_syncs = metrics.counter("replica.syncs")
            self._c_applied = metrics.counter("replica.applied_records")
            self._g_behind = metrics.gauge("replica.behind_bytes")
        if self._engine is not None:
            self._engine.attach_observability(
                metrics, tracer, slow_commit_threshold=slow_commit_threshold)

    @property
    def slow_commits(self):
        """The inner engine's slow-commit log (empty until
        bootstrapped) — uniform access for the ``metrics`` op."""
        engine = self._engine
        return () if engine is None else engine.slow_commits

    # ------------------------------------------------------------------
    # tailing
    # ------------------------------------------------------------------
    def sync(self, max_records: int | None = None) -> int:
        """Apply the records the primary appended since the last sync.

        Returns the number applied (0 when caught up, or while the
        primary is mid-append).  Raises :class:`StoreError` on genuine
        log corruption, and on a pruned-under-cursor segment — call
        :meth:`resync` for the latter.
        """
        with self._lock, self.tracer.span("replica.sync"):
            self._check_promoted()
            records = self._cursor.poll(max_records)
            for record in records:
                self._apply(record)
            applied = len(records)
            self._applied_records += applied
            self._last_sync = time.monotonic()
            if self._c_syncs is not None:
                self._c_syncs.inc()
                if applied:
                    self._c_applied.inc(applied)
                self._g_behind.set(self._cursor.behind_bytes())
            return applied

    def _check_promoted(self) -> None:
        if self.promoted:
            epoch = (self._engine.epoch
                     if self._engine is not None else 0)
            raise EpochFenced(
                "replica was promoted; it writes this log now and no "
                "longer tails it", held=epoch, current=epoch)

    def _apply(self, record: dict) -> None:
        if self._engine is None:
            self._engine = StoreEngine.from_wal_record(
                record, verify=self.verify)
            if self.metrics is not None:
                self._engine.attach_observability(
                    self.metrics, self.tracer,
                    slow_commit_threshold=self._slow_commit_threshold)
            return
        self._engine.apply_wal_record(record, verify=self.verify)

    def catch_up(self, timeout: float = 5.0,
                 poll_interval: float = 0.01,
                 min_interval: float = 0.0005,
                 backoff: float = 2.0,
                 deadline: float | None = None) -> int:
        """Sync until the cursor reports nothing left behind (or the
        timeout lapses — a live primary can outrun a poll, so callers
        needing a hard guarantee stop the writers first).  Returns the
        records applied.

        Polling backs off: an empty poll doubles (``backoff``) the
        sleep from ``min_interval`` up to ``poll_interval``, and any
        progress resets it — so a busy tail is drained at full speed
        while a quiet primary costs a handful of stats per
        ``poll_interval``, not a busy loop.

        ``deadline`` is the *hard* form of ``timeout`` (and overrides
        it): every backoff sleep is capped against the remaining
        budget, transient ``OSError``\\ s from the poll (a flaky disk,
        an injected fault) are retried inside the budget instead of
        aborting the catch-up, and when the budget lapses while still
        behind, :class:`~repro.errors.DeadlineExceeded` is raised with
        the last transient failure chained as ``__cause__`` — the
        contract of :class:`~repro.server.failover.FailoverClient`'s
        retry loop, so supervision loops polling a dead or torn
        primary fail loudly and boundedly instead of backing off past
        any bound and returning as if nothing were wrong.
        """
        bound = timeout if deadline is None else deadline
        deadline_at = time.monotonic() + bound
        interval = max(0.0, min(min_interval, poll_interval))
        applied = 0
        last_failure: OSError | None = None
        while True:
            got = 0
            try:
                got = self.sync()
                applied += got
                last_failure = None
            except OSError as exc:
                if deadline is None:
                    raise  # soft mode keeps the historical contract
                last_failure = exc
            if last_failure is None and self.behind_bytes() == 0:
                return applied
            now = time.monotonic()
            if now >= deadline_at:
                if deadline is not None:
                    raise DeadlineExceeded(
                        f"replica still {self.behind_bytes()} bytes "
                        f"behind when the {bound}s catch-up deadline "
                        "lapsed (dead or torn primary?)"
                    ) from last_failure
                return applied
            if got:
                interval = max(0.0, min(min_interval, poll_interval))
            else:
                time.sleep(min(interval,
                               max(0.0, deadline_at - now)))
                interval = min(poll_interval,
                               max(interval, min_interval) * backoff)

    def resync(self) -> int:
        """Re-bootstrap from the newest checkpoint after the tail was
        pruned out from under the cursor; the graph is rebuilt from
        scratch (version ids stay identical — the sequence counter is
        part of the checkpoint)."""
        with self._lock:
            self._check_promoted()
            self._engine = None
            self._cursor = WalCursor(self.wal_path)
            self._cursor.seek_newest_checkpoint_segment()
        return self.sync()

    def mark_promoted(self) -> None:
        """Fence this replica's own tailing (called by
        :func:`repro.server.failover.promote` before the epoch stamp
        lands, so a racing background sync can never re-apply the
        promotion record to the very engine that now owns it)."""
        with self._lock:
            self.promoted = True

    def unmark_promoted(self) -> None:
        """Roll back :meth:`mark_promoted` after a promotion that
        failed to stamp (someone else won the race) — the replica goes
        back to tailing whoever did win."""
        with self._lock:
            self.promoted = False

    # ------------------------------------------------------------------
    # reads (lock-free once bootstrapped)
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """True once the bootstrap record (snapshot or checkpoint) has
        been applied and reads can be served."""
        return self._engine is not None

    @property
    def engine(self) -> StoreEngine:
        engine = self._engine
        if engine is None:
            raise StoreError(
                "replica has not bootstrapped yet (no snapshot or "
                "checkpoint record visible in the WAL); sync() first")
        return engine

    @property
    def graph(self):
        return self.engine.graph

    @property
    def schema(self):
        return self.engine.schema

    def state(self, vid: str | None = None, branch: str = "main"):
        return self.engine.state(vid, branch)

    def read(self, relation: str, branch: str = "main",
             at: str | None = None):
        return self.engine.read(relation, branch, at)

    def head_version(self, branch: str = "main"):
        return self.engine.head_version(branch)

    def describe(self) -> dict:
        summary = self.engine.describe()
        summary["role"] = "replica"
        return summary

    # ------------------------------------------------------------------
    # staleness / lag
    # ------------------------------------------------------------------
    def behind_bytes(self) -> int:
        """Unconsumed log bytes — 0 means every durably written record
        has been applied."""
        return self._cursor.behind_bytes()

    def status(self) -> dict:
        """The staleness/lag report: where the replica is, how far
        behind the durable log it is, and what it serves."""
        engine = self._engine
        behind = self.behind_bytes()
        status = {
            "role": "replica",
            "ready": engine is not None,
            "promoted": self.promoted,
            "epoch": engine.epoch if engine is not None else 0,
            "counters": {
                "replica.syncs": (self._c_syncs.value
                                  if self._c_syncs is not None else 0),
                "replica.applied_records": self._applied_records,
                "replica.behind_bytes": behind,
            },
            "wal": str(self.wal_path),
            "position": self._cursor.position(),
            "behind_bytes": behind,
            "applied_records": self._applied_records,
            "verify": self.verify,
            "seconds_since_sync": (
                round(time.monotonic() - self._last_sync, 6)
                if self._last_sync is not None else None),
        }
        if engine is not None:
            status["branches"] = engine.graph.branches()
            status["seq"] = engine.graph.seq
            status["versions"] = len(engine.graph)
        return status

    def lag(self) -> dict:
        """The short form of :meth:`status` for monitoring loops."""
        return {
            "behind_bytes": self.behind_bytes(),
            "current": self.behind_bytes() == 0,
            "applied_records": self._applied_records,
        }

    def close(self) -> None:
        """Replicas hold no file handles between polls; closing only
        drops the engine reference."""
        with self._lock:
            self._engine = None

    def __repr__(self) -> str:
        head = self._engine.graph.branches() if self._engine else None
        return (f"ReplicaEngine({self.wal_path}, ready={self.ready}, "
                f"heads={head})")


def segments_snapshot(wal_path: str | Path) -> list[str]:
    """The log's current segment names (diagnostics for lag reports)."""
    return [p.name for p in WriteAheadLog.segment_paths(wal_path)]
