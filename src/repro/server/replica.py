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

from repro.errors import EpochFenced, StoreError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.store.engine import StoreEngine
from repro.store.wal import WalCursor

# catch_up's poll backoff: the first sleep, and the cap on its doubling.
_MIN_INTERVAL = 0.0005
_POLL_INTERVAL = 0.01


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

    def catch_up(self, timeout: float = 5.0) -> int:
        """Sync until the cursor reports nothing left behind (or the
        timeout lapses — a live primary can outrun a poll, so callers
        needing a hard guarantee stop the writers first, and callers
        that must know check :meth:`behind_bytes` afterwards).  Returns
        the records applied; an ``OSError`` from the poll propagates.

        Polling backs off: an empty poll doubles the sleep from
        ``_MIN_INTERVAL`` up to ``_POLL_INTERVAL``, and any progress
        resets it — so a busy tail is drained at full speed while a
        quiet primary costs a handful of stats per ``_POLL_INTERVAL``,
        not a busy loop.
        """
        deadline_at = time.monotonic() + timeout
        interval = _MIN_INTERVAL
        applied = 0
        while True:
            got = self.sync()
            applied += got
            if self.behind_bytes() == 0:
                return applied
            now = time.monotonic()
            if now >= deadline_at:
                return applied
            if got:
                interval = _MIN_INTERVAL
            else:
                time.sleep(min(interval, deadline_at - now))
                interval = min(_POLL_INTERVAL, interval * 2)

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

    def close(self) -> None:
        """Replicas hold no file handles between polls; closing only
        drops the engine reference."""
        with self._lock:
            self._engine = None

    def __repr__(self) -> str:
        head = self._engine.graph.branches() if self._engine else None
        return (f"ReplicaEngine({self.wal_path}, ready={self.ready}, "
                f"heads={head})")
