"""The store engine: axiom-gated commits over a branchable version graph.

:class:`StoreEngine` ties the layers together: a
:class:`~repro.store.version_graph.VersionGraph` of immutable states, a
:class:`~repro.store.wal.WriteAheadLog` for durability, and the
commit-time validation of :mod:`repro.store.txn`.  The store's core
invariant is *clean by induction*: the root is fully audited at
construction (``check_all`` plus every integrity constraint), and a
commit only installs a successor its validation admitted — so every
version ever served satisfies the design axioms.

One commit gate (timed in ``bench_a9_store_throughput``): targeted
O(|delta|) probes (:func:`~repro.store.txn.validate_changes`) against
the head plus its mutable :class:`ProbeIndex`, so the critical section
is O(|delta|).  Every delta is a row patch — a buffered ``replace``
nets into the rows it adds and removes — and every constraint a store
takes is one the :class:`~repro.store.txn.ValidationPlan` can probe
(it refuses any other kind at construction, before the root audit and
before a WAL is opened), so the probes judge every commit.  The full
``check_all`` audit stays the independent judge (:meth:`audit`).

Concurrency contract: reads are lock-free (states are immutable and the
graph is append-only); one engine lock serialises commits.  One rule
governs every commit: a transaction's buffered ops are netted,
validated and installed against the branch head *under that lock*,
whatever the head was when the transaction began — so commits are
serial by construction, and every installed successor was judged
against exactly the state it extends.
"""

from __future__ import annotations

import threading
import warnings
from collections import deque
from collections.abc import Iterable
from pathlib import Path

from repro.core import ConstraintSet, DatabaseExtension, check_all
from repro.core.axioms import AxiomReport
from repro.errors import CommitRejected, StoreError, TornTailWarning
from repro.obs.metrics import MetricsRegistry, WalProbe
from repro.obs.trace import NULL_TRACER, Tracer
from repro.store.txn import (
    Transaction,
    ValidationPlan,
    validate_changes,
    write_footprint,
)
from repro.store.version_graph import Version, VersionGraph
from repro.store.wal import (
    WalCursor,
    WriteAheadLog,
    branch_record,
    checkpoint_record,
    commit_record,
    snapshot_record,
)

# The commit path reads its clock unconditionally; with observability
# detached the clock is this constant zero — six trivial calls per
# commit instead of a branch per phase.
_ZERO_CLOCK = lambda: 0.0  # noqa: E731

# The commit gate's phase order; each lands in its own latency
# histogram (``store.commit.<phase>_seconds``) plus ``total``.  fsync
# is timed inside the WAL (see :class:`repro.obs.metrics.WalProbe`)
# because it happens inside ``wal.append``.
COMMIT_PHASES = ("rebase", "validate", "derive", "wal_append", "total")

# How many slow-commit records :attr:`StoreEngine.slow_commits` keeps.
SLOW_COMMIT_LOG = 32


def _render_groups(writes: frozenset, limit: int = 8):
    """The touched lhs-groups of a commit (:func:`write_footprint`),
    JSON-codable: ``[relation, sorted-attrs, repr(projected-row)]`` per
    group, capped at ``limit``."""
    out = []
    for key in sorted(writes, key=repr)[:limit]:
        try:
            relation, attrs, row = key
            out.append([relation, sorted(str(a) for a in attrs), repr(row)])
        except (TypeError, ValueError):
            out.append([repr(key)])
    return out


def _floor_of(checkpoint: dict) -> tuple[int, frozenset]:
    """A checkpoint record's floor: its sequence counter and the
    version ids of the heads it recorded."""
    return (checkpoint["seq"], frozenset(
        info["version"] for info in checkpoint["branches"].values()))


class ProbeIndex:
    """Mutable projection groups of one branch head.

    For every proper-subset attribute set in a relation's probe family,
    the index keeps ``projected-row -> [rows]`` — the candidate groups
    commit validation and delete cascades look up in O(1) instead of
    scanning the relation.  The engine mutates it in O(|delta|) under
    the commit lock as the head advances; immutable per-state kernel
    caches cannot serve this role because the head is a moving target.
    """

    __slots__ = ("_by_name", "_groups")

    def __init__(self, plan: ValidationPlan, state: DatabaseExtension):
        self._by_name: dict[str, list[tuple[frozenset, dict]]] = {}
        self._groups: dict[tuple[str, frozenset], dict] = {}
        for name, family in plan.probe_family.items():
            full = plan.schema[name].attributes
            for attrs in family:
                if attrs == full:
                    continue
                groups: dict = {}
                for t in state.R(name).tuples:
                    groups.setdefault(t.project(attrs), []).append(t)
                self._groups[(name, attrs)] = groups
                self._by_name.setdefault(name, []).append((attrs, groups))

    def group(self, name: str, attrs: frozenset, key):
        """The head rows of ``name`` projecting onto ``key`` (``attrs``
        a proper subset in the relation's probe family)."""
        return self._groups[(name, attrs)].get(key, ())

    def apply(self, changes) -> None:
        """Advance the index past one committed delta (O(|delta|) per
        probe)."""
        for name, rows in changes.removed.items():
            for attrs, groups in self._by_name.get(name, ()):
                for t in rows:
                    key = t.project(attrs)
                    bucket = groups.get(key)
                    if bucket is None:
                        continue
                    bucket.remove(t)
                    if not bucket:
                        del groups[key]
        for name, rows in changes.added.items():
            for attrs, groups in self._by_name.get(name, ()):
                for t in rows:
                    groups.setdefault(t.project(attrs), []).append(t)


class StoreEngine:
    """A concurrent, durable, multi-version store of one database.

    Parameters
    ----------
    root:
        The initial :class:`DatabaseExtension`; must pass the full audit
        (an inconsistent root cannot anchor the clean-by-induction
        invariant).
    constraints:
        Integrity constraints (a :class:`ConstraintSet` or an iterable)
        every committed state must satisfy; each must be a kind the
        :class:`ValidationPlan` can probe, else :class:`StoreError`.
    wal:
        Optional segment-directory path or :class:`WriteAheadLog`; when
        given, the root snapshot and every commit/branch/checkpoint are
        logged durably.  Each checkpoint heads a fresh segment, and
        :meth:`WriteAheadLog.prune` drops the segments before it.  A
        path opens a log that flushes every record; pass
        ``WriteAheadLog(path, sync=True)`` to fsync each one too.
    checkpoint_every:
        When set, a checkpoint record is written automatically after
        every N commits (WAL-backed engines only) — the knob that keeps
        replay O(recent) instead of O(history) for a long-running store.
    """

    def __init__(self, root: DatabaseExtension,
                 constraints: ConstraintSet | Iterable = (),
                 branch: str = "main",
                 wal: WriteAheadLog | str | Path | None = None,
                 audit_root: bool = True,
                 checkpoint_every: int | None = None,
                 _floor: tuple | None = None):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise StoreError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.schema = root.schema
        if isinstance(constraints, ConstraintSet):
            self._constraint_set = constraints
        else:
            self._constraint_set = ConstraintSet(self.schema, constraints)
        self.constraints = tuple(self._constraint_set.constraints)
        self.plan = ValidationPlan(root, self.constraints)
        if audit_root:
            report = self._audit(root)
            if not report.ok():
                raise StoreError(
                    "root state is inconsistent; a store only serves "
                    "axiom-valid states:\n" + report.render())
        self._lock = threading.Lock()
        self._pins: dict[str, int] = {}
        self.checkpoint_every = checkpoint_every
        self._commits_since_checkpoint = 0
        self._epoch = 0
        # The newest checkpoint this engine wrote or replayed through,
        # as (seq, head vids): where a replay from it starts.  ``branch``
        # logs no anchor below it.  (A graph restored from a checkpoint
        # holds nothing below its own floor.)
        self._checkpoint_floor: tuple[int, frozenset] | None = None
        if _floor is None:
            self.graph = VersionGraph(root, branch)
        else:
            # Checkpoint restore (StoreEngine.replay): the graph starts
            # at the checkpoint's floor — every branch head a parentless
            # version, the id sequence resumed — instead of at v0.
            seq, entries, self._epoch = _floor
            self.graph = VersionGraph(root, branch,
                                      root_vid=entries[0][0], seq=seq)
            for vid, floor_branch, state in entries[1:]:
                self.graph.add_floor(vid, floor_branch, state)
        self._indexes = {name: ProbeIndex(self.plan, head.state)
                         for name, head in self.graph.heads.items()}
        if wal is not None:
            target = wal.path if isinstance(wal, WriteAheadLog) else Path(wal)
            if not WriteAheadLog.is_empty(target):
                raise StoreError(
                    f"WAL {target} already has records; a fresh engine "
                    "would append a second snapshot and corrupt it — "
                    "replay it (StoreEngine.replay) or pick a new path")
            if not isinstance(wal, WriteAheadLog):
                wal = WriteAheadLog(target)
            wal.append(snapshot_record(root, self._constraint_set,
                                       self.graph.root.vid, branch))
        self.wal = wal
        # Observability is detached by default; attach_observability
        # swaps in a real registry/tracer (servers do this on
        # construction).  The zero clock keeps the commit path
        # branch-free either way.
        self.metrics = None
        self.tracer = NULL_TRACER
        self.slow_commit_threshold: float | None = None
        self.slow_commits: deque = deque(maxlen=SLOW_COMMIT_LOG)
        self._obs_clock = _ZERO_CLOCK
        self._obs_hists: tuple | None = None
        self._obs_counters: dict | None = None

    def _audit(self, state: DatabaseExtension) -> AxiomReport:
        return check_all(self.schema, state, constraints=self.constraints,
                         contributors=state.contributors)

    # ------------------------------------------------------------------
    # reads (lock-free: immutable states, append-only graph)
    # ------------------------------------------------------------------
    @property
    def constraint_set(self) -> ConstraintSet:
        """The integrity constraints as a :class:`ConstraintSet` — the
        form :mod:`repro.io` documents want (``constraints`` is the same
        content as a plain tuple)."""
        return self._constraint_set

    def head_version(self, branch: str = "main") -> Version:
        return self.graph.head(branch)

    def version(self, vid: str) -> Version:
        return self.graph.get(vid)

    def state(self, vid: str | None = None,
              branch: str = "main") -> DatabaseExtension:
        """A pinned snapshot: the given version's state, or the branch
        head's."""
        if vid is not None:
            return self.graph.get(vid).state
        return self.graph.head(branch).state

    @property
    def epoch(self) -> int:
        """The promotion epoch this engine serves under (0 until a
        failover ever happens; see :func:`repro.server.failover.promote`
        and :class:`~repro.errors.EpochFenced`)."""
        return self._epoch

    def describe(self) -> dict:
        """A summary of the store for protocol handshakes and status
        probes: branches with their head version ids, the sequence
        counter, the promotion epoch and the relation names served."""
        return {
            "branches": self.graph.branches(),
            "seq": self.graph.seq,
            "epoch": self._epoch,
            "versions": len(self.graph),
            "relations": sorted(e.name for e in self.schema),
        }

    def audit(self, vid: str | None = None,
              branch: str = "main") -> AxiomReport:
        """A full re-audit of one version (should always come back clean
        — the independent check the store's gate is tested against)."""
        return self._audit(self.state(vid, branch))

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def begin(self, branch: str = "main") -> Transaction:
        """A transaction on ``branch`` (an unknown branch fails fast);
        it commits onto whatever head the branch has at commit time."""
        self.graph.head(branch)
        return Transaction(self.schema, branch)

    def branch(self, name: str, at: str | None = None,
               from_branch: str = "main") -> Version:
        """Create branch ``name`` at version ``at`` (default: the head of
        ``from_branch``).

        A logged branch must anchor where a replay from the newest
        checkpoint can find it: at a head that checkpoint recorded, or
        at a version committed after it.  Any other anchor raises
        :class:`StoreError` and logs nothing — its record would make
        the log unreplayable from the checkpoint and stop every replica
        that bootstrapped from it.  (Replay applies logged records
        through an engine with no WAL, so an old log still replays.)
        """
        with self._lock:
            version = self.graph.get(at) if at is not None \
                else self.graph.head(from_branch)
            if name in self.graph.heads:
                # Validate before the WAL append: a record for a branch
                # that then fails to create would poison every replay.
                raise StoreError(f"branch {name!r} already exists")
            if self.wal is not None:
                floor = self._checkpoint_floor
                if floor is not None and version.seq <= floor[0] \
                        and version.vid not in floor[1]:
                    raise StoreError(
                        f"cannot branch {name!r} at {version.vid}: it is "
                        "below the checkpoint floor (neither a "
                        "checkpointed head nor committed after it)")
                self.wal.append(branch_record(name, version.vid))
            self.graph.create_branch(name, version)
            self._indexes[name] = ProbeIndex(self.plan, version.state)
            return version

    def commit(self, txn: Transaction) -> Version:
        """Validate and install one transaction.

        The buffered ops are netted, validated and installed against
        the branch head under the engine lock.  Raises
        :class:`CommitRejected` (with witness findings) when the delta
        violates an axiom or constraint.  A transaction whose net effect
        *against the current head* is empty returns the head unchanged —
        including when concurrent commits already did the same work
        (re-deleting a deleted row, re-inserting a present one).
        """
        if txn.committed:
            raise StoreError("transaction was already committed")
        if txn.schema is not self.schema:
            raise StoreError("transaction belongs to a different store")
        # Phase timing is explicit timestamp capture, not nested spans:
        # the clock is a constant-zero callable while observability is
        # detached, so the critical section carries six trivial calls
        # instead of context-manager machinery (bounded <3% end to end
        # by bench_a14_obs).
        clock = self._obs_clock
        counters = self._obs_counters
        t0 = clock()
        try:
            with self._lock:
                head = self.graph.head(txn.branch)
                index = self._indexes[txn.branch]
                changes = txn.net_changes(head.state, index)
                if not changes:
                    txn.committed = True
                    if counters is not None:
                        counters["noops"].inc()
                    return head
                t1 = clock()
                findings = self._validate(head.state, changes, index)
                if findings:
                    raise CommitRejected(
                        f"commit of {changes!r} violates "
                        f"{len(findings)} check(s)", tuple(findings))
                t2 = clock()
                version, t3, t4 = self._install_locked(
                    txn, head, index, changes, clock)
        except CommitRejected:
            if counters is not None:
                counters["rejected"].inc()
            raise
        if counters is not None:
            counters["commits"].inc()
            self._record_commit(version, changes,
                                t0, t1, t2, t3, t4, clock())
        return version

    def attach_observability(self, metrics: MetricsRegistry | None = None,
                             tracer: Tracer | None = None,
                             slow_commit_threshold: float | None = None
                             ) -> None:
        """Wire a metrics registry and/or tracer into the commit path.

        With a registry attached every commit feeds the per-phase
        latency histograms (``store.commit.<phase>_seconds`` for
        rebase/validate/derive/wal_append/total, fsync via the WAL
        probe) and outcome counters; with a tracer, each commit also
        lands as one trace in the ring with its phases as child spans.
        ``slow_commit_threshold`` (seconds, against ``metrics.clock``)
        gates the structured slow-commit log kept on
        :attr:`slow_commits` (the newest :data:`SLOW_COMMIT_LOG`).
        Passing ``metrics=None`` detaches everything and restores the
        zero-cost path.
        """
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.slow_commit_threshold = slow_commit_threshold
        self.slow_commits = deque(maxlen=SLOW_COMMIT_LOG)
        if metrics is None:
            self._obs_clock = _ZERO_CLOCK
            self._obs_hists = None
            self._obs_counters = None
            if self.wal is not None:
                self.wal.probe = None
            return
        self._obs_clock = metrics.clock
        self._obs_hists = tuple(
            metrics.histogram(f"store.commit.{phase}_seconds")
            for phase in COMMIT_PHASES)
        self._obs_counters = {
            "commits": metrics.counter("store.commits"),
            "noops": metrics.counter("store.commit_noops"),
            "rejected": metrics.counter("store.commit_rejected"),
            "slow": metrics.counter("store.slow_commits"),
        }
        if self.wal is not None:
            self.wal.probe = WalProbe(metrics)

    def _record_commit(self, version: Version, changes,
                       t0: float, t1: float, t2: float, t3: float,
                       t4: float, t5: float) -> None:
        """Bookkeeping for one landed commit, outside the critical
        section: phase histograms, one trace in the ring, and — past
        the threshold — a structured slow-commit record naming the
        lhs-groups the commit touched."""
        rebase, validate = t1 - t0, t2 - t1
        derive, wal_append = t3 - t2, t4 - t3
        total = t5 - t0
        h_rebase, h_validate, h_derive, h_wal, h_total = self._obs_hists
        h_rebase.observe(rebase)
        h_validate.observe(validate)
        h_derive.observe(derive)
        probe = self.wal.probe if self.wal is not None else None
        if self.wal is not None:
            h_wal.observe(wal_append)
        h_total.observe(total)
        fsync = probe.last_fsync if probe is not None else 0.0
        tracer = self.tracer
        if tracer.enabled:
            def phase(name, start, end, **tags):
                return {"name": name, "start": start, "end": end,
                        "duration": end - start, "tags": tags,
                        "spans": []}
            rows = (sum(map(len, changes.added.values()))
                    + sum(map(len, changes.removed.values())))
            tracer.record({
                "name": "store.commit",
                "start": t0, "end": t5, "duration": total,
                "tags": {"version": version.vid, "rows": rows},
                "spans": [
                    phase("commit.rebase", t0, t1),
                    phase("commit.validate", t1, t2),
                    phase("commit.derive", t2, t3),
                    phase("commit.wal_append", t3, t4, fsync=fsync),
                ],
            })
        threshold = self.slow_commit_threshold
        if threshold is not None and total >= threshold:
            self._obs_counters["slow"].inc()
            writes = write_footprint(self.plan, changes)
            self.slow_commits.append({
                "version": version.vid,
                "at": t5,
                "total": total,
                "phases": {"rebase": rebase, "validate": validate,
                           "derive": derive, "wal_append": wal_append,
                           "fsync": fsync},
                "group_count": len(writes),
                "groups": _render_groups(writes),
            })

    def _install_locked(self, txn: Transaction, head: Version, index,
                        changes, clock):
        """Install one commit (engine lock held): derive the successor,
        log it, advance the graph and the head's probe index, and apply
        the checkpoint cadence.  The WAL record lands before the graph
        advances.  Returns ``(version, t3, t4)``: the derive/wal_append
        phase boundaries read off ``clock``."""
        candidate = head.state.apply_changes(
            changes.added, changes.removed, validate=False)
        t3 = clock()
        if self.wal is not None:
            self.wal.append(commit_record(
                self.graph.next_vid(), head.vid, txn.branch, txn.ops))
        t4 = clock()
        version = self.graph.add_commit(head, candidate, tuple(txn.ops),
                                        txn.branch)
        index.apply(changes)
        txn.committed = True
        if self.wal is not None and self.checkpoint_every is not None:
            self._commits_since_checkpoint += 1
            if self._commits_since_checkpoint >= self.checkpoint_every:
                self._checkpoint_locked()
        return version, t3, t4

    def _validate(self, head_state: DatabaseExtension, changes, index):
        """The findings of one delta, judged by the targeted probes
        without deriving the successor (empty = admissible)."""
        return validate_changes(self.plan, head_state, changes, index)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Write a checkpoint record: every branch head as a full
        database document plus the id-sequence counter.

        Replay resumes from the newest checkpoint instead of v0, which
        is what keeps recovery time proportional to *recent* history.
        The log rotates first, so the checkpoint is its segment's first
        record and every older segment becomes prunable
        (:meth:`prune_wal`).  Returns the record written.
        """
        with self._lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> dict:
        if self.wal is None:
            raise StoreError(
                "checkpointing requires a WAL-backed engine (there is "
                "nothing to replay without one)")
        record = checkpoint_record(self.graph, self._constraint_set,
                                   epoch=self._epoch)
        self.wal.rotate()
        self.wal.append(record)
        self._commits_since_checkpoint = 0
        self._checkpoint_floor = _floor_of(record)
        return record

    def prune_wal(self, archive: str | Path | None = None) -> list[Path]:
        """Drop (or archive) WAL segments older than the newest
        checkpointed one — safe at any time: replay never reads them.
        A no-op for never-checkpointed logs."""
        if self.wal is None:
            raise StoreError("this engine has no WAL to prune")
        with self._lock:
            return WriteAheadLog.prune(self.wal.path, archive=archive)

    # ------------------------------------------------------------------
    # pins and garbage collection
    # ------------------------------------------------------------------
    def pin(self, version: Version | str) -> Version:
        """Refcount-pin a version against :meth:`gc`.

        A pinned version (and therefore its state) stays resident
        through collections until every pin is released; pinning is how
        a long-lived reader holds an old snapshot while GC keeps the
        rest of history bounded.  :meth:`Session.pin` wraps this with
        per-session bookkeeping.
        """
        with self._lock:
            v = version if isinstance(version, Version) \
                else self.graph.get(version)
            if self.graph.versions.get(v.vid) is not v:
                raise StoreError(
                    f"version {v.vid} is not resident in this store "
                    "(already collected, or from another engine)")
            self._pins[v.vid] = self._pins.get(v.vid, 0) + 1
            return v

    def unpin(self, version: Version | str) -> None:
        """Release one pin (the version becomes collectable when its
        count reaches zero and it falls outside the keep window)."""
        vid = version.vid if isinstance(version, Version) else version
        with self._lock:
            count = self._pins.get(vid, 0)
            if count <= 0:
                raise StoreError(f"version {vid} is not pinned")
            if count == 1:
                del self._pins[vid]
            else:
                self._pins[vid] = count - 1

    def pinned(self) -> dict[str, int]:
        """Pin counts by version id (a snapshot; for diagnostics)."""
        with self._lock:
            return dict(self._pins)

    def gc(self, keep: int = 1) -> dict:
        """Collect versions unreachable from branch heads and pins.

        The live set is, per branch, the head and its ``keep - 1``
        nearest ancestors, plus every pinned version.  Everything else
        leaves the graph; parent links crossing the new floor are cut
        and each floor state's delta chain is severed
        (:meth:`DatabaseExtension.sever_history`), so the collected
        states genuinely become garbage — resident versions stay
        bounded by ``keep * branches + pins`` under sustained write
        traffic.

        The WAL is untouched (prune it separately after a checkpoint);
        version ids stay monotone, so WAL replay is unaffected.  A
        transaction holds no version, so ``keep`` only has to cover
        readers; pin the snapshots readers hold long-term.  Returns ``{"before", "after", "collected", "pinned",
        "floors"}`` statistics.
        """
        if keep < 1:
            raise StoreError(f"gc keep must be >= 1, got {keep}")
        with self._lock:
            live: dict[str, Version] = {}
            for head in self.graph.heads.values():
                node: Version | None = head
                for _ in range(keep):
                    if node is None:
                        break
                    live[node.vid] = node
                    node = node.parent
            for vid in self._pins:
                live[vid] = self.graph.get(vid)
            before = len(self.graph)
            collected = self.graph.collect(live)
            retained = {id(v.state) for v in self.graph.versions.values()}
            floors = []
            for v in self.graph.versions.values():
                state = v.state
                if v.parent is None:
                    state.sever_history()
                    floors.append(v.vid)
                elif state._kernel_base is not None \
                        and id(state._kernel_base) not in retained:
                    state.drop_kernel_base()
            return {
                "before": before,
                "after": len(self.graph),
                "collected": len(collected),
                "pinned": sorted(self._pins),
                "floors": sorted(floors, key=lambda vid: int(vid[1:])),
            }

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @classmethod
    def replay(cls, wal_path: str | Path,
               verify: bool = False,
               from_checkpoint: bool = True) -> "StoreEngine":
        """Rebuild an engine (and its version graph) from a WAL.

        Recovery is crash-safe: :meth:`WriteAheadLog.repair` first
        truncates a torn *final* line (crash mid-append) off with a
        :class:`TornTailWarning`, then a :class:`WalCursor` — the same
        reader a replica follows the log with — drains the intact
        prefix; corruption before the final record still raises
        :class:`StoreError`.  On read-only media, where the repair
        cannot write, an unterminated final line stays unconsumed and
        replay warns :class:`TornTailWarning` about the bytes it left.

        With ``from_checkpoint=True`` (the default) replay starts at
        the newest checkpoint-headed segment — older segments are never
        even read — restoring each checkpointed branch head as a
        parentless *floor* version and re-applying only the commits
        after it; the pre-checkpoint versions are simply absent from
        the rebuilt graph (the in-memory mirror of segment pruning).
        ``from_checkpoint=False`` replays the full history from v0.
        A ``branch`` record anchored below the checkpoint, which
        :meth:`branch` refuses to write but a log may already hold,
        replays only from the full log.

        With ``verify=True`` every logged commit is re-validated
        through the normal gate and every checkpoint's documents are
        compared against the rebuilt states (a clean log replays
        identically; a tampered one raises); the default trusts the log
        and re-applies the operations directly, which still re-derives
        every state and checks that version ids line up.  The rebuilt
        engine has no WAL; :meth:`adopt_wal` attaches the log it was
        replayed from.
        """
        try:
            dropped = WriteAheadLog.repair(wal_path)
        except OSError:
            dropped = 0  # read-only media: the cursor leaves the tail
        if dropped:
            warnings.warn(
                f"truncated {dropped} torn byte(s) off {wal_path} "
                "(crash mid-append); replaying the intact prefix",
                TornTailWarning, stacklevel=2)
        cursor = WalCursor(wal_path)
        if from_checkpoint:
            cursor.seek_newest_checkpoint_segment()
        records = cursor.drain()
        first = next(records, None)
        if first is None:
            raise StoreError(f"empty WAL: {wal_path}")
        engine = cls.from_wal_record(first, verify=verify)
        for record in records:
            engine.apply_wal_record(record, verify=verify)
        unread = cursor.behind_bytes()
        if unread:
            warnings.warn(
                f"left {unread} unterminated byte(s) at the tail of "
                f"{wal_path} (torn append on read-only media); replayed "
                "the intact prefix", TornTailWarning, stacklevel=2)
        return engine

    @classmethod
    def from_wal_record(cls, record: dict,
                        verify: bool = False) -> "StoreEngine":
        """An engine bootstrapped from one self-contained WAL record —
        a ``snapshot`` (the root state) or a ``checkpoint`` (every
        branch head restored as a floor version).  The entry point
        :meth:`replay` and a tailing :class:`~repro.server.ReplicaEngine`
        share; any other record type raises (it cannot anchor a graph).
        """
        from repro import io

        kind = record.get("type")
        if kind == "snapshot":
            db, constraint_set = io.database_from_dict(record["document"])
            return cls(db, constraint_set, branch=record["branch"],
                       audit_root=verify)
        if kind == "checkpoint":
            return cls._restore_checkpoint(record, verify=verify)
        raise StoreError(
            "WAL must start with a snapshot or checkpoint record, "
            f"got {kind!r}")

    def apply_wal_record(self, record: dict,
                         verify: bool = False) -> Version | None:
        """Apply one logged record to this engine's graph.

        The shared follow hook: :meth:`replay` drains a whole log
        through it and a :class:`~repro.server.ReplicaEngine` feeds it
        records as its WAL cursor yields them.  ``commit`` records
        return the installed :class:`Version` (re-gated through the
        normal validation when ``verify`` is set, trusted otherwise) and
        raise on drift — a ``parent`` that is not the branch head, or a
        version id the graph does not produce; ``branch`` records
        create the branch;
        ``checkpoint`` records are consistency-checked against the graph
        built so far and return ``None``.
        """
        kind = record.get("type")
        if kind == "branch":
            try:
                self.branch(record["name"], at=record["at"])
            except StoreError as exc:
                if record["at"] not in self.graph.versions and \
                        self.graph.root.vid != "v0":
                    raise StoreError(
                        f"branch {record['name']!r} is anchored at "
                        f"{record['at']}, below the checkpoint "
                        "floor; replay the full log "
                        "(from_checkpoint=False)") from exc
                raise
            return None
        if kind == "checkpoint":
            self._verify_checkpoint(record, deep=verify)
            return None
        if kind == "epoch":
            self._apply_epoch_record(record)
            return None
        if kind != "commit":
            raise StoreError(f"unknown WAL record type {kind!r}")
        head = self.graph.head(record["branch"])
        if record["parent"] != head.vid:
            raise StoreError(
                f"replay drift: WAL says {record['version']} commits onto "
                f"{record['parent']}, the {record['branch']!r} head is "
                f"{head.vid}")
        txn = Transaction.from_records(self.schema, record["branch"],
                                       record["ops"])
        if verify:
            version = self.commit(txn)
            if version is head:
                # Ops that net to nothing (a replace that kept every
                # row) were logged as their own commit by stores that
                # kept replaces whole; install it as trusted replay
                # does, so the version ids line up.
                version = self._install_unverified(txn)
        else:
            version = self._install_unverified(txn)
        if version.vid != record["version"]:
            raise StoreError(
                f"replay drift: WAL says {record['version']}, "
                f"graph produced {version.vid}")
        return version

    def _apply_epoch_record(self, record: dict) -> None:
        """Follow a logged promotion: cross-check the takeover point
        (the promoted primary stamped the seq/heads it caught up to)
        and advance this engine's epoch."""
        epoch = int(record.get("epoch", 0))
        if epoch <= self._epoch:
            raise StoreError(
                f"epoch record does not advance: log says {epoch}, "
                f"engine is already at {self._epoch}")
        if "seq" in record and record["seq"] != self.graph.seq:
            raise StoreError(
                f"epoch drift: promotion stamped seq {record['seq']}, "
                f"replayed graph is at {self.graph.seq}")
        if "heads" in record and record["heads"] != self.graph.branches():
            raise StoreError(
                f"epoch drift: promotion stamped heads "
                f"{record['heads']}, replayed graph has "
                f"{self.graph.branches()}")
        self._epoch = epoch

    def adopt_wal(self, wal: WriteAheadLog) -> WriteAheadLog:
        """Attach an already-written log to an engine that was rebuilt
        *from* it — the promotion path: a replica's inner engine has no
        WAL of its own, and the promoted primary must append to the log
        it caught up on, not start a fresh one (which would re-snapshot
        and orphan the history).  The caller vouches that ``wal``'s
        records are exactly this engine's graph."""
        if self.wal is not None:
            raise StoreError(
                "engine already has a WAL; adopt_wal is only for "
                "engines rebuilt from the log they are adopting")
        with self._lock:
            self.wal = wal
            self._epoch = max(self._epoch, wal.epoch)
        return wal

    @classmethod
    def _restore_checkpoint(cls, record: dict, verify: bool) -> "StoreEngine":
        """An engine whose graph starts at the checkpoint's floor: each
        branch head decoded from its document, the id sequence resumed
        from the recorded counter."""
        from repro import io

        states: dict[str, DatabaseExtension] = {}
        constraint_set = None
        entries: list[tuple] = []
        for name in sorted(record["branches"]):
            info = record["branches"][name]
            vid = info["version"]
            if vid not in states:
                states[vid], constraint_set = \
                    io.database_from_dict(info["document"])
            entries.append((vid, name, states[vid]))
        entries.sort(key=lambda e: (int(e[0][1:]), e[1]))
        root_vid, root_branch, root_state = entries[0]
        engine = cls(root_state, constraint_set, branch=root_branch,
                     audit_root=verify, _floor=(record["seq"], entries,
                                                int(record.get("epoch", 0))))
        if verify:
            for vid, state in states.items():
                if state is root_state:
                    continue  # audited by the constructor
                report = engine._audit(state)
                if not report.ok():
                    raise StoreError(
                        f"checkpointed state {vid} is inconsistent:\n"
                        + report.render())
        return engine

    def _verify_checkpoint(self, record: dict, deep: bool = False) -> None:
        """A mid-log checkpoint must agree with the graph replay has
        rebuilt so far: same sequence counter, same branch heads, and —
        under ``deep`` (verified replay) — equal states."""
        from repro import io

        if record.get("seq") != self.graph.seq:
            raise StoreError(
                f"checkpoint drift: WAL says seq {record.get('seq')}, "
                f"replayed graph is at {self.graph.seq}")
        if "epoch" in record and record["epoch"] != self._epoch:
            raise StoreError(
                f"checkpoint drift: WAL checkpoint was taken under "
                f"epoch {record['epoch']}, replayed engine is at "
                f"{self._epoch}")
        for name, info in sorted(record.get("branches", {}).items()):
            head = self.graph.head(name)
            if head.vid != info["version"]:
                raise StoreError(
                    f"checkpoint drift: branch {name!r} head is "
                    f"{head.vid}, WAL checkpoint says {info['version']}")
            if deep:
                state, _ = io.database_from_dict(info["document"])
                if state != head.state:
                    raise StoreError(
                        f"checkpoint drift: branch {name!r} state at "
                        f"{head.vid} does not match its checkpoint "
                        "document")
        self._checkpoint_floor = _floor_of(record)

    def _install_unverified(self, txn: Transaction) -> Version:
        """Re-apply a logged commit without re-judging it (replay trusts
        its own log); states are still re-derived, so the rebuilt graph
        is structurally identical."""
        with self._lock:
            head = self.graph.head(txn.branch)
            index = self._indexes[txn.branch]
            changes = txn.net_changes(head.state, index)
            version, _, _ = self._install_locked(
                txn, head, index, changes, _ZERO_CLOCK)
            return version

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    def __repr__(self) -> str:
        return (f"StoreEngine({len(self.graph)} versions, "
                f"branches={self.graph.branches()})")
