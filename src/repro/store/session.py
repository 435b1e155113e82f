"""Concurrent sessions: the store's client-facing serving surface.

A :class:`Session` is one client's handle onto a branch.  Reads never
lock: a snapshot pins a :class:`~repro.store.version_graph.Version`
whose state is an immutable value, so a reader holding ``v7`` keeps
seeing ``v7`` however far the head advances — multi-version concurrency
the cheap way, because the data structure is already persistent.

Writes go through the engine's one commit rule: a transaction's ops
are netted, validated and installed against the branch head under the
engine lock, so a commit never has to be retried — it either lands on
the current head or is rejected on its merits.
"""

from __future__ import annotations

from repro.errors import StoreError
from repro.relational import Relation
from repro.store.engine import StoreEngine
from repro.store.txn import Transaction
from repro.store.version_graph import Version


class Session:
    """One client's view of one branch of the store.

    A session can *pin* snapshots: :meth:`pin` refcounts a version with
    the engine so :meth:`StoreEngine.gc` keeps it resident however far
    history is collected; :meth:`release` (or :meth:`close`, or leaving
    the session's ``with`` block) gives the pins back.  A plain
    :meth:`snapshot` is immutable under the caller but only
    GC-protected while inside the engine's keep window.
    """

    __slots__ = ("engine", "branch", "_pins", "_closed")

    def __init__(self, engine: StoreEngine, branch: str = "main"):
        engine.head_version(branch)  # fail fast on unknown branches
        self.engine = engine
        self.branch = branch
        self._pins: list[Version] = []
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # reads (lock-free)
    # ------------------------------------------------------------------
    def snapshot(self) -> Version:
        """Pin the branch's current head; the returned version (and its
        state) never changes under the caller."""
        return self.engine.head_version(self.branch)

    # ------------------------------------------------------------------
    # pins (GC protection)
    # ------------------------------------------------------------------
    def pin(self, at: Version | str | None = None) -> Version:
        """Refcount-pin a snapshot (default: the current head) against
        the engine's GC; the session remembers the pin and releases it
        on :meth:`release`/:meth:`close`."""
        version = self.engine.pin(
            self.snapshot() if at is None else at)
        self._pins.append(version)
        return version

    def release(self, version: Version | str | None = None) -> None:
        """Release one pinned snapshot, or every pin this session holds
        (the default)."""
        if version is None:
            while self._pins:
                self.engine.unpin(self._pins.pop())
            return
        vid = version.vid if isinstance(version, Version) else version
        for i, pinned in enumerate(self._pins):
            if pinned.vid == vid:
                del self._pins[i]
                self.engine.unpin(vid)
                return
        raise StoreError(f"this session holds no pin on {vid!r}")

    def pins(self) -> tuple[Version, ...]:
        """The versions this session currently pins."""
        return tuple(self._pins)

    def close(self) -> None:
        """Close the session: release every pin and mark it closed, so
        :meth:`begin` and :meth:`commit` refuse further work.

        Idempotent.  Pin release is best-effort when the engine itself
        was torn down (its version table may already be collected), but
        the pin list is always cleared.
        """
        self._closed = True
        try:
            self.release()
        except StoreError:
            self._pins.clear()
            raise

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def read(self, relation: str, at: Version | str | None = None) -> Relation:
        """The instance set ``R_relation`` at a pinned version (default:
        the current head)."""
        if at is None:
            state = self.engine.head_version(self.branch).state
        elif isinstance(at, Version):
            state = at.state
        else:
            state = self.engine.version(at).state
        return state.R(relation)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        """A transaction on this session's branch."""
        if self._closed:
            raise StoreError("session is closed")
        return self.engine.begin(self.branch)

    def commit(self, txn: Transaction) -> Version:
        """Commit ``txn`` onto the branch head (see
        :meth:`StoreEngine.commit`)."""
        if self._closed:
            raise StoreError("session is closed")
        return self.engine.commit(txn)

    def run(self, records) -> Version:
        """Buffer op records (the WAL and wire form, parsed by
        :meth:`Transaction.apply_records`) and commit them."""
        return self.commit(self.begin().apply_records(records))
