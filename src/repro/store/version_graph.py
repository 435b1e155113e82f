"""Branchable version graph of axiom-validated database states.

The paper reads a database as an indexed family of extension states
related by update mappings (section 4/6); the store materialises that
reading as a rooted DAG: every node is an immutable
:class:`~repro.core.extension.DatabaseExtension`, every edge one
committed transaction's net delta, and named branches are movable head
pointers.  Because states are immutable values (and successor states are
delta-derived, sharing untouched relations and — once anyone audits —
kernel structure with their parents), readers pin a version and read it
forever without locks; only head movement is serialised by the engine.

Version ids are assigned from one monotone sequence (``v0`` is the
root), so replaying a write-ahead log rebuilds an *identical* graph —
same ids, same parents, same states.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import StoreError


class Version:
    """One committed state: a node of the version graph.

    ``ops`` keeps the committed operations in buffer order (what the
    write-ahead log records and ``replay`` re-applies).
    """

    __slots__ = ("vid", "parent", "branch", "seq", "state", "ops")

    def __init__(self, vid: str, parent: "Version | None", branch: str,
                 seq: int, state, ops: tuple):
        self.vid = vid
        self.parent = parent
        self.branch = branch
        self.seq = seq
        self.state = state
        self.ops = ops

    def __repr__(self) -> str:
        parent = self.parent.vid if self.parent is not None else None
        return f"Version({self.vid}, parent={parent}, branch={self.branch!r})"


def _vid_seq(vid: str) -> int:
    """The sequence number a version id encodes (``"v7"`` -> 7)."""
    if not vid.startswith("v") or not vid[1:].isdigit():
        raise StoreError(f"malformed version id {vid!r}")
    return int(vid[1:])


class VersionGraph:
    """The rooted DAG of committed states plus named branch heads.

    A graph normally starts at ``v0``; a graph rebuilt from a WAL
    checkpoint instead starts at the checkpoint's *floor* — each branch
    head restored as a parentless version (``root_vid``/``seq`` resume
    the id sequence), the compacted pre-checkpoint history simply
    absent.  :meth:`collect` is the same compaction applied in memory:
    the store's GC restricts the graph to the live set and cuts parent
    links at the new floor.
    """

    def __init__(self, root_state, branch: str = "main",
                 root_vid: str = "v0", seq: int | None = None):
        root_seq = _vid_seq(root_vid)
        if seq is None:
            seq = root_seq
        if seq < root_seq:
            raise StoreError(
                f"sequence counter {seq} behind root id {root_vid!r}")
        self._seq = seq
        self.root = Version(root_vid, None, branch, root_seq, root_state,
                            ())
        self.versions: dict[str, Version] = {root_vid: self.root}
        self.heads: dict[str, Version] = {branch: self.root}

    # ------------------------------------------------------------------
    # lookups (lock-free: dict reads on an append-only structure)
    # ------------------------------------------------------------------
    def get(self, vid: str) -> Version:
        version = self.versions.get(vid)
        if version is None:
            raise StoreError(f"unknown version {vid!r}")
        return version

    def head(self, branch: str = "main") -> Version:
        head = self.heads.get(branch)
        if head is None:
            raise StoreError(f"unknown branch {branch!r}")
        return head

    def branches(self) -> dict[str, str]:
        """Branch name -> head version id."""
        return {name: v.vid for name, v in sorted(self.heads.items())}

    @property
    def seq(self) -> int:
        """The monotone sequence counter (the highest id ever issued —
        what a checkpoint must record for replay to resume the ids)."""
        return self._seq

    def __len__(self) -> int:
        return len(self.versions)

    def lineage(self, vid: str) -> list[Version]:
        """The path root .. ``vid`` (inclusive), oldest first."""
        chain = []
        node: Version | None = self.get(vid)
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        return chain

    def log(self, branch: str | None = None) -> Iterator[Version]:
        """Versions in commit order (root first); one branch's lineage
        when ``branch`` is given, the whole graph otherwise."""
        if branch is not None:
            yield from self.lineage(self.head(branch).vid)
            return
        yield from sorted(self.versions.values(), key=lambda v: v.seq)

    # ------------------------------------------------------------------
    # growth (caller serialises: the engine's commit lock)
    # ------------------------------------------------------------------
    def next_vid(self) -> str:
        """The id the next commit will receive — what a write-ahead
        record must carry *before* the in-memory commit happens."""
        return f"v{self._seq + 1}"

    def add_commit(self, parent: Version, state, ops: tuple,
                   branch: str) -> Version:
        """Append one committed state under ``parent`` and advance the
        branch head.  ``parent`` must be the current head of ``branch``
        (the engine nets every commit against the head it installs on)."""
        if self.heads.get(branch) is not parent:
            raise StoreError(
                f"commit parent {parent.vid} is not the head of {branch!r}")
        self._seq += 1
        version = Version(f"v{self._seq}", parent, branch, self._seq,
                          state, ops)
        self.versions[version.vid] = version
        self.heads[branch] = version
        return version

    def create_branch(self, name: str, at: Version) -> Version:
        """A new branch whose head starts at ``at``."""
        if name in self.heads:
            raise StoreError(f"branch {name!r} already exists")
        if self.versions.get(at.vid) is not at:
            raise StoreError(f"version {at.vid!r} is not in this graph")
        self.heads[name] = at
        return at

    def add_floor(self, vid: str, branch: str, state) -> Version:
        """Register a parentless version as the head of ``branch`` —
        the checkpoint-restore path, where the version's pre-floor
        history was compacted away.  Branches whose heads coincided at
        checkpoint time share one floor version."""
        version = self.versions.get(vid)
        if version is None:
            seq = _vid_seq(vid)
            if seq > self._seq:
                raise StoreError(
                    f"floor version {vid!r} is ahead of the sequence "
                    f"counter {self._seq} (drifted checkpoint)")
            version = Version(vid, None, branch, seq, state, ())
            self.versions[vid] = version
        self.heads[branch] = version
        return version

    def collect(self, live: dict[str, Version]) -> list[Version]:
        """Restrict the graph to the ``live`` versions (which must
        include every branch head); parent links crossing the new floor
        are cut, so collected versions become garbage the moment no
        session pins them.  Returns the collected versions.

        The sequence counter never rewinds — ids stay monotone across
        GC, so a WAL written before and after a collection still
        replays with identical ids.
        """
        for name, head in self.heads.items():
            if live.get(head.vid) is not head:
                raise StoreError(
                    f"cannot collect the head {head.vid} of branch "
                    f"{name!r}")
        collected = [v for vid, v in self.versions.items()
                     if vid not in live]
        if not collected:
            return []
        self.versions = {vid: v for vid, v in self.versions.items()
                         if vid in live}
        for v in self.versions.values():
            if v.parent is not None and v.parent.vid not in self.versions:
                v.parent = None
        self.root = min(self.versions.values(), key=lambda v: v.seq)
        return collected
