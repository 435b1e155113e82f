"""Durable write-ahead log: JSON-lines records of the version graph.

One record per line, in the :mod:`repro.io` value convention (attribute
names to JSON scalars — the Attribute Axiom's atomicity is what makes
the rows losslessly JSON-codable).  Four record types:

* ``snapshot`` — the root version as a self-contained database document
  (schema, relations, constraints), written once when a WAL-backed
  engine starts;
* ``commit`` — one committed transaction: version id, parent id,
  branch, and the buffered operations in order;
* ``branch`` — a branch creation point;
* ``checkpoint`` — every branch head as a full database document plus
  the graph's sequence counter, so replay can start *here* instead of
  at the root snapshot (:meth:`StoreEngine.replay` picks the newest
  one; see :func:`checkpoint_record`);
* ``epoch`` — a promotion marker: a replica that took over as primary
  stamps the next epoch number (plus the sequence counter and branch
  heads it took over at) into a fresh segment, after which appends by
  any handle still holding the old epoch are *fenced* — they raise
  :class:`~repro.errors.EpochFenced` instead of silently diverging
  (see :meth:`WriteAheadLog.stamp_epoch`).

Replaying the records in order through :meth:`StoreEngine.replay`
reconstructs an identical version graph: version ids come from one
monotone sequence and every state is re-derived by re-applying the
logged operations, so the replayed states are equal — relation for
relation — to the originals.

A log is a **segment directory** holding ``wal.000001.jsonl``,
``wal.000002.jsonl``, … in append order.  It rotates on an optional
record-count bound, on every checkpoint (so a checkpoint always heads
its segment) and on every epoch stamp (so does a promotion); segments
before the newest checkpointed one carry no information the checkpoint
does not, and :meth:`WriteAheadLog.prune` archives or drops them.  A
regular file at a log path is refused (the migration recipe is in
:meth:`WriteAheadLog.segment_paths`).

Crash-safety contract: a crash mid-append leaves a torn *final* line.
On the writer side :meth:`WriteAheadLog.repair` truncates it off the
file, because the prefix is a complete, valid history.  Every reader —
replay, a replica, ``repro log`` — parses the log through one
:class:`WalCursor`, whose rule is: an unterminated final line is an
append still in progress (left unconsumed), while a newline-terminated
line that does not parse, or a dangling partial line in a frozen
segment, is tampering or media failure and raises
:class:`~repro.errors.StoreError`.  New log files (and fresh segments)
fsync their parent directory so the file itself — not just its
contents — survives power loss.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from itertools import islice
from pathlib import Path
from typing import Any, Iterator

from repro import io
from repro.errors import EpochFenced, StoreError

SEGMENT_PATTERN = "wal.%06d.jsonl"
_SEGMENT_RE = re.compile(r"^wal\.(\d{6})\.jsonl$")


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-created (or renamed/unlinked) entry
    survives power loss.  A no-op on platforms where directories cannot
    be opened or synced (the file-content fsync still happened)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _parse_line(line: bytes | str):
    """``(record, ok)`` for one stripped WAL line: ``ok`` is False when
    the line is not a complete record object.  A torn line can never
    masquerade as one — a proper prefix of a one-line JSON object has
    unbalanced braces or an unterminated literal, so it fails to parse."""
    try:
        record = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None, False
    if not isinstance(record, dict) or "type" not in record:
        return record, False
    return record, True


class WriteAheadLog:
    """An append-only JSON-lines log in a segment directory.

    Every :meth:`append` flushes to the OS; with ``sync=True`` it also
    ``fsync``\\ s, trading commit latency for power-loss durability.
    Appends are serialised by the engine's commit lock, which is what
    makes the log a total order of the graph's growth.

    ``path`` is the directory (created by the first write, so a log
    nothing was written to leaves nothing on disk); records append to
    its highest-numbered ``wal.NNNNNN.jsonl`` segment, and a new segment
    starts whenever the current one holds ``segment_records`` records —
    or whenever the engine writes a checkpoint (:meth:`rotate`) or a
    promotion stamps an epoch (:meth:`stamp_epoch`).
    """

    def __init__(self, path: str | Path, sync: bool = False,
                 segment_records: int | None = None):
        path = Path(path)
        if segment_records is not None and segment_records < 1:
            raise StoreError(
                f"segment_records must be >= 1, got {segment_records}")
        self.sync = sync
        self.segment_records = segment_records
        self.path = path
        # Duck-typed observability hook (repro.obs.metrics.WalProbe):
        # when attached, append counts records/bytes into the registry
        # and times the fsync so the commit pipeline can attribute it
        # as its own phase.
        self.probe = None
        segments = self.segment_paths(path)
        self._segment_index = (
            int(_SEGMENT_RE.match(segments[-1].name).group(1))
            if segments else 1)
        # The current segment's handle and record count, set by _open.
        self._fh = None
        self._count = 0
        self._closed = False
        self.epoch = self.current_epoch(path)

    def _open(self):
        """The current segment's handle, opened (and the directory
        created) by the first write."""
        if self._fh is None:
            self.path.mkdir(parents=True, exist_ok=True)
            self._open_segment()
        return self._fh

    def _open_segment(self) -> None:
        """Open the current segment for appending, priming the rotation
        counter from whatever it already holds; a newly created file
        fsyncs its parent directory (creation durability)."""
        file_path = self.current_segment
        created = not file_path.exists()
        self._fh = open(file_path, "a", encoding="utf-8")
        if created:
            _fsync_dir(file_path.parent)
            self._count = 0
        else:
            with open(file_path, "rb") as fh:
                self._count = sum(1 for raw in fh if raw.strip())

    @property
    def current_segment(self) -> Path:
        """The segment appends currently land in."""
        return self.path / (SEGMENT_PATTERN % self._segment_index)

    def append(self, record: dict) -> None:
        if self._closed:
            raise StoreError(
                f"WAL {self.path} is closed; cannot append "
                f"{record.get('type', 'a')!r} record")
        self._check_fence()
        try:
            line = json.dumps(record, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise StoreError(f"WAL record is not JSON-codable: {exc}") from exc
        data = line + "\n"
        self._open()
        if (self.segment_records is not None
                and self._count >= self.segment_records):
            self.rotate()
        try:
            self._fh.write(data)
            self._fh.flush()
        except ValueError as exc:  # racing close(): a closed handle
            raise StoreError(
                f"WAL {self.path} is closed; cannot append: {exc}") from exc
        probe = self.probe
        if self.sync:
            if probe is not None:
                before = probe.clock()
                os.fsync(self._fh.fileno())
                fsync_s = probe.clock() - before
            else:
                os.fsync(self._fh.fileno())
                fsync_s = 0.0
        else:
            fsync_s = 0.0
        if probe is not None:
            probe.observe_append(len(data), fsync_s)
        self._count += 1

    def rotate(self) -> Path:
        """Start the next segment (the checkpoint, epoch and
        record-bound path).

        The outgoing segment is flushed (and, under ``sync``, fsynced)
        before the new file is created, and the directory is fsynced so
        the new segment survives power loss.  A no-op on a still-empty
        current segment.
        """
        if self._closed:
            raise StoreError(f"WAL {self.path} is closed; cannot rotate")
        self._open()
        if self._count == 0:
            return self.current_segment
        self._check_fence()
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())
        self._fh.close()
        self._segment_index += 1
        self._open_segment()
        return self.current_segment

    # ------------------------------------------------------------------
    # epochs and fencing (the failover write-exclusion mechanism)
    # ------------------------------------------------------------------
    def _check_fence(self) -> None:
        """Refuse to write under a stale epoch.

        Promotion rotates the log to a fresh segment, so a demoted
        handle detects the takeover with one ``stat``: a segment it did
        not create appearing after its own.  The check runs on every
        append and rotation — appends are per-commit, so the extra stat
        rides a path that already pays for validation and an
        fsync-able write.
        """
        nxt = self.path / (SEGMENT_PATTERN % (self._segment_index + 1))
        if not nxt.exists():
            return
        current = max(self.current_epoch(self.path), self.epoch + 1)
        raise EpochFenced(
            f"WAL {self.path} was taken over (epoch {current} stamped "
            f"past segment {self.current_segment.name}); this handle "
            f"holds epoch {self.epoch} and may no longer append",
            held=self.epoch, current=current)

    def stamp_epoch(self, seq: int | None = None,
                    heads: dict[str, str] | None = None) -> dict:
        """Open the next epoch: rotate to a fresh segment and append an
        ``epoch`` record (fsynced — a promotion that is not durable is
        no promotion), fencing every handle still on the old epoch.

        The new epoch is the successor of the newest epoch visible in
        the log; ``seq``/``heads`` record where the graph stood at
        takeover, so replay can cross-check.  Returns the record.
        """
        self._check_fence()  # two racing promotions: first stamp wins
        epoch = self.current_epoch(self.path) + 1
        record = epoch_record(epoch, seq=seq, heads=heads)
        self.rotate()
        line = json.dumps(record, sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._count += 1
        self.epoch = epoch
        return record

    @staticmethod
    def current_epoch(path: str | Path) -> int:
        """The newest epoch stamped into the log (0 before any
        promotion), read from segment heads: epoch records always head
        their segment, and checkpoints carry the epoch they were taken
        under."""
        for segment in reversed(WriteAheadLog.segment_paths(path)):
            head = WriteAheadLog.first_record(segment)
            if head is None:
                continue
            if head.get("type") == "epoch":
                return int(head.get("epoch", 0))
            if head.get("type") == "checkpoint" and "epoch" in head:
                return int(head["epoch"])
        return 0

    def close(self) -> None:
        self._closed = True
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reading (static: replay and tooling work on paths, not handles)
    # ------------------------------------------------------------------
    @staticmethod
    def segment_paths(path: str | Path) -> list[Path]:
        """The log's numbered segments in append order (none while the
        directory does not exist yet).

        A regular file at ``path`` is refused with :class:`StoreError`:
        a one-file log from an older release migrates by moving it to
        ``DIR/wal.000001.jsonl`` and running ``repro checkpoint DIR``,
        which heads a fresh segment with every branch and the current
        epoch.
        """
        path = Path(path)
        try:
            return sorted(p for p in path.iterdir()
                          if _SEGMENT_RE.match(p.name))
        except FileNotFoundError:
            return []
        except NotADirectoryError:
            raise StoreError(
                f"WAL {path} is a regular file; a log is a segment "
                f"directory.  Migrate it: mkdir DIR, move {path} to "
                "DIR/wal.000001.jsonl, then run "
                "`python -m repro.cli checkpoint DIR`") from None

    @staticmethod
    def is_empty(path: str | Path) -> bool:
        """True when the log holds no records yet (no directory, or a
        directory of empty segments)."""
        return all(p.stat().st_size == 0
                   for p in WriteAheadLog.segment_paths(path))

    @staticmethod
    def first_record(path: str | Path) -> dict | None:
        """The first record of one log *file*, or ``None`` when the file
        is missing/empty/unreadable — the cheap peek replay uses to find
        the newest checkpoint-headed segment without parsing old ones."""
        try:
            with open(path, "rb") as fh:
                for raw in fh:
                    line = raw.strip()
                    if not line:
                        continue
                    record, ok = _parse_line(line)
                    return record if ok else None
        except OSError:
            return None
        return None

    @staticmethod
    def checkpoint_floor(segments: list[Path]) -> int:
        """The index of the newest segment past the first whose first
        record is a ``checkpoint`` — where replay, a bootstrapping
        replica and pruning start — or 0 when there is none.  Takes the
        caller's :meth:`segment_paths` listing, so a concurrent prune
        cannot shift the index under it."""
        for i in range(len(segments) - 1, 0, -1):
            head = WriteAheadLog.first_record(segments[i])
            if head is not None and head.get("type") == "checkpoint":
                return i
        return 0

    @staticmethod
    def repair(path: str | Path) -> int:
        """Truncate a torn final line off the log's last segment.

        Returns the bytes dropped (0 when the tail is clean).  Only the
        *final* line may be malformed — that is what a crash mid-append
        produces; a malformed line with complete records after it raises
        :class:`StoreError` instead of truncating away good history.
        The truncation is fsynced, so a repaired log stays repaired.

        A final line that parses but lost its newline (the crash hit
        between the record and the separator) is *complete*: repair
        writes the missing newline so tail readers — which rightly
        treat an unterminated line as in-progress — can consume the
        record, keeping recovery, replication, and promotion agreed on
        where the durable prefix ends.
        """
        segments = WriteAheadLog.segment_paths(path)
        if not segments:
            return 0
        last = segments[-1]
        data = last.read_bytes()
        good_end = 0
        bad_line: int | None = None
        pos = 0
        n = 0
        while pos < len(data):
            nl = data.find(b"\n", pos)
            end = len(data) if nl == -1 else nl + 1
            chunk = data[pos:end].strip()
            n += 1
            if chunk:
                _, ok = _parse_line(chunk)
                if ok:
                    if bad_line is not None:
                        raise StoreError(
                            f"corrupt WAL line {bad_line} in {last}: "
                            "followed by intact records (not a torn tail)")
                    good_end = end
                elif bad_line is None:
                    bad_line = n
                else:
                    raise StoreError(
                        f"corrupt WAL lines {bad_line} and {n} in {last}: "
                        "not a torn tail")
            pos = end
        if bad_line is None:
            if data and not data.endswith(b"\n"):
                # The final record is complete but unterminated: finish
                # it so cursors (which never consume a line that might
                # still be mid-append) see what replay sees.
                with open(last, "ab") as fh:
                    fh.write(b"\n")
                    fh.flush()
                    os.fsync(fh.fileno())
            return 0
        dropped = len(data) - good_end
        with open(last, "r+b") as fh:
            fh.truncate(good_end)
            fh.flush()
            os.fsync(fh.fileno())
        return dropped

    @staticmethod
    def prune(path: str | Path, archive: str | Path | None = None,
              ) -> list[Path]:
        """Drop (or move into ``archive``) every segment before the
        newest checkpoint-headed one.

        Those segments describe only history the checkpoint already
        carries in full, so replay never reads them; pruning is how a
        long-running store's disk stays bounded.  A log without a
        checkpoint past its first segment is left untouched (its whole
        history is still load-bearing).  Returns the pruned
        segment paths (their *original* locations).
        """
        path = Path(path)
        segments = WriteAheadLog.segment_paths(path)
        floor = WriteAheadLog.checkpoint_floor(segments)
        if floor == 0:
            return []
        victims = segments[:floor]
        if archive is not None:
            archive = Path(archive)
            archive.mkdir(parents=True, exist_ok=True)
        for p in victims:
            if archive is not None:
                shutil.move(str(p), str(archive / p.name))
            else:
                p.unlink()
        _fsync_dir(path)
        if archive is not None:
            _fsync_dir(archive)
        return victims


class WalCursor:
    """A stateful tail reader: every complete record exactly once.

    A cursor remembers a ``(segment, byte offset)`` position in a live
    WAL and each :meth:`poll` returns the complete records appended
    since, across segment rotations.  It is the log's only reader —
    replay, replicas and ``repro log`` all parse records here — and its
    rule is the read side of the crash contract:

    * an *incomplete* final line (no trailing newline — the only shape a
      torn in-progress append can have, because the newline is the last
      byte written) is never consumed; the cursor simply waits for the
      primary to finish the append or to truncate it on crash recovery
      (:meth:`WriteAheadLog.repair` — the cursor notices the file
      shrinking back to the intact prefix and clamps);
    * a newline-*terminated* line that fails to parse, or a dangling
      partial line in a rotated-away (frozen) segment, is corruption and
      raises :class:`StoreError` — rotation only happens after the
      previous append completed, so a frozen segment can never end
      mid-record legitimately;
    * a segment pruned out from under the cursor raises
      :class:`StoreError`; the caller re-bootstraps from the newest
      checkpoint (:meth:`repro.server.ReplicaEngine.resync`).

    :meth:`position` reports where the cursor stands as a plain dict
    (the replica lag report includes it).
    """

    __slots__ = ("path", "_segment", "_offset")

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._segment: Path | None = None
        self._offset = 0

    def position(self) -> dict:
        """The read position: ``{"segment", "offset"}``."""
        return {
            "segment": self._segment.name if self._segment is not None
            else None,
            "offset": self._offset,
        }

    def behind_bytes(self) -> int:
        """Bytes of log the cursor has not consumed yet — the cheap
        staleness measure a replica's lag report leads with (0 means the
        replica has read everything durably written so far)."""
        segments = WriteAheadLog.segment_paths(self.path)
        if not segments:
            return 0
        if self._segment is None:
            return sum(p.stat().st_size for p in segments)
        behind = 0
        seen = False
        for p in segments:
            if p == self._segment:
                seen = True
                behind += max(0, p.stat().st_size - self._offset)
            elif seen:
                behind += p.stat().st_size
        if not seen:  # cursor segment pruned; poll() will raise
            return sum(p.stat().st_size for p in segments)
        return behind

    def seek_newest_checkpoint_segment(self) -> None:
        """Position the cursor at the newest checkpoint-headed segment
        (a no-op when none exists) — the bootstrap that lets a fresh
        replica skip pruned-or-prunable history entirely, mirroring
        ``replay(from_checkpoint=True)``."""
        segments = WriteAheadLog.segment_paths(self.path)
        floor = WriteAheadLog.checkpoint_floor(segments)
        if floor:
            self._segment = segments[floor]
            self._offset = 0

    def poll(self, max_records: int | None = None) -> list[dict]:
        """The complete records appended since the last poll (at most
        ``max_records`` of them).

        Returns an empty list when nothing new is durably visible —
        including while the final line is still being appended (or was
        torn by a crash the primary has not repaired yet).  Never blocks.
        """
        return list(islice(self.drain(), max_records))

    def drain(self) -> Iterator[dict]:
        """:meth:`poll`'s lazy form: yield each complete record as it is
        parsed, advancing the position past it first — so a consumer
        that stops early resumes at the next record, and replay streams
        a whole log through here without holding every parsed record at
        once.

        A segment is read from the cursor's offset on, never from its
        start, so a caught-up poll costs one listing, one ``fstat`` and
        an empty read however large the log has grown.
        """
        while True:
            segments = WriteAheadLog.segment_paths(self.path)
            if not segments:
                return
            if self._segment is None:
                self._segment = segments[0]
                self._offset = 0
            try:
                index = segments.index(self._segment)
                with open(self._segment, "rb") as fh:
                    size = os.fstat(fh.fileno()).st_size
                    if size < self._offset:
                        # The primary repaired a torn tail.  Only bytes
                        # past the last complete record are ever
                        # truncated, and the cursor never consumed
                        # those, so clamping is safe.
                        self._offset = size
                    fh.seek(self._offset)
                    data = fh.read()
            except (ValueError, FileNotFoundError):
                raise StoreError(
                    f"WAL segment {self._segment.name} was pruned out "
                    "from under the cursor; resynchronise from the "
                    "newest checkpoint") from None
            final = index == len(segments) - 1
            base = self._offset
            pos = 0
            while (nl := data.find(b"\n", pos)) != -1:
                line = data[pos:nl].strip()
                pos = nl + 1
                self._offset = base + pos
                if not line:
                    continue
                record, ok = _parse_line(line)
                if not ok:
                    raise StoreError(
                        f"corrupt WAL record at byte {self._offset} of "
                        f"{self._segment.name}: a newline-terminated "
                        "line failed to parse")
                yield record
            if pos < len(data):
                # A trailing line without its newline yet.
                if final:
                    return  # the append (or its repair) is pending
                raise StoreError(
                    f"WAL segment {self._segment.name} was rotated away "
                    "with a dangling partial record — torn inside the "
                    "log, not at its tail")
            if final:
                return
            # Frozen segment fully consumed: advance to the next one.
            self._segment = segments[index + 1]
            self._offset = 0


def snapshot_record(db, constraints, version_id: str,
                    branch: str) -> dict[str, Any]:
    """The root state as a ``snapshot`` record (a full database
    document, so a WAL is self-contained and replayable from nothing)."""
    return {"type": "snapshot", "version": version_id, "branch": branch,
            "document": io.database_to_dict(db, constraints)}


def commit_record(version_id: str, parent_id: str, branch: str,
                  ops) -> dict[str, Any]:
    """One committed transaction as a ``commit`` record."""
    return {"type": "commit", "version": version_id, "parent": parent_id,
            "branch": branch, "ops": [op.to_record() for op in ops]}


def branch_record(name: str, at_version_id: str) -> dict[str, Any]:
    """A branch creation as a ``branch`` record."""
    return {"type": "branch", "name": name, "at": at_version_id}


def checkpoint_record(graph, constraints, epoch: int = 0) -> dict[str, Any]:
    """Every branch head as a full database document, plus the graph's
    sequence counter — everything replay needs to resume *here*: the
    heads become parentless floor versions, the counter keeps later
    version ids identical to a full replay's.  Branches sharing a head
    share one document object (serialised once per head in the JSON
    line only when heads coincide).  ``epoch`` records which promotion
    epoch the checkpoint was taken under, so a replay resuming here
    still knows the current fence."""
    documents: dict[str, dict] = {}
    branches: dict[str, dict] = {}
    for name, head in sorted(graph.heads.items()):
        if head.vid not in documents:
            documents[head.vid] = io.database_to_dict(head.state, constraints)
        branches[name] = {"version": head.vid,
                          "document": documents[head.vid]}
    return {"type": "checkpoint", "seq": graph.seq, "branches": branches,
            "epoch": epoch}


def epoch_record(epoch: int, seq: int | None = None,
                 heads: dict[str, str] | None = None) -> dict[str, Any]:
    """A promotion as an ``epoch`` record: the new epoch number plus —
    when known — the sequence counter and branch heads the promoted
    primary took over at, which replay cross-checks exactly like a
    checkpoint's."""
    record: dict[str, Any] = {"type": "epoch", "epoch": epoch}
    if seq is not None:
        record["seq"] = seq
    if heads is not None:
        record["heads"] = dict(sorted(heads.items()))
    return record
