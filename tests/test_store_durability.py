"""Durability, recovery, checkpointing, and GC tests for the store.

The crash-safety contract under test: a torn *final* WAL line (the
signature of a crash mid-append) is tolerated — a ``WalCursor`` leaves
it unread, ``repair`` truncates it off, ``replay`` rebuilds the prefix
— while corruption anywhere before the final record raises.  The slow lane injects a crash at *every* byte offset of a
log's last record and checks the replayed graph is exactly the full
graph or exactly the prefix, nothing else.

Checkpoint/GC contract: replay from the newest checkpoint rebuilds
branch heads state-for-state equal to a full replay (differential
tests), pruned segments are never load-bearing, and ``gc`` keeps
resident versions bounded by the keep window plus pins — with the
collected states becoming actual garbage (weakref asserts).
"""

import errno
import gc as pygc
import os
import threading
import warnings
import weakref

import pytest

from repro.core.employee import employee_constraints, employee_extension
from repro.errors import StoreError, TornTailWarning
from repro.server import ReplicaEngine, StoreClient, StoreServer
from repro.store import (
    Session,
    StoreEngine,
    WalCursor,
    WriteAheadLog,
)
from repro.store.wal import branch_record
from repro.workloads import (
    disjoint_commit_specs,
    manager_stream,
    serving_state,
)
from generators import last_segment, wal_records


def _mk_engine(n=60, **kwargs):
    schema, db, constraints = serving_state(n)
    return StoreEngine(db, constraints, **kwargs)


def _commit_rows(engine, rows, branch="main"):
    """One single-insert commit per row; returns the new versions."""
    session = Session(engine, branch)
    return [session.commit(session.begin().insert("manager", row))
            for row in rows]


def _head_states(engine):
    return {name: engine.state(branch=name)
            for name in engine.graph.heads}


@pytest.fixture
def logged(tmp_path):
    """A closed one-segment WAL holding a snapshot + 5 commits."""
    wal = tmp_path / "store.wal"
    engine = _mk_engine(wal=wal)
    _commit_rows(engine, manager_stream(60, 5))
    engine.close()
    return wal, engine


# ----------------------------------------------------------------------
# torn tails and corruption
# ----------------------------------------------------------------------
class TestTornTail:
    def test_cursor_leaves_torn_final_line_unread(self, logged):
        wal, _ = logged
        seg = last_segment(wal)
        intact = seg.read_bytes()
        seg.write_bytes(intact[:-7])  # tear the last record mid-line
        cursor = WalCursor(wal)
        records = cursor.poll()
        assert len(records) == 5  # snapshot + 4 intact commits
        assert records[-1]["version"] == "v4"
        last_line_start = intact.rstrip(b"\n").rfind(b"\n") + 1
        assert cursor.behind_bytes() == len(intact) - 7 - last_line_start

    def test_record_missing_final_newline_is_complete(self, logged):
        wal, _ = logged
        seg = last_segment(wal)
        seg.write_bytes(seg.read_bytes().rstrip(b"\n"))
        # Unterminated, so readers wait on it as an append in progress
        # ...
        assert len(wal_records(wal)) == 5
        # ... until repair, finding it complete, writes its newline.
        assert WriteAheadLog.repair(wal) == 0
        assert len(wal_records(wal)) == 6

    def test_repair_truncates_and_is_idempotent(self, logged):
        wal, _ = logged
        seg = last_segment(wal)
        intact = seg.read_bytes()
        torn = intact[:-7]
        seg.write_bytes(torn)
        last_line_start = intact.rstrip(b"\n").rfind(b"\n") + 1
        assert WriteAheadLog.repair(wal) == len(torn) - last_line_start
        assert seg.read_bytes() == intact[:last_line_start]
        assert WriteAheadLog.repair(wal) == 0
        assert len(wal_records(wal)) == 5

    def test_replay_recovers_intact_prefix(self, logged):
        wal, original = logged
        seg = last_segment(wal)
        seg.write_bytes(seg.read_bytes()[:-7])
        with pytest.warns(TornTailWarning):
            engine = StoreEngine.replay(wal)
        assert len(engine.graph) == 5  # v0..v4: the torn v5 is dropped
        assert engine.head_version().vid == "v4"
        assert engine.state() == original.state("v4")
        # Replay repaired the segment on disk: a second replay is clean.
        assert len(wal_records(wal)) == 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert StoreEngine.replay(wal).head_version().vid == "v4"

    def test_replay_on_read_only_media_warns_and_keeps_the_prefix(
            self, logged, monkeypatch):
        """Where repair cannot write, the torn final line stays on disk:
        replay leaves it unread, warns, and rebuilds the intact prefix."""
        wal, original = logged
        seg = last_segment(wal)
        torn = seg.read_bytes()[:-7]
        seg.write_bytes(torn)

        def read_only(path):
            raise OSError(errno.EROFS, "read-only file system", str(path))

        monkeypatch.setattr(WriteAheadLog, "repair", read_only)
        with pytest.warns(TornTailWarning):
            engine = StoreEngine.replay(wal)
        assert len(engine.graph) == 5
        assert engine.head_version().vid == "v4"
        assert engine.state() == original.state("v4")
        assert seg.read_bytes() == torn  # nothing was written

    def test_mid_log_corruption_raises(self, logged):
        wal, _ = logged
        seg = last_segment(wal)
        lines = seg.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"type": "commit", "version"\n'  # torn, but not final
        seg.write_bytes(b"".join(lines))
        with pytest.raises(StoreError, match="corrupt WAL record"):
            wal_records(wal)
        with pytest.raises(StoreError, match="not a torn tail"):
            WriteAheadLog.repair(wal)
        with pytest.raises(StoreError):
            StoreEngine.replay(wal)

    def test_non_object_final_line_is_torn_not_trusted(self, logged):
        """A terminated final line that is no record is corruption to a
        reader; replay's repair truncates it as a torn tail first."""
        wal, original = logged
        seg = last_segment(wal)
        with open(seg, "ab") as fh:
            fh.write(b'"just a string"\n')
        with pytest.raises(StoreError, match="corrupt WAL record"):
            wal_records(wal)
        with pytest.warns(TornTailWarning):
            engine = StoreEngine.replay(wal)
        assert engine.state() == original.state()
        assert len(wal_records(wal)) == 6


# ----------------------------------------------------------------------
# WAL lifecycle: close, creation durability, rotation
# ----------------------------------------------------------------------
class TestWalLifecycle:
    def test_append_after_close_raises_store_error(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.jsonl")
        wal.append({"type": "noop"})
        wal.close()
        with pytest.raises(StoreError, match="closed"):
            wal.append({"type": "noop"})
        with pytest.raises(StoreError, match="closed"):
            wal.rotate()
        wal.close()  # idempotent

    def test_creation_and_rotation_fsync_directory(self, tmp_path,
                                                   monkeypatch):
        import repro.store.wal as walmod

        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(walmod.os, "fsync", spy)
        wal = WriteAheadLog(tmp_path / "seg", segment_records=2)
        wal.append({"type": "noop"})
        assert synced, "creating a segment must fsync its directory"
        created = len(synced)
        wal.append({"type": "noop"})
        wal.append({"type": "noop"})  # third append rotates
        assert len(WriteAheadLog.segment_paths(tmp_path / "seg")) == 2
        assert len(synced) > created, "rotation must fsync the directory"
        wal.close()

    def test_single_file_creation_fsyncs_directory(self, tmp_path,
                                                   monkeypatch):
        import repro.store.wal as walmod

        synced = []
        monkeypatch.setattr(walmod.os, "fsync",
                            lambda fd: synced.append(fd))
        wal = WriteAheadLog(tmp_path / "w.jsonl")
        wal.append({"type": "noop"})
        wal.close()
        assert synced

    def test_unwritten_log_leaves_nothing_on_disk(self, tmp_path):
        """The directory and first segment come with the first write:
        a log opened and closed unwritten, or one whose engine refuses
        its root, leaves no trace (and a later engine may use it)."""
        WriteAheadLog(tmp_path / "seg", segment_records=4).close()
        assert not (tmp_path / "seg").exists()
        db = employee_extension()
        constraints = employee_constraints(db.schema)
        broken = db.insert("manager", {
            "name": "eva", "age": 47, "depname": "admin", "budget": 100,
        }, propagate=False)
        with pytest.raises(StoreError, match="root state is inconsistent"):
            StoreEngine(broken, constraints,
                        wal=WriteAheadLog(tmp_path / "seg"))
        assert not (tmp_path / "seg").exists()
        StoreEngine(db, constraints,
                    wal=WriteAheadLog(tmp_path / "seg")).close()
        assert len(wal_records(tmp_path / "seg")) == 1

    def test_rotation_bounds(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "seg", segment_records=2)
        for _ in range(5):
            wal.append({"type": "noop"})
        segments = WriteAheadLog.segment_paths(tmp_path / "seg")
        assert [p.name for p in segments] == [
            "wal.000001.jsonl", "wal.000002.jsonl", "wal.000003.jsonl"]
        assert wal.current_segment == segments[-1]
        wal.close()
        # Reopening appends to the highest segment, not a new one.
        wal = WriteAheadLog(tmp_path / "seg", segment_records=2)
        assert wal.current_segment == segments[-1]
        wal.close()

    def test_records_span_segments_in_order(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "seg", segment_records=3)
        for i in range(8):
            wal.append({"type": "noop", "i": i})
        wal.close()
        assert [r["i"] for r in wal_records(tmp_path / "seg")] \
            == list(range(8))

    def test_engine_refuses_populated_wal(self, logged):
        wal, _ = logged
        with pytest.raises(StoreError, match="already has records"):
            _mk_engine(wal=wal)


# ----------------------------------------------------------------------
# checkpointing and replay-from-checkpoint
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_checkpoint_requires_wal(self):
        engine = _mk_engine()
        with pytest.raises(StoreError, match="WAL-backed"):
            engine.checkpoint()

    def test_single_file_inline_checkpoint(self, tmp_path):
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal)
        rows = manager_stream(60, 8)
        _commit_rows(engine, rows[:5])
        record = engine.checkpoint()
        assert record["seq"] == 5
        _commit_rows(engine, rows[5:])
        engine.close()

        partial = StoreEngine.replay(wal)
        assert len(partial.graph) == 4  # v5 floor + v6..v8
        assert partial.head_version().vid == "v8"
        full = StoreEngine.replay(wal, from_checkpoint=False)
        assert len(full.graph) == 9
        assert partial.state() == full.state() == engine.state()
        floor = partial.graph.get("v5")
        assert floor.parent is None
        assert floor.state == full.state("v5")

    def test_auto_checkpoint_every(self, tmp_path):
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal, checkpoint_every=5)
        _commit_rows(engine, manager_stream(60, 12))
        engine.close()
        kinds = [r["type"] for r in wal_records(wal)]
        assert kinds.count("checkpoint") == 2
        # They land right after the 5th and 10th commits.
        assert kinds.index("checkpoint") == 6

    def test_checkpoint_heads_a_fresh_segment(self, tmp_path):
        engine = _mk_engine(
            wal=WriteAheadLog(tmp_path / "seg", segment_records=500))
        _commit_rows(engine, manager_stream(60, 4))
        engine.checkpoint()
        engine.close()
        segments = WriteAheadLog.segment_paths(tmp_path / "seg")
        assert len(segments) == 2
        first = WriteAheadLog.first_record(segments[-1])
        assert first["type"] == "checkpoint"

    def test_prune_then_replay_differential(self, tmp_path):
        path = tmp_path / "seg"
        engine = _mk_engine(
            wal=WriteAheadLog(path, segment_records=6), checkpoint_every=8)
        _commit_rows(engine, manager_stream(60, 20))
        engine.close()
        full = StoreEngine.replay(path, from_checkpoint=False)
        before = WriteAheadLog.segment_paths(path)
        pruned = WriteAheadLog.prune(path)
        assert pruned and len(WriteAheadLog.segment_paths(path)) \
            == len(before) - len(pruned)
        replayed = StoreEngine.replay(path, verify=True)
        assert replayed.head_version().vid == full.head_version().vid
        assert replayed.state() == full.state()
        # Pruning again finds nothing new.
        assert WriteAheadLog.prune(path) == []

    def test_engine_prune_wal_and_archive(self, tmp_path):
        path = tmp_path / "seg"
        archive = tmp_path / "old"
        engine = _mk_engine(
            wal=WriteAheadLog(path, segment_records=4), checkpoint_every=6)
        _commit_rows(engine, manager_stream(60, 13))
        pruned = engine.prune_wal(archive=archive)
        assert pruned
        assert sorted(p.name for p in archive.iterdir()) \
            == sorted(p.name for p in pruned)
        engine.close()
        assert StoreEngine.replay(path).state() == engine.state()

    def test_multi_branch_checkpoint_replay(self, tmp_path):
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal)
        rows = manager_stream(60, 10)
        _commit_rows(engine, rows[:3])
        engine.branch("dev")
        _commit_rows(engine, rows[3:5], branch="dev")
        _commit_rows(engine, rows[5:7])
        engine.branch("frozen")  # head coincides with main's
        engine.checkpoint()
        _commit_rows(engine, rows[7:9], branch="dev")
        _commit_rows(engine, rows[9:])
        engine.close()

        partial = StoreEngine.replay(wal)
        full = StoreEngine.replay(wal, from_checkpoint=False)
        assert partial.graph.branches() == full.graph.branches()
        for name in ("main", "dev", "frozen"):
            assert partial.state(branch=name) == full.state(branch=name)
        # Branches that shared a head at checkpoint time share one floor.
        assert partial.graph.head("frozen") is partial.graph.get(
            full.graph.head("frozen").vid)

    def test_branch_below_checkpoint_floor(self, tmp_path):
        """A log that holds a below-floor ``branch`` record, which
        ``StoreEngine.branch`` refuses to write, replays in full, and
        only in full."""
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal)
        _commit_rows(engine, manager_stream(60, 4))
        engine.checkpoint()
        engine.wal.append(branch_record("old", "v1"))  # below the floor
        engine.close()
        with pytest.raises(StoreError, match="below the checkpoint floor"):
            StoreEngine.replay(wal)
        full = StoreEngine.replay(wal, from_checkpoint=False)
        assert full.graph.branches()["old"] == "v1"

    def test_verified_replay_detects_tampered_checkpoint(self, tmp_path):
        import json

        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal)
        _commit_rows(engine, manager_stream(60, 3))
        engine.checkpoint()
        engine.close()
        seg = last_segment(wal)
        lines = seg.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[-1])
        assert record["type"] == "checkpoint"
        doc = record["branches"]["main"]["document"]
        doc["relations"]["manager"].pop()  # drop a row from the document
        lines[-1] = json.dumps(record, sort_keys=True)
        seg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(StoreError, match="drift"):
            StoreEngine.replay(wal, from_checkpoint=False, verify=True)


class TestBranchFloor:
    """A branch anchors only where a replay from the newest checkpoint
    can find it: at a head that checkpoint recorded, or at a version
    committed after it."""

    @staticmethod
    def _checkpointed(tmp_path):
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal)
        _commit_rows(engine, manager_stream(60, 4))  # v1..v4
        engine.checkpoint()
        engine.prune_wal()  # drops the segment holding v0..v4
        return wal, engine

    @staticmethod
    def _assert_rebuilds(engine, other):
        assert other.graph.branches() == engine.graph.branches()
        for name in engine.graph.branches():
            assert other.state(branch=name) == engine.state(branch=name)

    def test_live_branch_below_the_floor_is_refused_unlogged(
            self, tmp_path):
        wal, engine = self._checkpointed(tmp_path)
        before = wal_records(wal)
        with pytest.raises(StoreError, match="below the checkpoint floor"):
            engine.branch("old", at="v1")
        assert wal_records(wal) == before
        assert "old" not in engine.graph.branches()
        engine.close()
        self._assert_rebuilds(engine, StoreEngine.replay(wal))
        self._assert_rebuilds(
            engine, StoreEngine.replay(wal, from_checkpoint=False))

    def test_checkpointed_head_and_later_versions_still_branch(
            self, tmp_path):
        wal, engine = self._checkpointed(tmp_path)
        assert engine.branch("at-floor", at="v4").vid == "v4"
        later = _commit_rows(engine, manager_stream(60, 6)[4:])  # v5, v6
        assert engine.branch("after", at=later[0].vid).vid == "v5"
        _commit_rows(engine, manager_stream(60, 8)[6:7], branch="after")
        _commit_rows(engine, manager_stream(60, 8)[7:], branch="at-floor")
        with pytest.raises(StoreError, match="below the checkpoint floor"):
            engine.branch("old", at="v3")
        engine.close()
        self._assert_rebuilds(engine, StoreEngine.replay(wal))
        replica = ReplicaEngine(wal)
        replica.catch_up()
        self._assert_rebuilds(engine, replica.engine)

    def test_engines_rebuilt_through_a_checkpoint_keep_its_floor(
            self, tmp_path):
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal)
        _commit_rows(engine, manager_stream(60, 4))
        engine.checkpoint()
        engine.close()
        # promote()'s path: an engine rebuilt from the whole log, which
        # replayed through the checkpoint, adopts the log.
        full = StoreEngine.replay(wal, from_checkpoint=False)
        full.adopt_wal(WriteAheadLog(wal))
        with pytest.raises(StoreError, match="below the checkpoint floor"):
            full.branch("old", at="v1")
        full.branch("ok", at="v4")
        full.close()
        assert StoreEngine.replay(wal).graph.branches() == {
            "main": "v4", "ok": "v4"}

    def test_wire_branch_below_the_floor_is_refused(self, tmp_path):
        wal, engine = self._checkpointed(tmp_path)
        with StoreServer(engine) as server:
            with StoreClient(*server.address) as client:
                with pytest.raises(StoreError,
                                   match="below the checkpoint floor"):
                    client.create_branch("old", at="v1")
                assert client.create_branch("new", at="v4")["at"] == "v4"
        engine.close()
        self._assert_rebuilds(engine, StoreEngine.replay(wal))


class TestReplaceThroughTheLog:
    @pytest.mark.parametrize("verify", [False, True])
    def test_replay_rebuilds_replace_commit(self, tmp_path, verify):
        """A ``replace`` commit (netted into a row patch) followed by
        ordinary inserts replays to the identical graph."""
        wal = tmp_path / "store.wal"
        engine = _mk_engine(n=30, wal=wal)
        keep = sorted(engine.state().R("manager").tuples, key=repr)[:3]
        replaced = engine.commit(engine.begin().replace(
            "manager", [t.as_dict() for t in keep]))
        _commit_rows(engine, manager_stream(30, 3))
        engine.close()
        replayed = StoreEngine.replay(wal, verify=verify)
        assert [v.vid for v in replayed.graph.log()] == \
            [v.vid for v in engine.graph.log()]
        for v in engine.graph.log():
            twin = replayed.version(v.vid)
            assert twin.state == v.state, v.vid
        assert replayed.graph.branches() == engine.graph.branches()

    def test_logged_no_op_replace_replays_as_its_own_version(self, tmp_path):
        """Stores that kept a replace whole logged a replace that keeps
        every row as a commit of its own: v2 below, whose state equals
        v1's.  Such a log replays to the same version ids and states
        trusted, verified, and through a verifying replica, although a
        replace like it commits nothing today."""
        from repro.server import ReplicaEngine

        wal = tmp_path / "wal"
        engine = _mk_engine(n=30, wal=wal)
        first, second = manager_stream(30, 2)
        v1 = engine.commit(engine.begin().insert("manager", first))
        assert engine.commit(engine.begin().replace(
            "manager", engine.state().R("manager"))) is v1
        managers = [t.as_dict() for t in v1.state.R("manager")]
        engine.wal.append({
            "type": "commit", "version": "v2", "parent": "v1",
            "branch": "main",
            "ops": [{"op": "replace", "relation": "manager",
                     "rows": managers}]})
        engine.wal.append({
            "type": "commit", "version": "v3", "parent": "v2",
            "branch": "main",
            "ops": [{"op": "insert", "relation": "manager", "row": second,
                     "propagate": True}]})
        engine.close()
        expected = [engine.state("v0"), v1.state, v1.state,
                    v1.state.insert("manager", second)]
        replica = ReplicaEngine(wal, verify=True)
        replica.catch_up()
        for graph in (StoreEngine.replay(wal).graph,
                      StoreEngine.replay(wal, verify=True).graph,
                      replica.graph):
            assert [v.vid for v in graph.log()] == ["v0", "v1", "v2", "v3"]
            assert [v.state for v in graph.log()] == expected
            assert graph.branches() == {"main": "v3"}


class TestReplayParentCheck:
    @pytest.mark.parametrize("verify", [False, True])
    def test_commit_onto_a_non_head_parent_is_drift(self, tmp_path,
                                                    verify):
        """A commit record whose ``parent`` is not its branch's head is
        drift, not a commit to re-parent silently onto the head."""
        wal = tmp_path / "store.wal"
        engine = _mk_engine(n=30, wal=wal)
        _commit_rows(engine, manager_stream(30, 3))
        engine.close()
        segment = last_segment(wal)
        lines = segment.read_text().splitlines()
        assert '"version": "v3"' in lines[3]
        lines[3] = lines[3].replace('"parent": "v2"', '"parent": "v1"')
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError, match="replay drift"):
            StoreEngine.replay(wal, verify=verify)


# ----------------------------------------------------------------------
# version-graph GC and pins
# ----------------------------------------------------------------------
class TestGc:
    def test_gc_keep_window_and_stats(self):
        engine = _mk_engine()
        _commit_rows(engine, manager_stream(60, 8))
        stats = engine.gc(keep=3)
        assert stats == {"before": 9, "after": 3, "collected": 6,
                         "pinned": [], "floors": ["v6"]}
        assert sorted(engine.graph.versions) == ["v6", "v7", "v8"]
        assert engine.graph.get("v6").parent is None
        assert engine.graph.root.vid == "v6"
        with pytest.raises(StoreError):
            engine.gc(keep=0)

    def test_gc_preserves_pins_and_releases_collected_states(self):
        engine = _mk_engine()
        session = Session(engine)
        refs = {}
        for row in manager_stream(60, 8):
            version = session.commit(session.begin().insert("manager", row))
            refs[version.vid] = weakref.ref(version.state)
        del version
        reader = Session(engine)
        reader.pin("v3")

        stats = engine.gc(keep=1)
        assert stats["pinned"] == ["v3"]
        assert sorted(stats["floors"]) == ["v3", "v8"]
        assert sorted(engine.graph.versions) == ["v3", "v8"]
        pygc.collect()
        assert refs["v3"]() is not None, "pinned snapshot must survive"
        assert refs["v8"]() is not None
        for vid in ("v1", "v2", "v4", "v5", "v6", "v7"):
            assert refs[vid]() is None, \
                f"collected state {vid} is still resident"

        reader.release()
        engine.gc(keep=1)
        assert sorted(engine.graph.versions) == ["v8"]
        pygc.collect()
        assert refs["v3"]() is None, \
            "a released pin must make the snapshot collectable"

    def test_gc_after_commits_keeps_serving(self):
        engine = _mk_engine()
        rows = manager_stream(60, 10)
        _commit_rows(engine, rows[:6])
        engine.gc(keep=1)
        _commit_rows(engine, rows[6:])
        assert engine.head_version().vid == "v10"
        assert engine.audit().ok()
        expect = {r["pname"] for r in rows}
        got = {t["pname"] for t in engine.state().R("manager").tuples}
        assert expect <= got

    def test_pin_unpin_errors(self):
        engine = _mk_engine()
        versions = _commit_rows(engine, manager_stream(60, 4))
        with pytest.raises(StoreError, match="not pinned"):
            engine.unpin("v2")
        engine.pin("v2")
        engine.pin("v2")  # refcounted
        engine.unpin("v2")
        engine.gc(keep=1)
        assert "v2" in engine.graph.versions  # one pin still held
        engine.unpin("v2")
        engine.gc(keep=1)
        assert "v2" not in engine.graph.versions
        with pytest.raises(StoreError, match="not resident"):
            engine.pin(versions[1])  # collected version object

    def test_session_pin_context_manager(self):
        engine = _mk_engine()
        _commit_rows(engine, manager_stream(60, 5))
        with Session(engine) as session:
            pinned = session.pin("v2")
            assert [v.vid for v in session.pins()] == ["v2"]
            engine.gc(keep=1)
            assert session.read("manager", pinned) is not None
            with pytest.raises(StoreError, match="no pin"):
                session.release("v4")
        # Leaving the block released the pin.
        assert engine.pinned() == {}
        engine.gc(keep=1)
        assert "v2" not in engine.graph.versions

    def test_transaction_begun_before_gc_commits_onto_the_head(self):
        """A transaction holds no version: one begun at a head that
        ``gc`` has since collected still commits onto the current
        head."""
        engine = _mk_engine()
        rows = manager_stream(60, 6)
        _commit_rows(engine, rows[:1])
        early = engine.begin()  # begun while v1 was the head
        _commit_rows(engine, rows[1:5])
        engine.gc(keep=2)
        assert "v1" not in engine.graph.versions
        early.insert("manager", rows[5])
        version = engine.commit(early)
        assert (version.vid, version.parent.vid) == ("v6", "v5")
        assert engine.audit().ok()

    def test_gc_leaves_wal_replayable(self, tmp_path):
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal)
        _commit_rows(engine, manager_stream(60, 6))
        engine.gc(keep=1)
        _commit_rows(engine, manager_stream(60, 8)[6:])
        engine.close()
        full = StoreEngine.replay(wal, from_checkpoint=False)
        assert len(full.graph) == 9  # GC never rewrites history on disk
        assert full.state() == engine.state()


# ----------------------------------------------------------------------
# slow lane: exhaustive crash injection, streams, and timing gates
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestCrashInjection:
    def test_every_byte_offset_of_the_last_record(self, tmp_path):
        wal = tmp_path / "full.wal"
        engine = _mk_engine(n=30, wal=wal)
        _commit_rows(engine, manager_stream(30, 5))
        engine.close()
        segment = last_segment(wal)
        data = segment.read_bytes()
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        target = tmp_path / "cut.wal"
        target.mkdir()
        for cut in range(last_start, len(data) + 1):
            (target / segment.name).write_bytes(data[:cut])
            complete = cut >= len(data) - 1  # only the newline missing
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TornTailWarning)
                replayed = StoreEngine.replay(target)
            if complete:
                assert len(replayed.graph) == 6, f"cut at byte {cut}"
                assert replayed.head_version().vid == "v5"
            else:
                assert len(replayed.graph) == 5, f"cut at byte {cut}"
                assert replayed.head_version().vid == "v4"
            assert engine.state(replayed.head_version().vid) \
                == replayed.state()

    def test_torn_segment_boundary(self, tmp_path):
        """Tearing the last record of a segmented log behaves exactly
        like the one-segment case — only the final segment's final line
        is ever forgiven."""
        path = tmp_path / "seg"
        engine = _mk_engine(n=30, wal=WriteAheadLog(path, segment_records=3))
        _commit_rows(engine, manager_stream(30, 7))
        engine.close()
        last = WriteAheadLog.segment_paths(path)[-1]
        data = last.read_bytes()
        last.write_bytes(data[:-9])
        with pytest.warns(TornTailWarning):
            replayed = StoreEngine.replay(path, from_checkpoint=False)
        assert replayed.head_version().vid == "v6"
        # A torn line in a non-final segment is never forgiven.
        first = WriteAheadLog.segment_paths(path)[0]
        first.write_bytes(first.read_bytes()[:-9])
        with pytest.raises(StoreError):
            StoreEngine.replay(path, from_checkpoint=False)


@pytest.mark.slow
class TestCheckpointStream:
    def test_rotated_checkpointed_replay_matches_full(self, tmp_path):
        """Differential over a long seeded stream: every version of the
        from-checkpoint graph state-equals its full-replay twin."""
        path = tmp_path / "seg"
        engine = _mk_engine(
            n=400,
            wal=WriteAheadLog(path, segment_records=25),
            checkpoint_every=40)
        _commit_rows(engine, manager_stream(400, 130))
        engine.close()
        partial = StoreEngine.replay(path)
        full = StoreEngine.replay(path, from_checkpoint=False)
        assert len(full.graph) == 131
        assert 1 < len(partial.graph) < len(full.graph)
        assert partial.graph.branches() == full.graph.branches()
        for vid in partial.graph.versions:
            assert partial.state(vid) == full.state(vid), vid
        pruned = WriteAheadLog.prune(path)
        assert pruned
        assert StoreEngine.replay(path, verify=True).state() == full.state()

    def test_replay_from_checkpoint_speedup(self, tmp_path):
        """The acceptance gate: at 500+ commits, replay from the newest
        checkpoint is >= 5x faster than replay from v0."""
        import time

        path = tmp_path / "seg"
        engine = _mk_engine(
            n=60,
            wal=WriteAheadLog(path, segment_records=1000),
            checkpoint_every=100)
        rows = manager_stream(60, 40)
        session = Session(engine)
        for i in range(260):  # insert/delete churn: 520 commits
            row = rows[i % len(rows)]
            session.commit(session.begin().insert("manager", row))
            session.commit(session.begin().delete("manager", row, False))
        engine.close()

        def best_of(k, fn):
            return min(_timed(fn) for _ in range(k))

        def _timed(fn):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        partial = StoreEngine.replay(path)
        full = StoreEngine.replay(path, from_checkpoint=False)
        assert full.graph.seq == 520
        assert partial.state() == full.state()
        t_full = best_of(
            3, lambda: StoreEngine.replay(path, from_checkpoint=False))
        t_partial = best_of(3, lambda: StoreEngine.replay(path))
        speedup = t_full / t_partial
        assert speedup >= 5.0, (
            f"replay-from-checkpoint speedup {speedup:.1f}x "
            f"(full {t_full * 1e3:.1f} ms, "
            f"checkpoint {t_partial * 1e3:.1f} ms)")


@pytest.mark.slow
class TestGcUnderStream:
    def test_gc_bounds_residency_under_eight_writers(self):
        engine = _mk_engine(n=400)
        rows = manager_stream(400, 240)
        shards = disjoint_commit_specs(rows, 8)
        errors = []

        def worker(shard):
            session = Session(engine)
            for spec in shard:
                for _ in range(50):
                    try:
                        session.run(spec)
                        break
                    except StoreError:
                        # The txn's base fell below the GC floor while
                        # this writer was descheduled; rebase by
                        # retrying from the fresh head.
                        continue
                else:
                    errors.append(spec)

        pinned = Session(engine)
        pinned.pin()  # v0: a long-lived reader the stream must respect
        threads = [threading.Thread(target=worker, args=(shard,))
                   for shard in shards]
        for t in threads:
            t.start()
        bounds = []
        while any(t.is_alive() for t in threads):
            stats = engine.gc(keep=16)
            bounds.append(stats["after"])
            assert stats["after"] <= 16 + len(stats["pinned"])
        for t in threads:
            t.join()
        assert not errors, f"{len(errors)} commits never landed"

        final = engine.gc(keep=4)
        assert final["after"] <= 4 + 1
        assert "v0" in engine.graph.versions  # the pin held
        got = {t["pname"] for t in engine.state().R("manager").tuples}
        assert {r["pname"] for r in rows} <= got
        assert engine.audit().ok()
