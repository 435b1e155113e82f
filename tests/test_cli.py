"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro import cli, io
from repro.core.employee import employee_constraints, employee_extension

from generators import last_segment


@pytest.fixture
def document(tmp_path):
    db = employee_extension()
    path = tmp_path / "employee.json"
    io.save(path, db, employee_constraints(db.schema))
    return str(path)


@pytest.fixture
def broken_document(tmp_path):
    db = employee_extension()
    broken = db.insert("manager", {
        "name": "eva", "age": 47, "depname": "admin", "budget": 100,
    }, propagate=False)
    path = tmp_path / "broken.json"
    io.save(path, broken, employee_constraints(broken.schema))
    return str(path)


class TestInspect:
    def test_renders_tables(self, document, capsys):
        assert cli.main(["inspect", document]) == 0
        out = capsys.readouterr().out
        assert "A = {age, budget, depname, location, name}" in out
        assert "containment: ok" in out


class TestCheck:
    def test_clean_state(self, document, capsys):
        assert cli.main(["check", document]) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_violations_exit_nonzero(self, broken_document, capsys):
        assert cli.main(["check", broken_document]) == 1
        out = capsys.readouterr().out
        assert "VIOLATIONS FOUND" in out
        assert "Containment" in out


class TestTopology:
    def test_reports_essential_types(self, document, capsys):
        assert cli.main(["topology", document]) == 0
        out = capsys.readouterr().out
        assert "S_person" in out
        assert "essential entity types: "\
            "['department', 'employee', 'manager', 'person']" in out
        assert "['worksfor']" in out


class TestFD:
    def test_closure_listing(self, document, capsys):
        assert cli.main(["fd", document, "--closure"]) == 0
        out = capsys.readouterr().out
        assert "fd(employee, department, worksfor)" in out
        assert "non-trivial closure" in out

    def test_violated_dependency_exit_code(self, tmp_path, capsys):
        db = employee_extension()
        broken = db.insert("worksfor", {
            "name": "ann", "age": 31, "depname": "sales", "location": "delft",
        }, propagate=False)
        path = tmp_path / "fdbroken.json"
        io.save(path, broken, employee_constraints(broken.schema))
        assert cli.main(["fd", str(path)]) == 1
        assert "VIOLATED" in capsys.readouterr().out


class TestExample:
    def test_writes_document(self, tmp_path, capsys):
        out_path = tmp_path / "emp.json"
        assert cli.main(["example", "employee", str(out_path)]) == 0
        db, constraints = io.load(out_path)
        assert db.is_consistent()
        assert constraints.holds(db)

    def test_unknown_example(self, tmp_path):
        assert cli.main(["example", "nothing", str(tmp_path / "x.json")]) == 2


class TestCheckJson:
    def test_clean_state_json(self, document, capsys):
        import json

        assert cli.main(["check", document, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"ok": True, "findings": [], "constraints": {}}

    def test_violations_json_carry_witnesses(self, broken_document, capsys):
        import json

        assert cli.main(["check", broken_document, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        axioms = {f["axiom"] for f in data["findings"]}
        assert "Containment Condition" in axioms
        assert any(f["witnesses"] for f in data["findings"])


class TestServeLogReplay:
    def test_serve_emits_summary_and_wal(self, document, tmp_path, capsys):
        import json

        wal = tmp_path / "serve.wal"
        assert cli.main(["serve", document, "--txns", "30", "--threads", "2",
                         "--wal", str(wal), "--seed", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["audit"]["ok"] is True
        assert "conflicts" not in data
        assert data["committed"] + data["rejected"] + data["noop"] == 30
        assert data["versions"] == data["committed"] + 1
        assert wal.exists()

    def test_log_lists_history(self, document, tmp_path, capsys):
        wal = tmp_path / "serve.wal"
        assert cli.main(["serve", document, "--txns", "12", "--threads", "1",
                         "--wal", str(wal), "--seed", "3"]) == 0
        capsys.readouterr()
        assert cli.main(["log", str(wal)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("v0  snapshot")
        assert any("<- v0" in line for line in out)

    def test_log_json_records(self, document, tmp_path, capsys):
        import json

        wal = tmp_path / "serve.wal"
        cli.main(["serve", document, "--txns", "6", "--threads", "1",
                  "--wal", str(wal), "--seed", "3"])
        capsys.readouterr()
        assert cli.main(["log", str(wal), "--json"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert records[0]["type"] == "snapshot"
        assert all(r["type"] in ("snapshot", "commit", "branch")
                   for r in records)

    def test_log_reports_an_unterminated_tail_without_repairing(
            self, document, tmp_path, capsys):
        import json

        wal = tmp_path / "serve.wal"
        cli.main(["serve", document, "--txns", "6", "--threads", "1",
                  "--wal", str(wal), "--seed", "3"])
        capsys.readouterr()
        segment = last_segment(wal)
        torn = segment.read_bytes() + b'{"type": "commit", "ver'
        segment.write_bytes(torn)
        assert cli.main(["log", str(wal)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("v0  snapshot")
        assert out[-1].startswith("(23 unterminated byte(s) at the tail")
        assert cli.main(["log", str(wal), "--json"]) == 0
        captured = capsys.readouterr()
        assert all(json.loads(line)["type"]
                   for line in captured.out.splitlines())
        assert "23 unterminated byte(s)" in captured.err
        assert segment.read_bytes() == torn  # log is read, not repaired

    def test_replay_verifies_and_writes_head(self, document, tmp_path, capsys):
        import json

        from repro import io as _io

        wal = tmp_path / "serve.wal"
        out_doc = tmp_path / "head.json"
        cli.main(["serve", document, "--txns", "20", "--threads", "2",
                  "--wal", str(wal), "--seed", "3"])
        capsys.readouterr()
        assert cli.main(["replay", str(wal), "--verify",
                         "--out", str(out_doc), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["audit"]["ok"] is True
        assert data["verified"] is True
        db, constraints = _io.load(out_doc)
        assert db.is_consistent()

    def test_serve_modes_agree_on_traffic(self, document, capsys):
        """``serve`` runs the delta gate, and its outcome counts equal
        those of the same seeded specs judged by the full-audit
        oracle."""
        import json
        import random

        from repro.store import StoreEngine
        from repro.workloads import random_txn_specs

        from generators import audit_oracle

        assert cli.main(["serve", document, "--txns", "25",
                         "--threads", "1", "--seed", "5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        db, constraints = io.load(document)
        oracle = StoreEngine(db, constraints)
        counts = {"ok": 0, "rejected": 0, "noop": 0}
        for ops in random_txn_specs(random.Random(5), db, 25):
            verdict, txn, _ = audit_oracle(oracle, ops)
            counts[verdict] += 1
            if verdict == "ok":
                oracle._install_unverified(txn)
        assert (data["committed"], data["rejected"], data["noop"]) == \
            (counts["ok"], counts["rejected"], counts["noop"])

    def test_serve_refuses_a_broken_root_before_opening_the_wal(
            self, broken_document, tmp_path):
        """A document whose root fails the audit is refused before any
        WAL I/O: no directory and no empty first segment are left."""
        from repro.errors import StoreError

        wal = tmp_path / "wal"
        with pytest.raises(StoreError, match="root state is inconsistent"):
            cli.main(["serve", broken_document, "--wal", str(wal),
                      "--segment-records", "4"])
        assert not wal.exists()

    def test_serve_mode_flag_is_gone(self, document, capsys):
        with pytest.raises(SystemExit):
            cli.main(["serve", document, "--mode", "audit"])
        assert "--mode" in capsys.readouterr().err


class TestCheckpointGc:
    """The checkpoint / gc / replay-from-checkpoint surface of the CLI."""

    @pytest.fixture
    def segmented_wal(self, document, tmp_path, capsys):
        wal = tmp_path / "wal"
        assert cli.main(["serve", document, "--txns", "40", "--threads", "1",
                         "--wal", str(wal), "--seed", "3",
                         "--segment-records", "8",
                         "--checkpoint-every", "10"]) == 0
        capsys.readouterr()
        return wal

    def test_serve_rotates_and_checkpoints(self, segmented_wal, capsys):
        import json

        from repro.store import WriteAheadLog

        segments = WriteAheadLog.segment_paths(segmented_wal)
        assert len(segments) > 1
        assert cli.main(["log", str(segmented_wal), "--json"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        kinds = {r["type"] for r in records}
        assert "checkpoint" in kinds

    def test_log_renders_checkpoints(self, segmented_wal, capsys):
        assert cli.main(["log", str(segmented_wal)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint  seq" in out
        assert "heads: main@v" in out

    def test_replay_from_checkpoint_matches_full(self, segmented_wal,
                                                 capsys):
        import json

        assert cli.main(["replay", str(segmented_wal), "--json"]) == 0
        partial = json.loads(capsys.readouterr().out)
        assert cli.main(["replay", str(segmented_wal), "--full",
                         "--json"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert partial["branches"] == full["branches"]
        assert partial["versions"] < full["versions"]
        assert partial["audit"]["ok"] and full["audit"]["ok"]

    def test_checkpoint_command_appends_record(self, document, tmp_path,
                                               capsys):
        import json

        wal = tmp_path / "single.wal"
        cli.main(["serve", document, "--txns", "12", "--threads", "1",
                  "--wal", str(wal), "--seed", "3"])
        capsys.readouterr()
        assert cli.main(["checkpoint", str(wal), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["branches"]["main"].startswith("v")
        assert cli.main(["log", str(wal), "--json"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert records[-1]["type"] == "checkpoint"
        assert records[-1]["seq"] == summary["seq"]
        # And replay now starts from it.
        assert cli.main(["replay", str(wal), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["versions"] == 1
        assert data["audit"]["ok"] is True

    def test_gc_prunes_checkpointed_segments(self, segmented_wal, capsys):
        import json

        from repro.store import WriteAheadLog

        before = WriteAheadLog.segment_paths(segmented_wal)
        assert cli.main(["gc", str(segmented_wal), "--dry-run",
                         "--json"]) == 0
        dry = json.loads(capsys.readouterr().out)
        assert dry["dry_run"] is True
        assert dry["pruned"]
        assert WriteAheadLog.segment_paths(segmented_wal) == before

        archive = segmented_wal.parent / "archive"
        assert cli.main(["gc", str(segmented_wal),
                         "--archive", str(archive), "--json"]) == 0
        done = json.loads(capsys.readouterr().out)
        assert done["pruned"] == dry["pruned"]
        remaining = WriteAheadLog.segment_paths(segmented_wal)
        assert [str(p) for p in remaining] == done["remaining"]
        assert len(remaining) < len(before)
        archived = sorted(p.name for p in archive.iterdir())
        assert archived == sorted(
            p.rsplit("/", 1)[-1] for p in done["pruned"])
        # The pruned log still replays to the same head.
        assert cli.main(["replay", str(segmented_wal), "--verify",
                         "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["branches"] == done["branches"]
        assert data["audit"]["ok"] is True

    def test_gc_without_checkpoint_is_noop(self, document, tmp_path,
                                           capsys):
        wal = tmp_path / "plain.wal"
        cli.main(["serve", document, "--txns", "8", "--threads", "1",
                  "--wal", str(wal), "--seed", "3"])
        capsys.readouterr()
        assert cli.main(["gc", str(wal)]) == 0
        assert "nothing to prune" in capsys.readouterr().out


@pytest.fixture
def committed_wal(tmp_path):
    """A closed primary WAL with one committed write."""
    from repro.store import Session, StoreEngine
    from repro.workloads import manager_stream, op_record, serving_state

    schema, db, constraints = serving_state(8)
    wal = tmp_path / "primary.jsonl"
    engine = StoreEngine(db, constraints, wal=wal)
    session = Session(engine)
    session.run([op_record("insert", "manager",
                           manager_stream(8, 1)[0])])
    engine.close()
    return wal


class TestReplicaLagBound:
    def test_within_bound_exits_zero(self, committed_wal, capsys):
        assert cli.main(["replica", str(committed_wal), "--once",
                         "--max-lag-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "lag_ok: True" in out
        assert "max_lag_bytes: 0" in out

    def test_over_bound_exits_nonzero(self, committed_wal, capsys):
        with open(last_segment(committed_wal), "ab") as f:
            f.write(b'{"type": "commit", "ver')  # a torn, growing tail
        assert cli.main(["replica", str(committed_wal), "--once",
                         "--timeout", "0.3",
                         "--max-lag-bytes", "0"]) == 1
        out = capsys.readouterr().out
        assert "lag_ok: False" in out

    def test_no_bound_keeps_the_old_contract(self, committed_wal,
                                             capsys):
        with open(last_segment(committed_wal), "ab") as f:
            f.write(b'{"type": "commit", "ver')
        assert cli.main(["replica", str(committed_wal), "--once",
                         "--timeout", "0.3"]) == 0
        assert "max_lag_bytes" not in capsys.readouterr().out


class TestSupervise:
    def test_once_against_a_live_primary(self, committed_wal, capsys):
        import json as _json

        from repro.server import ReplicaEngine, StoreServer

        replica_like = ReplicaEngine(committed_wal)
        replica_like.sync()
        with StoreServer(replica_like, sync_interval=0) as server:
            host, port = server.address
            assert cli.main(["supervise", str(committed_wal),
                             "--id", "r1",
                             "--primary", f"{host}:{port}",
                             "--once", "--json"]) == 0
        summary = _json.loads(capsys.readouterr().out)
        assert summary["role"] == "follower"
        assert summary["replica_id"] == "r1"
        assert summary["primary_state"] == "alive"
        assert summary["ticks"] == 1

    def test_max_ticks_bounds_a_dead_primary_loop(self, committed_wal,
                                                  capsys):
        assert cli.main(["supervise", str(committed_wal),
                         "--id", "r1",
                         "--primary", "127.0.0.1:1",
                         "--interval", "0.01",
                         "--max-ticks", "2"]) == 0
        out = capsys.readouterr().out
        assert "role: follower" in out
        assert "primary_state: suspect" in out
        assert "ticks: 2" in out

    def test_malformed_peer_spec_is_rejected(self, committed_wal):
        with pytest.raises(SystemExit, match="ID=HOST:PORT"):
            cli.main(["supervise", str(committed_wal), "--id", "r1",
                      "--primary", "127.0.0.1:1",
                      "--peer", "oops", "--once"])


def _one_file_log(wal_dir, path):
    """The one-file layout of an older release: ``wal_dir``'s segments
    concatenated in append order into the regular file ``path``."""
    from repro.store import WriteAheadLog

    path.write_bytes(b"".join(
        p.read_bytes() for p in WriteAheadLog.segment_paths(wal_dir)))
    return path


class TestOneLayout:
    def test_checkpoint_keeps_the_promoted_epoch(self, committed_wal,
                                                 capsys):
        import json

        from repro.store import StoreEngine, WriteAheadLog

        assert cli.main(["promote", str(committed_wal), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["epoch"] == 1
        assert cli.main(["checkpoint", str(committed_wal), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert sorted(summary) == ["branches", "segment", "seq"]
        assert WriteAheadLog.current_epoch(committed_wal) == 1
        assert StoreEngine.replay(committed_wal).epoch == 1
        assert StoreEngine.replay(committed_wal, from_checkpoint=False,
                                  verify=True).epoch == 1
        assert cli.main(["promote", str(committed_wal), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["epoch"] == 2

    @pytest.mark.parametrize("open_log", [
        "WriteAheadLog", "StoreEngine.replay", "ReplicaEngine",
        "log", "replay", "gc"])
    def test_regular_file_log_is_refused(self, committed_wal, tmp_path,
                                         open_log):
        from repro.errors import StoreError
        from repro.server import ReplicaEngine
        from repro.store import StoreEngine, WriteAheadLog

        path = _one_file_log(committed_wal, tmp_path / "old.wal")
        openers = {
            "WriteAheadLog": WriteAheadLog,
            "StoreEngine.replay": StoreEngine.replay,
            "ReplicaEngine": ReplicaEngine,
        }
        with pytest.raises(StoreError, match="wal.000001.jsonl"):
            if open_log in openers:
                openers[open_log](path)
            else:
                cli.main([open_log, str(path)])

    def test_migration_recipe(self, committed_wal, tmp_path, capsys):
        from repro.server import ReplicaEngine, promote
        from repro.store import Session, StoreEngine, WriteAheadLog
        from repro.workloads import manager_stream, op_record

        promoted = promote(ReplicaEngine(committed_wal))
        Session(promoted).run(
            [op_record("insert", "manager", manager_stream(8, 2)[1])])
        promoted.close()
        old = _one_file_log(committed_wal, tmp_path / "old.wal")
        migrated = tmp_path / "migrated"
        migrated.mkdir()
        old.rename(migrated / "wal.000001.jsonl")
        assert cli.main(["checkpoint", str(migrated)]) == 0
        capsys.readouterr()

        assert WriteAheadLog.current_epoch(migrated) == 1
        original = StoreEngine.replay(committed_wal, from_checkpoint=False)
        full = StoreEngine.replay(migrated, from_checkpoint=False,
                                  verify=True)
        assert full.graph.branches() == original.graph.branches()
        assert sorted(full.graph.versions) == sorted(original.graph.versions)
        for vid in original.graph.versions:
            assert full.state(vid) == original.state(vid)
        resumed = StoreEngine.replay(migrated)
        assert resumed.epoch == full.epoch == 1
        assert resumed.graph.branches() == promoted.graph.branches()
        assert resumed.state() == promoted.state()
