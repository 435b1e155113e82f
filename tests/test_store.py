"""Unit and differential tests for the versioned store (repro.store).

The load-bearing suites are differential:

* the delta commit gate must agree, accept/reject and state for state,
  with the full dirty-context ``check_all`` of each candidate over
  seeded random transaction streams, and

* WAL replay must rebuild a version graph whose every state equals the
  original (~200 seeded version comparisons, trusted and verified
  replay).
"""

import random

import pytest

from repro import io
from repro.core import ConstraintSet, check_all, extension
from repro.core.employee import employee_constraints, employee_extension
from repro.errors import (
    CommitRejected,
    ExtensionError,
    StoreError,
)
from repro.store import (
    Session,
    StoreEngine,
    Transaction,
    ValidationPlan,
    VersionGraph,
    write_footprint,
)
from repro.workloads import (
    manager_stream,
    random_txn_specs,
    serving_state,
)

from generators import (
    audit_oracle,
    fresh_net_changes,
    last_segment,
    random_patch_txn,
    wal_records,
)


@pytest.fixture
def employee_engine():
    db = employee_extension()
    return StoreEngine(db, employee_constraints(db.schema))


def _mk_engine(n=60, **kwargs):
    schema, db, constraints = serving_state(n)
    return StoreEngine(db, constraints, **kwargs)


class TestVersionGraph:
    def test_root_and_heads(self, employee_engine):
        g = employee_engine.graph
        assert g.root.vid == "v0"
        assert g.head().vid == "v0"
        assert g.branches() == {"main": "v0"}

    def test_unknown_version_and_branch(self, employee_engine):
        g = employee_engine.graph
        with pytest.raises(StoreError):
            g.get("v99")
        with pytest.raises(StoreError):
            g.head("nope")

    def test_lineage(self):
        engine = _mk_engine()
        session = Session(engine)
        rows = manager_stream(60, 3)
        vids = [session.commit(
            session.begin().insert("manager", r)).vid for r in rows]
        assert vids == ["v1", "v2", "v3"]
        assert [v.vid for v in engine.graph.lineage("v3")] == \
            ["v0", "v1", "v2", "v3"]

    def test_branching_isolates_heads(self):
        engine = _mk_engine()
        engine.branch("dev")
        dev = Session(engine, "dev")
        main = Session(engine, "main")
        row = manager_stream(60, 1)[0]
        v_dev = dev.commit(dev.begin().insert("manager", row))
        assert engine.head_version("dev") is v_dev
        assert engine.head_version("main").vid == "v0"
        assert row["pname"] not in {
            t["pname"] for t in main.read("manager")}
        with pytest.raises(StoreError):
            engine.branch("dev")  # duplicate name


class TestTransactionBuffering:
    def test_rejects_bad_schema_and_domain(self, employee_engine):
        txn = employee_engine.begin()
        with pytest.raises(ExtensionError):
            txn.insert("manager", {"name": "ann"})
        with pytest.raises(ExtensionError):
            txn.insert("employee",
                       {"name": "nobody", "age": 31, "depname": "sales"})

    def test_single_use(self, employee_engine):
        txn = employee_engine.begin().insert(
            "manager", {"name": "cas", "age": 28, "depname": "sales",
                        "budget": 250})
        employee_engine.commit(txn)
        with pytest.raises(StoreError):
            employee_engine.commit(txn)

    def test_empty_transaction_is_a_noop(self, employee_engine):
        head = employee_engine.head_version()
        assert employee_engine.commit(employee_engine.begin()) is head

    def test_net_changes_match_object_level_updates(self):
        """A transaction's net effect equals chaining the public
        DatabaseExtension update methods op for op."""
        rng = random.Random(11)
        from tests.generators import random_database_states

        for seed in range(12):
            rng = random.Random(seed)
            (schema, db), *_ = random_database_states(rng)
            specs = random_txn_specs(rng, db, 6)
            for ops in specs:
                txn = Transaction.from_records(schema, "main", ops)
                oracle = db
                for op in ops:
                    update = getattr(oracle, op["op"])
                    oracle = update(op["relation"], op["row"],
                                    op["propagate"])
                changes = fresh_net_changes(txn, db)
                derived = db.apply_changes(changes.added, changes.removed)
                assert derived == oracle

    def test_spec_generators_emit_op_records(self):
        """Every workload spec generator emits op records that
        ``Transaction.from_records`` buffers as given."""
        from repro.workloads import (
            contended_commit_specs,
            disjoint_commit_specs,
        )

        schema, db, _ = serving_state(60)
        rows = manager_stream(60, 6)
        batches = [ops for writer in disjoint_commit_specs(rows, 4)
                   for ops in writer]
        batches += [ops for writer in contended_commit_specs(rows, 2)
                    for ops in writer]
        batches += random_txn_specs(random.Random(3), db, 20, 3)
        assert len(batches) == 6 + 12 + 20
        for ops in batches:
            for op in ops:
                assert set(op) == {"op", "relation", "row", "propagate"}
                assert op["op"] in ("insert", "delete")
                assert isinstance(op["row"], dict)
            txn = Transaction.from_records(schema, "main", ops)
            assert [(o.kind, o.relation, o.propagate) for o in txn.ops] \
                == [(op["op"], op["relation"], op["propagate"])
                    for op in ops]


class TestCommitGate:
    def test_clean_commit_accepted_and_audited(self):
        engine = _mk_engine()
        session = Session(engine)
        version = session.commit(
            session.begin().insert("manager", manager_stream(60, 1)[0]))
        assert version.vid == "v1"
        assert engine.audit().ok()

    def test_containment_violation_rejected_with_witnesses(self):
        engine = _mk_engine()
        row = manager_stream(60, 1)[0]
        bad = dict(row, budget=(row["budget"] + 1) % 53)  # no worksfor support
        txn = engine.begin().insert("manager", bad, propagate=False)
        with pytest.raises(CommitRejected) as exc:
            engine.commit(txn)
        checks = {f["check"] for f in exc.value.findings}
        assert "containment" in checks
        assert all(f["witnesses"] for f in exc.value.findings
                   if f["check"] == "containment")

    def test_fd_violation_rejected(self):
        engine = _mk_engine()
        # worksfor: person (pname,dname) -> dept (dname,budget); a second
        # row in the same (pname,dname) lhs-group with a different budget
        # breaks the dependency (propagation keeps containment clean, so
        # the FD is the *only* thing wrong).
        state = engine.state()
        t = sorted(state.R("worksfor").tuples, key=repr)[0].as_dict()
        bad = dict(t, budget=(t["budget"] + 1) % 53)
        txn = engine.begin().insert("worksfor", bad)
        with pytest.raises(CommitRejected) as exc:
            engine.commit(txn)
        assert any(f["check"] == "fd" for f in exc.value.findings)

    def test_injectivity_violation_rejected(self):
        engine = _mk_engine()
        state = engine.state()
        victim = sorted(state.R("manager").tuples, key=repr)[0].as_dict()
        twin = dict(victim, bonus=(victim["bonus"] + 1) % 11)
        txn = engine.begin().insert("manager", twin, propagate=False)
        with pytest.raises(CommitRejected) as exc:
            engine.commit(txn)
        assert any(f["check"] == "extension-axiom"
                   for f in exc.value.findings)

    def test_support_stripping_delete_rejected(self):
        engine = _mk_engine()
        state = engine.state()
        # a dept row supporting office (compound of dept): removing it
        # without cascading offices strips contributor support
        office = sorted(state.R("office").tuples, key=repr)[0]
        dept = office.project(state.schema["dept"].attributes)
        txn = engine.begin().remove("dept", [dept])
        with pytest.raises(CommitRejected) as exc:
            engine.commit(txn)
        checks = {f["check"] for f in exc.value.findings}
        assert checks & {"extension-axiom", "containment", "participation"}

    def test_rejection_leaves_store_untouched(self):
        engine = _mk_engine()
        head = engine.head_version()
        bad = dict(manager_stream(60, 1)[0], budget=52)
        with pytest.raises(CommitRejected):
            engine.commit(engine.begin().insert("manager", bad,
                                                propagate=False))
        assert engine.head_version() is head
        assert len(engine.graph) == 1
        assert engine.audit().ok()

    def test_inconsistent_root_refused(self):
        schema, db, constraints = serving_state(30)
        broken = db.insert("manager", dict(manager_stream(30, 1)[0],
                                           budget=52), propagate=False)
        with pytest.raises(StoreError):
            StoreEngine(broken, constraints)

    def test_replace_commit_never_runs_the_full_audit(self, monkeypatch):
        """A replace nets into a row patch, so the probes judge it:
        ``check_all`` runs for neither an accepted nor a rejected
        replace."""
        from repro.store import engine as engine_mod

        engine = _mk_engine()
        calls = []
        audit = engine_mod.check_all
        monkeypatch.setattr(engine_mod, "check_all", lambda *a, **kw: (
            calls.append(a), audit(*a, **kw))[1])
        managers = sorted(engine.state().R("manager").tuples, key=repr)
        keep = [t.as_dict() for t in managers[:3]]
        engine.commit(engine.begin().replace("manager", keep))
        assert len(engine.state().R("manager")) == 3
        bad = dict(manager_stream(60, 1)[0], budget=52)
        with pytest.raises(CommitRejected):
            engine.commit(engine.begin().replace("manager", keep + [bad]))
        assert calls == []
        assert engine.audit().ok()


class TestDeltaVsAuditEquivalence:
    """The delta gate is judged against the full dirty-context audit of
    each candidate: same accepts, same rejects, same states, seed for
    seed."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_traffic_agreement(self, seed):
        rng = random.Random(seed)
        engine = _mk_engine(40)
        session = Session(engine)
        for ops in random_txn_specs(rng, engine.state(), 12):
            verdict, _, candidate = audit_oracle(engine, ops)
            try:
                session.run(ops)
                outcome = "ok"
            except CommitRejected:
                outcome = "rejected"
            assert outcome == ("rejected" if verdict == "rejected"
                               else "ok"), (seed, ops)
            if outcome == "ok":
                assert engine.state() == candidate, (seed, ops)
        # every committed head must also pass an independent full audit
        report = check_all(engine.schema, engine.state(),
                           constraints=engine.constraints)
        assert report.ok()

    @pytest.mark.parametrize("seed", range(10))
    def test_replace_and_remove_traffic_agreement(self, seed):
        """Transactions carrying ``replace`` and ``remove`` records get
        the full audit's verdict and state from the delta gate; a
        replace of ``manager`` that only drops rows is accepted."""
        rng = random.Random(seed)
        engine = _mk_engine(40)
        session = Session(engine)
        accepted_replaces = 0
        for _ in range(50):
            head = engine.state()
            ops = random_patch_txn(rng, head)
            verdict, txn, candidate = audit_oracle(engine, ops)
            drops_managers = ops[0]["relation"] == "manager" \
                and len(ops) == 1 and not fresh_net_changes(txn, head).added
            try:
                session.run(ops)
                outcome = "ok"
            except CommitRejected:
                outcome = "rejected"
            assert outcome == ("rejected" if verdict == "rejected"
                               else "ok"), (seed, ops)
            if outcome == "ok":
                assert engine.state() == candidate, (seed, ops)
                accepted_replaces += verdict == "ok"
            assert outcome == "ok" or not drops_managers, (seed, ops)
        assert accepted_replaces >= 10, seed
        assert engine.audit().ok()

    def test_committed_versions_always_audit_clean(self):
        rng = random.Random(99)
        engine = _mk_engine(40)
        session = Session(engine)
        for ops in random_txn_specs(rng, engine.state(), 20):
            try:
                session.run(ops)
            except CommitRejected:
                pass
        for version in engine.graph.log():
            assert engine._audit(version.state).ok(), version.vid


class TestCommitRule:
    """Every commit's ops are netted, validated and installed against
    the branch head under the engine lock, whatever the head was when
    the transaction began."""

    def test_disjoint_writers_rebase_onto_each_other(self):
        engine = _mk_engine()
        rows = manager_stream(60, 2)
        a = engine.begin().insert("manager", rows[0])
        b = engine.begin().insert("manager", rows[1])  # same base as a
        va = engine.commit(a)
        vb = engine.commit(b)  # stale base, disjoint footprint
        assert (va.vid, vb.vid) == ("v1", "v2")
        assert vb.parent is va
        managers = engine.state().R("manager")
        assert all(any(t["pname"] == r["pname"] for t in managers)
                   for r in rows)
        assert engine.audit().ok()

    def test_footprint_granularity_is_lhs_groups(self):
        engine = _mk_engine()
        plan = engine.plan
        rows = manager_stream(60, 2)
        t1 = engine.begin().insert("manager", rows[0])
        t2 = engine.begin().insert("manager", rows[1])
        c1 = fresh_net_changes(t1, engine.state())
        c2 = fresh_net_changes(t2, engine.state())
        f1, f2 = write_footprint(plan, c1), write_footprint(plan, c2)
        assert f1 and f2 and not (f1 & f2)
        same = engine.begin().insert("manager", rows[0])
        f3 = write_footprint(plan, fresh_net_changes(same, engine.state()))
        assert f1 & f3


class TestSessions:
    def test_snapshot_reads_are_pinned(self):
        engine = _mk_engine()
        session = Session(engine)
        pinned = session.snapshot()
        before = session.read("manager", at=pinned)
        session.commit(
            session.begin().insert("manager", manager_stream(60, 1)[0]))
        assert session.read("manager", at=pinned) == before
        assert len(session.read("manager")) == len(before) + 1

    def test_unknown_branch_fails_fast(self):
        engine = _mk_engine()
        with pytest.raises(StoreError):
            Session(engine, "nope")

    def test_close_releases_pins_and_refuses_new_work(self):
        engine = _mk_engine()
        session = Session(engine)
        pinned = session.pin()
        assert pinned.vid in engine.pinned()
        session.close()
        assert session.closed
        assert not session.pins()
        assert pinned.vid not in engine.pinned()
        session.close()  # idempotent
        with pytest.raises(StoreError, match="closed"):
            session.begin()
        with pytest.raises(StoreError, match="closed"):
            session.commit(Transaction(engine.schema, "main"))

    def test_run_commits_op_records_in_order(self):
        """``run`` takes the WAL/wire op records: an insert and a later
        non-propagating delete of the same row in one call net to the
        insert's projections alone, as the object-level chain does."""
        engine = _mk_engine()
        session = Session(engine)
        base = engine.head_version().state
        row = manager_stream(60, 1)[0]
        version = session.run([
            {"op": "insert", "relation": "manager", "row": row},
            {"op": "delete", "relation": "manager", "row": row,
             "propagate": False},
        ])
        oracle = base.insert("manager", row).delete("manager", row,
                                                    propagate=False)
        assert version.state == oracle
        assert row not in session.read("manager")

    def test_run_refuses_tuple_specs(self):
        """Op records are the only op form: a ``(kind, relation, row)``
        tuple is refused before anything commits."""
        engine = _mk_engine()
        session = Session(engine)
        head = engine.head_version()
        row = manager_stream(60, 1)[0]
        with pytest.raises(StoreError, match="must be an object"):
            session.run([("insert", "manager", row)])
        with pytest.raises(StoreError, match="unknown WAL op kind"):
            session.run([{"kind": "insert", "relation": "manager",
                          "row": row}])
        assert engine.head_version() is head



class TestValidationPlan:
    def test_probe_family_covers_all_checks(self):
        schema, db, constraints = serving_state(30)
        plan = ValidationPlan(db, constraints)
        fam = plan.probe_family
        manager = schema["manager"]
        assert schema["worksfor"].attributes in fam["manager"]
        assert schema["person"].attributes in fam["worksfor"]
        assert manager.attributes in fam["manager"]
        # Each of the four kinds a document can carry compiles on its own.
        records = io.constraints_to_list(ConstraintSet(schema, constraints))
        assert {r["kind"] for r in records} == \
            {"subset", "fd", "cardinality", "participation"}
        for record in records:
            (c,) = io.constraints_from_list(schema, [record]).constraints
            plan = ValidationPlan(db, [c])
            if record["kind"] in ("fd", "cardinality"):
                assert plan.fds
                assert {label for label, *_ in plan.fds} == {c.name}
                for _, context, lhs, _rhs in plan.fds:
                    assert lhs in plan.probe_family[context]
            elif record["kind"] == "participation":
                rel, member = c.relationship, c.member
                assert plan.participations == [
                    (c.name, rel.name, member.name, member.attributes)]
                assert member.attributes in plan.probe_family[rel.name]
            else:
                assert (c.special.name, c.general.name,
                        c.general.attributes) in plan.containment_pairs

    def test_unprobeable_constraint_is_refused_up_front(self, tmp_path,
                                                        monkeypatch):
        """A constraint kind no bounded probe can judge raises the same
        :class:`StoreError` in memory and WAL-backed, before the root
        audit and before any WAL file exists."""
        from repro.core import DomainConstraint

        schema, db, constraints = serving_state(30)
        custom = DomainConstraint("custom", schema["person"], lambda r: True)
        audited = []
        monkeypatch.setattr(StoreEngine, "_audit",
                            lambda self, state: audited.append(state))
        with pytest.raises(StoreError, match="'custom'") as in_memory:
            StoreEngine(db, constraints + [custom])
        wal = tmp_path / "wal"
        with pytest.raises(StoreError) as backed:
            StoreEngine(db, constraints + [custom], wal=wal)
        assert str(backed.value) == str(in_memory.value)
        assert not wal.exists()
        assert audited == []

    def test_ill_typed_fd_is_refused(self):
        """An entity FD whose determinant does not generalise its
        context cannot be judged per commit: the plan refuses it."""
        from repro.core import EntityFD, FunctionalConstraint

        schema, db, constraints = serving_state(30)
        bad = FunctionalConstraint(
            EntityFD(schema["office"], schema["dept"], schema["person"]))
        with pytest.raises(StoreError, match="ill-typed"):
            StoreEngine(db, constraints + [bad])

    def test_matches_checkset_granularity(self):
        """The plan's FD probe sets agree with the lhs grouping the
        kernel CheckSet compiles for the same constraints."""
        from repro.kernel import CheckSet

        schema, db, constraints = serving_state(30)
        plan = ValidationPlan(db, constraints)
        by_context: dict[str, list] = {}
        for _label, context, lhs, rhs in plan.fds:
            by_context.setdefault(context, []).append((lhs, rhs))
        for context, fds in by_context.items():
            inst = db.kernel.instance(context)
            checkset = CheckSet(inst)
            for i, (lhs, rhs) in enumerate(fds):
                checkset.add_fd(i, lhs, rhs)
            assert {inst.indices_of(lhs) for lhs, _ in fds} == \
                set(checkset.lhs_index_sets())


class TestWalReplay:
    def test_wal_is_durable_and_ordered(self, tmp_path):
        path = tmp_path / "store.wal"
        engine = _mk_engine(30, wal=path)
        session = Session(engine)
        for row in manager_stream(30, 3):
            session.commit(session.begin().insert("manager", row))
        engine.close()
        records = wal_records(path)
        assert [r["type"] for r in records] == \
            ["snapshot", "commit", "commit", "commit"]
        assert [r.get("version") for r in records] == \
            ["v0", "v1", "v2", "v3"]

    def test_failed_branch_does_not_poison_wal(self, tmp_path):
        path = tmp_path / "store.wal"
        engine = _mk_engine(30, wal=path)
        engine.branch("dev")
        with pytest.raises(StoreError):
            engine.branch("dev")  # duplicate: refused BEFORE the append
        engine.close()
        replayed = StoreEngine.replay(path)  # log stays replayable
        assert replayed.graph.branches() == engine.graph.branches()

    def test_fresh_engine_refuses_populated_wal(self, tmp_path):
        path = tmp_path / "store.wal"
        engine = _mk_engine(30, wal=path)
        engine.commit(
            engine.begin().insert("manager", manager_stream(30, 1)[0]))
        engine.close()
        with pytest.raises(StoreError):
            _mk_engine(30, wal=path)  # would append a second snapshot

    def test_corrupt_wal_reported(self, tmp_path):
        path = tmp_path / "bad.wal"
        path.write_text('{"type": "snapshot"\nnot json\n')
        with pytest.raises(StoreError):
            wal_records(path)
        empty = tmp_path / "empty.wal"
        empty.write_text("")
        with pytest.raises(StoreError):
            StoreEngine.replay(empty)

    def test_tampered_wal_fails_verify(self, tmp_path):
        path = tmp_path / "store.wal"
        engine = _mk_engine(30, wal=path)
        row = manager_stream(30, 1)[0]
        engine.commit(engine.begin().insert("manager", row))
        engine.close()
        # tamper: break the logged row's worksfor support
        segment = last_segment(path)
        lines = segment.read_text().splitlines()
        lines[1] = lines[1].replace(f'"budget": {row["budget"]}',
                                    f'"budget": {(row["budget"] + 1) % 53}')
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(CommitRejected):
            StoreEngine.replay(path, verify=True)

    @pytest.mark.parametrize("seed", range(25))
    def test_replay_rebuilds_identical_graph(self, seed, tmp_path):
        """The acceptance differential: every replayed version equals
        the original, for trusted and for verified replay, across
        seeded random traffic (25 seeds x ~8+ versions each ~ 200+
        state comparisons)."""
        rng = random.Random(seed)
        from tests.generators import random_database_states

        (schema, db), *_ = random_database_states(rng, rows_per_leaf=2)
        path = tmp_path / "store.wal"
        engine = StoreEngine(db, (), wal=path)
        session = Session(engine)
        for ops in random_txn_specs(rng, db, 14):
            try:
                session.run(ops)
            except CommitRejected:
                pass
        if len(engine.graph) > 3 and rng.random() < 0.5:
            engine.branch("side", at="v1")
            side = Session(engine, "side")
            try:
                side.run(random_txn_specs(rng, db, 1)[0])
            except CommitRejected:
                pass
        engine.close()
        assert len(engine.graph) >= 2, "seed produced no committed traffic"
        for verify in (False, True):
            replayed = StoreEngine.replay(path, verify=verify)
            originals = list(engine.graph.log())
            copies = list(replayed.graph.log())
            assert [v.vid for v in originals] == [v.vid for v in copies]
            for orig, copy in zip(originals, copies):
                assert orig.state == copy.state, (seed, orig.vid)
                assert orig.parent is None or \
                    orig.parent.vid == copy.parent.vid
            assert engine.graph.branches() == replayed.graph.branches()


class TestStoreWithChainCap:
    def test_tiny_chain_cap_store_still_serves(self, monkeypatch):
        """A cap of 2 severs the delta chain constantly; commits,
        audits, and replayed equality must be unaffected."""
        monkeypatch.setattr(extension, "DEFAULT_CHAIN_CAP", 2)
        schema, db, constraints = serving_state(30)
        engine = StoreEngine(db, constraints)
        session = Session(engine)
        for row in manager_stream(30, 4):
            session.commit(session.begin().insert("manager", row))
        assert engine.audit().ok()
        assert len(engine.graph) == 5
