"""Concurrency tests: N writer threads against one store.

The serializability oracle: after the threads finish, re-apply every
committed version's logged operations *single-threaded*, in commit
order, and demand the identical state at every version — which is
exactly the claim of the one commit rule (every commit's ops are
netted, validated and installed against the branch head under the
engine lock, so the log *is* a serial schedule).

The quick test runs in tier-1; the heavier mixes and the
delta-vs-global-lock throughput gate live in the slow lane
(``-m slow``, wired into CI's slow job).  The gate's baseline is the
test-local :class:`GlobalLockEngine`, a :class:`StoreEngine` whose
commit gate rebuilds and cold-audits every candidate.
"""

import random
import threading
import time

import pytest

from repro.core import DatabaseExtension
from repro.errors import CommitRejected
from repro.store import Session, StoreEngine
from repro.workloads import (
    contended_commit_specs,
    disjoint_commit_specs,
    manager_stream,
    random_txn_specs,
    serving_state,
)

from generators import (
    assert_serializable,
    random_database_states,
    wal_records,
)


class GlobalLockEngine(StoreEngine):
    """The global-lock baseline of the throughput gate: every commit
    rebuilds its candidate through the public constructor (full
    re-validation) and audits it cold, the pre-delta behaviour of the
    library."""

    def _validate(self, head_state, changes, index):
        derived = head_state.apply_changes(
            changes.added, changes.removed, validate=True)
        candidate = DatabaseExtension(
            self.schema, {e.name: derived.R(e) for e in self.schema},
            head_state.contributors)
        return [{"check": "audit", "message": str(f)}
                for f in self._audit(candidate).findings]


def _engine(n, **kwargs):
    schema, db, constraints = serving_state(n)
    return StoreEngine(db, constraints, **kwargs)


def _drive(engine, per_writer_specs):
    """Run each writer's commit specs in its own thread; returns
    (committed, rejected) counts.  The committed count is read off
    graph growth — under concurrency a no-op commit returns a head
    another writer may have just advanced, so per-thread attribution
    would race."""
    before = len(engine.graph)
    counts = {"rejected": 0}
    tally = threading.Lock()
    errors = []

    def worker(specs):
        session = Session(engine)
        rejected = 0
        for ops in specs:
            try:
                session.run(ops)
            except CommitRejected:
                rejected += 1
            except Exception as exc:  # surfaced below, not swallowed
                errors.append(exc)
                return
        with tally:
            counts["rejected"] += rejected

    threads = [threading.Thread(target=worker, args=(specs,))
               for specs in per_writer_specs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return len(engine.graph) - before, counts["rejected"]


class TestDisjointWriters:
    def test_all_commit_and_serialize(self):
        n, writers, per_writer = 120, 4, 10
        engine = _engine(n)
        specs = disjoint_commit_specs(
            manager_stream(n, writers * per_writer), writers)
        committed, rejected = _drive(engine, specs)
        assert (committed, rejected) == (writers * per_writer, 0)
        assert len(engine.graph) == committed + 1
        final = assert_serializable(engine)
        assert final == engine.state()
        assert engine.audit().ok()


class TestCommitRule:
    """The differential form of the one commit rule: a transaction
    buffered before k other commits lands exactly as the same ops
    buffered at the head would."""

    @staticmethod
    def _moving_history(rng, db, count):
        """At least ``count`` random transactions, drawn until one of them
        commits — so the head the early transaction began at moves."""
        engine = StoreEngine(db, ())
        session = Session(engine)
        history = []
        while len(history) < count or len(engine.graph) == 1:
            assert len(history) < 100, "no random commit landed"
            ops = random_txn_specs(rng, db, 1)[0]
            history.append(ops)
            try:
                session.run(ops)
            except CommitRejected:
                pass
        return history

    @pytest.mark.parametrize("seed", range(24))
    def test_early_transaction_equals_head_transaction(self, seed,
                                                       tmp_path):
        rng = random.Random(seed)
        (_, db), *_ = random_database_states(rng, rows_per_leaf=2)
        probe = random_txn_specs(rng, db, 1)[0]
        others = self._moving_history(rng, db, rng.randint(1, 8))
        runs = {}
        for mode in ("early", "head"):
            wal = tmp_path / mode
            engine = StoreEngine(db, (), wal=wal)
            session = Session(engine)
            txn = engine.begin().apply_records(probe) \
                if mode == "early" else None
            for ops in others:
                try:
                    session.run(ops)
                except CommitRejected:
                    pass
            assert len(engine.graph) > 1, "no other commit landed"
            if txn is None:
                txn = engine.begin().apply_records(probe)
            try:
                outcome = engine.commit(txn).vid
            except CommitRejected as exc:
                outcome = sorted(map(repr, exc.findings))
            engine.close()
            assert_serializable(engine)
            runs[mode] = (outcome, engine.state(),
                          wal_records(wal))
        assert runs["early"] == runs["head"], (seed, probe)


@pytest.mark.slow
class TestStress:
    def test_contended_writers_serialize(self):
        """Every writer races to insert the same rows: duplicates net to
        no-ops, colliding commits land on the head in turn, and the
        result must equal one serial pass."""
        n, writers = 120, 6
        engine = _engine(n)
        rows = manager_stream(n, 12)
        committed, rejected = _drive(
            engine, contended_commit_specs(rows, writers))
        assert rejected == 0
        assert committed >= len(rows)  # at least one win per row
        managers = engine.state().R("manager")
        assert all(any(t["pname"] == r["pname"] for t in managers)
                   for r in rows)
        assert_serializable(engine)
        assert engine.audit().ok()

    def test_mixed_random_traffic_serializes(self):
        n, writers = 80, 5
        engine = _engine(n)
        rng = random.Random(7)
        specs = random_txn_specs(rng, engine.state(), 60, ops_per_txn=3)
        committed, rejected = _drive(
            engine, [specs[i::writers] for i in range(writers)])
        assert committed + rejected > 0
        assert_serializable(engine)
        assert engine.audit().ok()

    def test_disjoint_and_conflicting_mix_with_wal(self, tmp_path):
        n, writers = 120, 4
        path = tmp_path / "stress.wal"
        engine = _engine(n, wal=path)
        rows = manager_stream(n, 24)
        disjoint = disjoint_commit_specs(rows[:16], writers)
        contended = contended_commit_specs(rows[16:], writers)
        mixed = [d + c for d, c in zip(disjoint, contended)]
        _drive(engine, mixed)
        assert_serializable(engine)
        engine.close()
        replayed = StoreEngine.replay(path, verify=True)
        assert replayed.state() == engine.state()

    def test_throughput_disjoint_delta_vs_global_lock(self):
        """The acceptance gate: concurrent disjoint-writer commits
        through the delta gate must beat the global-lock baseline
        (:class:`GlobalLockEngine`: constructor rebuild + cold audit)
        by >= 5x at 1000 rows/relation.
        The real margin is orders of magnitude; 5x keeps the assertion
        robust on loaded CI machines."""
        n, writers = 1000, 4
        rows = manager_stream(n, 64)

        delta_engine = _engine(n)
        specs = disjoint_commit_specs(rows, writers)
        start = time.perf_counter()
        committed, _ = _drive(delta_engine, specs)
        delta_rate = committed / (time.perf_counter() - start)
        assert committed == len(rows)
        assert delta_engine.audit().ok()

        _, db, constraints = serving_state(n)
        serial_engine = GlobalLockEngine(db, constraints)
        serial_rows = rows[:6]  # each commit costs a full rebuild+audit
        start = time.perf_counter()
        committed, _ = _drive(
            serial_engine, disjoint_commit_specs(serial_rows, writers))
        serial_rate = committed / (time.perf_counter() - start)
        assert committed == len(serial_rows)

        assert delta_rate >= 5 * serial_rate, (delta_rate, serial_rate)
