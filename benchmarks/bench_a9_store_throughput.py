"""A9 — store serving throughput: concurrent audited commits.

The serving workload the store exists for: many concurrent sessions
committing small disjoint transactions against a five-relation state
(~n rows per relation), every commit axiom-gated.  Three engines are
timed on the same traffic:

* ``delta`` — the store's own gate: targeted O(|delta|) validation
  against the branch head under the commit lock (:class:`StoreEngine`);
* ``audit`` — the bench-local :class:`AuditEngine`, whose every commit
  derives its candidate and judges it by the full dirty-context
  ``check_all``, serialised behind the commit lock;
* ``seriallock`` — the bench-local :class:`GlobalLockEngine`: each
  commit rebuilds the state through the public constructor and audits
  it cold (the pre-delta behaviour of the library, and the contrast
  target of the acceptance gate: delta must beat it by >= 5x on
  disjoint writers).

Each benchmark round commits a fixed batch of disjoint ``manager``
inserts across ``WRITERS`` threads against a *fresh* engine (pedantic
mode: engine construction — root audit, probe indexes — happens in
setup, untimed), so ``min_s / COMMITS[mode]`` is the per-commit cost
and ``COMMITS[mode] / min_s`` the commits/s the engine sustains.

A second benchmark times WAL replay (trusted mode) of a committed
history and asserts the rebuilt graph equals the original.

Run with ``--bench-json`` to record the timings in ``BENCH_kernel.json``
(the a9 names are part of the guarded kernel set in
``benchmarks/compare_bench.py``).
"""

import threading

import pytest

from repro.core import DatabaseExtension
from repro.store import Session, StoreEngine
from repro.workloads import (
    disjoint_commit_specs,
    manager_stream,
    serving_state,
)

SIZES = [200, 1000]
WRITERS = 8
# Batch sizes per benchmark round, scaled to each mode's per-commit cost
# so a round stays in sensible benchmark territory.
COMMITS = {"delta": 240, "audit": 48, "serial": 4}


def audit_findings(engine: StoreEngine, candidate) -> list[dict]:
    """The full audit of ``candidate`` as commit-rejection findings."""
    return [{"check": "audit", "message": str(f)}
            for f in engine._audit(candidate).findings]


class AuditEngine(StoreEngine):
    """Every commit's derived candidate judged by the full audit."""

    def _validate(self, head_state, changes, index):
        candidate = head_state.apply_changes(
            changes.added, changes.removed, validate=False)
        return audit_findings(self, candidate)


class GlobalLockEngine(StoreEngine):
    """Every commit rebuilt through the public constructor (full
    re-validation) and audited cold."""

    def _validate(self, head_state, changes, index):
        derived = head_state.apply_changes(
            changes.added, changes.removed, validate=True)
        candidate = DatabaseExtension(
            self.schema, {e.name: derived.R(e) for e in self.schema},
            head_state.contributors)
        return audit_findings(self, candidate)


ENGINES = {"delta": StoreEngine, "audit": AuditEngine,
           "serial": GlobalLockEngine}

_STATES: dict[int, tuple] = {}


def state(n: int):
    if n not in _STATES:
        _STATES[n] = serving_state(n)
    return _STATES[n]


def _commit_batch(engine: StoreEngine, specs) -> StoreEngine:
    def worker(shard):
        session = Session(engine)
        for ops in shard:
            session.run(ops)

    threads = [threading.Thread(target=worker, args=(shard,))
               for shard in specs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return engine


def _throughput_case(benchmark, rows: int, mode: str):
    schema, db, constraints = state(rows)
    # Fresh manager slots cap the batch at small sizes (2n/3 available).
    count = min(COMMITS[mode], (2 * rows) // 3 - 2)
    specs = disjoint_commit_specs(manager_stream(rows, count), WRITERS)

    def fresh():
        return (ENGINES[mode](db, constraints), specs), {}

    engine = benchmark.pedantic(_commit_batch, setup=fresh,
                                rounds=5, iterations=1)
    assert len(engine.graph) == count + 1
    assert type(engine) is ENGINES[mode]
    assert engine.audit().ok()


@pytest.mark.parametrize("rows", SIZES)
def test_a9_store_commits_delta(benchmark, rows):
    """Targeted delta gate + optimistic concurrency (the store's mode)."""
    _throughput_case(benchmark, rows, "delta")


@pytest.mark.parametrize("rows", SIZES)
def test_a9_store_commits_audit(benchmark, rows):
    """Full dirty-context audit per commit (the gate's fallback)."""
    _throughput_case(benchmark, rows, "audit")


@pytest.mark.parametrize("rows", SIZES)
def test_a9_store_commits_seriallock(benchmark, rows):
    """Global-lock baseline: constructor rebuild + cold audit per commit."""
    _throughput_case(benchmark, rows, "serial")


@pytest.mark.parametrize("rows", [1000])
def test_a9_wal_replay(benchmark, rows, tmp_path):
    """Trusted replay of a 120-commit WAL back into a full version graph."""
    schema, db, constraints = state(rows)
    path = tmp_path / "a9.wal"
    engine = StoreEngine(db, constraints, wal=path)
    _commit_batch(engine, disjoint_commit_specs(
        manager_stream(rows, 120), WRITERS))
    engine.close()

    replayed = benchmark(StoreEngine.replay, path)
    assert [v.vid for v in replayed.graph.log()] == \
        [v.vid for v in engine.graph.log()]
    assert replayed.state() == engine.state()
