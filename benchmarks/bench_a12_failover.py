"""A12 — failover: promotion latency and the kill-and-promote client.

PR 8 closed the availability loop; this bench measures what a failover
event costs:

* ``promotion`` — :func:`repro.server.promote` over a ~100-commit
  segmented WAL whose replica is already caught up (pedantic mode —
  building primary history and tailing it is setup, untimed).  The
  timed quantity is the promotion contract itself: final sync, tail
  repair, the fsynced epoch stamp, and WAL adoption.  ``min_s`` is the
  write-unavailability window a planned failover imposes when the
  replica is current.
* ``promotion_cold`` — the same contract but the replica starts from
  byte zero: bounded above by ``replica_tail`` (bench_a11) plus
  ``promotion``; the realistic worst case for an unprepared standby.
* ``failover_client_commits`` — a :class:`FailoverClient` committing a
  batch through a healthy primary: the candidate-resolution and
  retry-loop overhead on the happy path, directly comparable to
  ``wire_commits``'s raw :class:`StoreClient` numbers.

Run with ``--bench-json`` to record timings in ``BENCH_kernel.json``
(the a12 names are part of the guarded kernel set in
``benchmarks/compare_bench.py``).
"""

from repro.server import (
    FailoverClient,
    ReplicaEngine,
    RetryPolicy,
    StoreServer,
    promote,
)
from repro.store import Session, StoreEngine, WriteAheadLog
from repro.workloads import (
    disjoint_commit_specs,
    manager_stream,
    serving_state,
)

ROWS = 600
HISTORY_COMMITS = 100
CLIENT_COMMITS = 24

_STATES: dict[int, tuple] = {}


def state(n: int):
    if n not in _STATES:
        _STATES[n] = serving_state(n)
    return _STATES[n]


def _build_history(wal_dir):
    """A primary with ~HISTORY_COMMITS commits in a segmented WAL."""
    schema, db, constraints = state(ROWS)
    engine = StoreEngine(
        db, constraints, wal=WriteAheadLog(wal_dir, segment_records=32),
        checkpoint_every=48)
    session = Session(engine)
    for ops in [s for shard in disjoint_commit_specs(
            manager_stream(ROWS, HISTORY_COMMITS), 1) for s in shard]:
        session.run(ops)
    engine.close()
    return engine


def test_a12_promotion(benchmark, tmp_path):
    """Promotion of an already-caught-up replica: the planned-failover
    write-unavailability window."""
    built = []

    def fresh():
        wal_dir = tmp_path / f"wal{len(built)}"
        primary = _build_history(wal_dir)
        replica = ReplicaEngine(wal_dir, from_checkpoint=False)
        replica.catch_up()
        built.append((primary, replica))
        return (replica,), {}

    promoted = benchmark.pedantic(promote, setup=fresh,
                                  rounds=5, iterations=1)
    primary, _ = built[-1]
    assert promoted.epoch == 1
    assert promoted.head_version().vid == primary.head_version().vid
    assert promoted.state() == primary.state()
    promoted.wal.close()


def test_a12_promotion_cold(benchmark, tmp_path):
    """Promotion of a replica starting at byte zero — the tail replay
    is inside the timed window (the unprepared-standby worst case)."""
    built = []

    def fresh():
        wal_dir = tmp_path / f"cold{len(built)}"
        primary = _build_history(wal_dir)
        built.append(primary)
        return (ReplicaEngine(wal_dir, from_checkpoint=False),), {}

    promoted = benchmark.pedantic(promote, setup=fresh,
                                  rounds=5, iterations=1)
    assert promoted.epoch == 1
    assert promoted.head_version().vid == built[-1].head_version().vid
    promoted.wal.close()


def test_a12_failover_client_commits(benchmark):
    """FailoverClient commits against a healthy primary: the resolve-
    and-retry machinery's overhead on the happy path."""
    schema, db, constraints = state(ROWS)
    rows = manager_stream(ROWS, CLIENT_COMMITS)
    engines, servers = [], []

    def fresh():
        engine = StoreEngine(db, constraints)
        server = StoreServer(engine)
        server.start_background()
        engines.append(engine)
        servers.append(server)
        return (server.address,), {}

    def commit_batch(address):
        with FailoverClient([address],
                            policy=RetryPolicy(seed=0)) as client:
            for row in rows:
                client.run([{"op": "insert", "relation": "manager",
                             "row": row, "propagate": True}])
            assert client.epoch == 0
        return address

    benchmark.pedantic(commit_batch, setup=fresh,
                       rounds=5, iterations=1)
    for server in servers:
        server.stop()
    assert all(len(e.graph) == CLIENT_COMMITS + 1 for e in engines)
    for engine in engines:
        engine.close()
