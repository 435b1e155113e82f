"""A11 — the wire: loopback commit/read throughput and replica lag.

PR 7 put the store behind a socket; this bench measures what the wire
costs and what the replicas buy:

* ``wire_commits`` — W client threads committing disjoint ``manager``
  inserts over loopback TCP (one ``commit`` round trip each through
  the asyncio front end, commits executing behind the backpressure
  semaphore) against a *fresh* engine+server per round (pedantic mode —
  listener startup is setup, untimed).  ``COMMITS / min_s`` is the
  sustained commits/s through the wire; compare ``bench_a9``'s in-process
  numbers for the protocol's overhead.
* ``wire_reads`` — R client threads reading a relation at the head over
  persistent connections; ``READS / min_s`` is wire reads/s.  The head
  never moves, so after the first read every read is served from the
  server's encoded-rows cache.
* ``wire_reads_after_commit`` — the patched miss: one client commits a
  ``manager`` row and then reads ``manager``, repeatedly, so every read
  finds a new relation version, and the server patches its cached row
  texts with the one row the commit added (the first read of a round
  encodes every row).
* ``replica_tail`` — a fresh :class:`ReplicaEngine` consuming a
  ~100-commit segmented WAL end-to-end (cursor polls + trusted record
  application); the same follow path ``StoreEngine.replay`` uses, plus
  the cursor bookkeeping.
* ``replica_lag_under_writes`` — writers hammer the primary over the
  wire while a replica tails on its own thread; the timed quantity is
  the contended write phase, and the replica's byte-lag distribution is
  asserted bounded (max and median) as the staleness guarantee.

Run with ``--bench-json`` to record timings in ``BENCH_kernel.json``
(the a11 names are part of the guarded kernel set in
``benchmarks/compare_bench.py``).
"""

import threading

import pytest

from repro.server import ReplicaEngine, StoreClient, StoreServer
from repro.store import Session, StoreEngine, WriteAheadLog
from repro.workloads import (
    disjoint_commit_specs,
    manager_stream,
    op_record,
    serving_state,
)

ROWS = 600
WRITERS = 4
COMMITS = 96
READERS = 4
READS = 400
MISSED_READS = 50
TAIL_COMMITS = 100

_STATES: dict[int, tuple] = {}


def state(n: int):
    if n not in _STATES:
        _STATES[n] = serving_state(n)
    return _STATES[n]


def _commit_over_wire(server, specs):
    """Each writer thread owns one connection and commits its shard."""
    errors = []

    def worker(shard):
        try:
            with StoreClient(*server.address) as client:
                for ops in shard:
                    client.run(ops)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(shard,))
               for shard in specs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return server


def test_a11_wire_commits(benchmark):
    """Disjoint commits through the socket front end (commits/s =
    COMMITS / min_s)."""
    schema, db, constraints = state(ROWS)
    specs = disjoint_commit_specs(manager_stream(ROWS, COMMITS), WRITERS)
    engines, servers = [], []

    def fresh():
        engine = StoreEngine(db, constraints)
        server = StoreServer(engine, max_connections=WRITERS + 2)
        server.start_background()
        engines.append(engine)
        servers.append(server)
        return (server, specs), {}

    benchmark.pedantic(_commit_over_wire, setup=fresh,
                       rounds=5, iterations=1)
    for server in servers:
        server.stop()
    assert all(len(e.graph) == COMMITS + 1 for e in engines)
    assert engines[-1].audit().ok()


def test_a11_wire_reads(benchmark):
    """Head reads of the ``manager`` relation over persistent
    connections (reads/s = READS / min_s)."""
    schema, db, constraints = state(ROWS)
    engine = StoreEngine(db, constraints)
    with StoreServer(engine, max_connections=READERS + 2) as server:
        clients = [StoreClient(*server.address) for _ in range(READERS)]
        per_reader = READS // READERS

        def read_batch():
            errors = []

            def worker(client):
                try:
                    for _ in range(per_reader):
                        client.read("manager")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(c,))
                       for c in clients]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise errors[0]

        benchmark(read_batch)
        expect = len(engine.state().R("manager"))
        assert all(len(c.read("manager")) == expect for c in clients)
        for client in clients:
            client.close()


def test_a11_wire_reads_after_commit(benchmark):
    """Commit-then-read pairs over one connection, each read of a new
    ``manager`` version (reads/s = MISSED_READS / min_s, commits
    included), against a fresh engine+server per round."""
    schema, db, constraints = state(ROWS)
    rows = manager_stream(ROWS, MISSED_READS)
    opened = []

    def fresh():
        server = StoreServer(StoreEngine(db, constraints))
        server.start_background()
        client = StoreClient(*server.address)
        opened.append((server, client))
        return (client,), {}

    def commit_then_read(client):
        for row in rows:
            client.run([op_record("insert", "manager", row)])
            assert row in client.read("manager")

    benchmark.pedantic(commit_then_read, setup=fresh,
                       rounds=5, iterations=1)
    for server, client in opened:
        client.close()
        server.stop()


def test_a11_replica_tail(benchmark, tmp_path):
    """A fresh replica consuming a ~100-commit segmented WAL end to
    end: cursor polling plus trusted record application."""
    schema, db, constraints = state(ROWS)
    wal_dir = tmp_path / "wal"
    engine = StoreEngine(
        db, constraints, wal=WriteAheadLog(wal_dir, segment_records=32),
        checkpoint_every=48)
    session = Session(engine)
    for ops in [s for shard in disjoint_commit_specs(
            manager_stream(ROWS, TAIL_COMMITS), 1) for s in shard]:
        session.run(ops)
    engine.close()

    def tail():
        replica = ReplicaEngine(wal_dir, from_checkpoint=False)
        replica.catch_up()
        return replica

    replica = benchmark(tail)
    assert replica.behind_bytes() == 0
    assert replica.head_version().vid == engine.head_version().vid
    assert replica.state() == engine.state()


def test_a11_replica_lag_under_writes(benchmark, tmp_path):
    """The staleness story under sustained wire writes: timed quantity
    is the contended write phase with a replica tailing concurrently;
    the observed byte-lag distribution must stay bounded."""
    schema, db, constraints = state(ROWS)
    lag_samples = []

    def build():
        wal_dir = tmp_path / f"wal{len(lag_samples)}"
        engine = StoreEngine(
            db, constraints,
            wal=WriteAheadLog(wal_dir, segment_records=32),
            checkpoint_every=24)
        server = StoreServer(engine, max_connections=WRITERS + 2)
        server.start_background()
        replica = ReplicaEngine(wal_dir, from_checkpoint=False)
        replica.catch_up()
        specs = disjoint_commit_specs(
            manager_stream(ROWS, COMMITS), WRITERS)
        return (engine, server, replica, specs), {}

    def contended_phase(engine, server, replica, specs):
        samples = []
        stop = threading.Event()

        def tailer():
            while not stop.is_set():
                replica.sync()
                samples.append(replica.behind_bytes())

        t = threading.Thread(target=tailer)
        t.start()
        try:
            _commit_over_wire(server, specs)
        finally:
            stop.set()
            t.join()
        server.stop()
        replica.catch_up()
        assert replica.head_version().vid == engine.head_version().vid
        lag_samples.append(samples)
        return replica

    benchmark.pedantic(contended_phase, setup=build,
                       rounds=3, iterations=1)
    flat = [s for samples in lag_samples for s in samples]
    assert flat, "the tailer never sampled"
    # bounded staleness: never more than a few checkpoint-size records
    # behind, typically tightly caught up
    assert max(flat) < 512 * 1024
    assert sorted(flat)[len(flat) // 2] < 64 * 1024
