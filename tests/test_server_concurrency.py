"""Server concurrency stress (slow lane): contended commits over real
sockets against the serializability oracle, and a replica staleness
bound under sustained writes.

The claim under test is that putting the wire between clients and the
store changes *nothing* about the concurrency contract: N socket
clients hammering contended commits through the asyncio front end and
its executor threads must leave a graph that
replays serially to the identical state, just
as the in-process threads of ``test_store_concurrency`` do.  On top of
that, a replica tailing the primary's WAL while the writers run must
stay within a byte-staleness bound and converge exactly once the
writers stop.

Also here: clients that disconnect mid-commit over real connections.
"""

import random
import threading

import pytest

from repro.errors import CommitRejected, StoreError
from repro.server import ReplicaEngine, StoreClient, StoreServer
from repro.store import StoreEngine, WriteAheadLog
from repro.workloads import (
    contended_commit_specs,
    disjoint_commit_specs,
    manager_stream,
    random_txn_specs,
    serving_state,
)

from generators import assert_serializable

pytestmark = pytest.mark.slow


def _engine(n, **kwargs):
    schema, db, constraints = serving_state(n)
    return StoreEngine(db, constraints, **kwargs)


def _drive_over_wire(server, per_writer_specs, engine):
    """One socket client per writer, each committing its spec list;
    returns (committed, rejected) with committed read off graph
    growth (per-client attribution races, as in the in-process
    harness)."""
    before = len(engine.graph)
    counts = {"rejected": 0}
    tally = threading.Lock()
    errors = []

    def worker(specs):
        rejected = 0
        try:
            with StoreClient(*server.address) as client:
                for ops in specs:
                    try:
                        client.run(ops)
                    except CommitRejected:
                        rejected += 1
        except Exception as exc:  # pragma: no cover - surfaced below
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


class TestWireSerializability:
    def test_disjoint_writers_over_sockets(self):
        """Footprint-disjoint writers over N connections: every commit
        lands, nothing is rejected, and the graph replays serially."""
        n, writers, per_writer = 120, 4, 8
        engine = _engine(n)
        specs = disjoint_commit_specs(
            manager_stream(n, writers * per_writer), writers)
        with StoreServer(engine, max_connections=writers + 2) as server:
            committed, rejected = _drive_over_wire(server, specs, engine)
        assert (committed, rejected) == (writers * per_writer, 0)
        final = assert_serializable(engine)
        assert final == engine.state()
        assert engine.audit().ok()

    def test_contended_writers_over_sockets(self):
        """Every client races to insert the same rows: each commit
        lands on the head it finds,
        duplicates net to no-ops, and the result equals one serial
        pass."""
        n, writers = 120, 6
        engine = _engine(n)
        rows = manager_stream(n, 10)
        specs = contended_commit_specs(rows, writers)
        with StoreServer(engine) as server:
            committed, rejected = _drive_over_wire(server, specs, engine)
        assert rejected == 0
        assert committed >= len(rows)  # at least one win per row
        managers = engine.state().R("manager")
        assert all(any(t["pname"] == r["pname"] for t in managers)
                   for r in rows)
        assert_serializable(engine)
        assert engine.audit().ok()

    def test_mixed_random_traffic_one_client_per_writer(self):
        """Random mixed transactions, one connection per writer thread
        — rejections are traffic; serializability is the invariant."""
        n, writers = 80, 5
        engine = _engine(n)
        rng = random.Random(11)
        specs = random_txn_specs(rng, engine.state(), 50, ops_per_txn=3)
        shards = [specs[i::writers] for i in range(writers)]
        counts = {"errors": []}

        with StoreServer(engine) as server:
            def worker(shard):
                try:
                    with StoreClient(*server.address) as client:
                        for ops in shard:
                            try:
                                client.run(ops)
                            except (CommitRejected, StoreError):
                                pass  # rejected traffic is traffic
                except Exception as exc:  # pragma: no cover
                    counts["errors"].append(exc)

            threads = [threading.Thread(target=worker, args=(shard,))
                       for shard in shards]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not counts["errors"]
        assert_serializable(engine)
        assert engine.audit().ok()


class TestReplicaUnderLoad:
    def test_staleness_bound_and_convergence(self, tmp_path):
        """While writers hammer the primary, a replica syncing on its
        own cadence must (a) never serve an invalid state — every head
        it exposes is a committed version id of the primary — and (b)
        have bounded byte-staleness at every probe; once the writers
        stop it converges to the primary's exact graph."""
        n, writers = 120, 4
        wal_dir = tmp_path / "wal"
        engine = _engine(
            n, wal=WriteAheadLog(wal_dir, segment_records=16),
            checkpoint_every=12)
        replica = ReplicaEngine(wal_dir, from_checkpoint=False)
        replica.catch_up()

        specs = disjoint_commit_specs(manager_stream(n, 36), writers)
        lag_probes = []
        served_heads = []
        stop = threading.Event()

        def tail():
            while not stop.is_set():
                replica.sync()
                lag_probes.append(replica.behind_bytes())
                served_heads.append(replica.head_version().vid)

        tailer = threading.Thread(target=tail)
        with StoreServer(engine) as server:
            tailer.start()
            committed, rejected = _drive_over_wire(server, specs, engine)
            stop.set()
            tailer.join()
        assert (committed, rejected) == (36, 0)

        # (a) every served head was a real committed primary version
        valid = {v.vid for v in engine.graph.log()}
        assert set(served_heads) <= valid
        # (b) staleness stayed bounded: an actively syncing replica
        # never trails by more than the traffic written since its last
        # poll — a generous cap of a few checkpoint-size records (a
        # checkpoint carries the full document, the largest record).
        assert lag_probes, "tailer never probed"
        assert max(lag_probes) < 256 * 1024
        # the median probe should be tightly behind, not drifting
        assert sorted(lag_probes)[len(lag_probes) // 2] < 64 * 1024

        # convergence after the writers stop
        engine.close()
        replica.catch_up()
        assert replica.behind_bytes() == 0
        assert replica.head_version().vid == engine.head_version().vid
        lefts = list(replica.graph.log())
        rights = list(engine.graph.log())
        assert [v.vid for v in lefts] == [v.vid for v in rights]
        for a, b in zip(lefts, rights):
            assert a.state == b.state, a.vid

    def test_replica_server_reads_during_writes(self, tmp_path):
        """A read-only replica *server* answering wire reads while the
        primary commits: every read succeeds and reflects a committed
        version."""
        n = 100
        wal_dir = tmp_path / "wal"
        engine = _engine(n, wal=WriteAheadLog(wal_dir, segment_records=16),
                         checkpoint_every=10)
        replica = ReplicaEngine(wal_dir, from_checkpoint=False)
        replica.catch_up()
        rows = manager_stream(n, 24)
        specs = disjoint_commit_specs(rows, 3)

        with StoreServer(engine) as primary, \
                StoreServer(replica, sync_interval=0.005) as mirror:
            reads = {"versions": set(), "errors": []}
            stop = threading.Event()

            def reader():
                try:
                    with StoreClient(*mirror.address) as client:
                        while not stop.is_set():
                            _, vid = client.read_at("manager")
                            reads["versions"].add(vid)
                except Exception as exc:  # pragma: no cover
                    reads["errors"].append(exc)

            t = threading.Thread(target=reader)
            t.start()
            committed, rejected = _drive_over_wire(
                primary, specs, engine)
            stop.set()
            t.join()
            assert not reads["errors"]
            assert (committed, rejected) == (len(rows), 0)
            valid = {v.vid for v in engine.graph.log()}
            assert reads["versions"] <= valid

            # after a settle, the replica serves the primary's head
            replica.catch_up()
            with StoreClient(*mirror.address) as client:
                _, vid = client.read_at("manager")
            assert vid == engine.head_version().vid
        engine.close()


class TestDisconnectTeardown:
    def test_disconnect_mid_commit_releases_cleanly(self):
        """Clients that slam the connection shut right after (or while)
        issuing commits must not wedge the server: the server keeps
        serving, and the surviving graph still serializes."""
        n = 120
        engine = _engine(n)
        rows = manager_stream(n, 24)
        with StoreServer(engine) as server:
            for i, row in enumerate(rows):
                client = StoreClient(*server.address)
                client.send_message(
                    {"id": 99, "op": "commit",
                     "ops": [{"op": "insert", "relation": "manager",
                              "row": row}]})
                if i % 2 == 0:
                    client.close()  # vanish without reading the answer
                else:
                    client.recv_message()
                    client.close()
            # the server still serves
            with StoreClient(*server.address) as probe:
                assert probe.ping()
                status = probe.status()
                assert status["counters"]["server.connections"] >= 1
        assert_serializable(engine)
        assert engine.audit().ok()
