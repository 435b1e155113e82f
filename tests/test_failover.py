"""Failover: promotion, epoch fencing, retry policy, and the
kill-and-promote client — fast typed-contract tests plus the slow
differential suite (every crash offset; seeded chaos workloads).

Slow-lane assertions carry the seed / fault-plan recipe, so a CI chaos
failure is replayed by re-running the printed seed."""

from __future__ import annotations

import shutil
import socket
import time
import warnings
from random import Random

import pytest

from repro.errors import (
    CommitRejected,
    DeadlineExceeded,
    EpochFenced,
    ProtocolError,
    ServerOverloaded,
    StoreError,
    TornTailWarning,
)
from repro.faults import FaultPlan, FaultyWal, InjectedCrash
from repro.io import encode_frame
from repro.server import (
    FailoverClient,
    ReplicaEngine,
    RetryPolicy,
    StoreClient,
    StoreServer,
    promote,
)
from repro.store import Session, StoreEngine, WriteAheadLog
from repro.workloads import manager_stream, serving_state

from generators import assert_graphs_equal, chaos_seeds, last_segment


def _mk_engine(n=30, **kwargs):
    schema, db, constraints = serving_state(n)
    return StoreEngine(db, constraints, **kwargs)


def _commit_rows(engine, rows, branch="main"):
    session = Session(engine, branch)
    return [session.commit(session.begin().insert("manager", row))
            for row in rows]


# ----------------------------------------------------------------------
# promotion & fencing
# ----------------------------------------------------------------------
class TestPromotion:
    def test_promote_stamps_the_next_epoch(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 3))
        replica = ReplicaEngine(wal)
        promoted = promote(replica)
        assert promoted.epoch == 1
        assert promoted.describe()["epoch"] == 1
        assert_graphs_equal(promoted, primary)
        # The promoted engine serves writes under the new epoch.
        _commit_rows(promoted, manager_stream(30, 4)[3:])
        assert promoted.graph.seq == primary.graph.seq + 1

    def test_demoted_primary_append_is_fenced(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        promote(ReplicaEngine(wal))
        with pytest.raises(EpochFenced) as caught:
            _commit_rows(primary, manager_stream(30, 3)[2:])
        assert caught.value.held == 0
        assert caught.value.current == 1

    def test_promoted_replica_stops_tailing_itself(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        replica = ReplicaEngine(wal)
        promote(replica)
        with pytest.raises(EpochFenced):
            replica.sync()
        with pytest.raises(EpochFenced):
            replica.resync()
        assert replica.status()["promoted"] is True

    def test_tracking_follower_crosses_the_epoch(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        follower = ReplicaEngine(wal)
        follower.sync()
        promoted = promote(ReplicaEngine(wal))
        _commit_rows(promoted, manager_stream(30, 3)[2:])
        follower.sync()
        assert follower.engine.epoch == 1
        assert_graphs_equal(follower.engine, promoted)

    def test_live_tail_refuses_promotion(self, tmp_path):
        """A log that keeps growing after catch-up means the old
        primary is alive — promotion must refuse, not fork."""
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        replica = ReplicaEngine(wal)
        replica.sync()
        real_catch_up = replica.catch_up

        def racing_catch_up(**kwargs):
            result = real_catch_up(**kwargs)
            _commit_rows(primary, manager_stream(30, 3)[2:])
            return result

        replica.catch_up = racing_catch_up
        with pytest.raises(StoreError, match="appears to be alive"):
            promote(replica)
        assert replica.promoted is False

    def test_promotion_race_loser_is_fenced_and_resumes(self, tmp_path):
        """The TOCTOU window: a second promoter frozen between its
        catch-up and its stamp must lose to the winner's stamp, roll
        back its promoted mark, and resume following."""
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        loser = ReplicaEngine(wal)
        loser.sync()  # bootstrapped at epoch 0

        # Freeze the loser's view of the log...
        loser.sync = lambda max_records=None: 0
        loser.catch_up = lambda **kwargs: None
        loser.behind_bytes = lambda: 0
        # ...while the winner stamps epoch 1.
        winner = promote(ReplicaEngine(wal))
        assert winner.epoch == 1

        with pytest.raises(EpochFenced) as caught:
            promote(loser)
        assert caught.value.held == 0 and caught.value.current == 1
        assert loser.promoted is False  # rolled back: free to follow
        del loser.sync  # unfreeze (restore the class methods)
        del loser.catch_up, loser.behind_bytes
        loser.sync()
        assert loser.engine.epoch == 1
        assert_graphs_equal(loser.engine, winner)

    def test_double_promotion_advances_the_epoch_again(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        first = promote(ReplicaEngine(wal))
        _commit_rows(first, manager_stream(30, 3)[2:])
        second = promote(ReplicaEngine(wal))
        assert second.epoch == 2
        with pytest.raises(EpochFenced):
            _commit_rows(first, manager_stream(30, 4)[3:])

    def test_epoch_survives_restart_and_replay(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        promoted = promote(ReplicaEngine(wal))
        _commit_rows(promoted, manager_stream(30, 3)[2:])
        promoted.wal.close()
        replayed = StoreEngine.replay(wal)
        assert replayed.epoch == 1
        assert_graphs_equal(replayed, promoted)


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
class _NoSleep(RetryPolicy):
    """Records each backoff instead of sleeping; ``on_sleep`` runs
    after each one (a test's hook for healing the cluster)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.slept = []
        self.on_sleep = None

    def sleep(self, delay):
        self.slept.append(delay)
        if self.on_sleep is not None:
            self.on_sleep()


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        for exc in (OSError("x"), ConnectionResetError("x"),
                    ProtocolError("x"), ServerOverloaded("x")):
            assert policy.retryable(exc), exc
        for exc in (CommitRejected("x", findings=[]), StoreError("x"),
                    ValueError("x"),
                    EpochFenced("x", held=0, current=1)):
            assert not policy.retryable(exc), exc

    def test_seeded_delays_are_deterministic_and_bounded(self):
        a = RetryPolicy(seed=7, base_delay=0.01, max_delay=0.5)
        b = RetryPolicy(seed=7, base_delay=0.01, max_delay=0.5)
        prev_a = prev_b = None
        for _ in range(20):
            prev_a, prev_b = a.next_delay(prev_a), b.next_delay(prev_b)
            assert prev_a == prev_b
            assert 0.01 <= prev_a <= 0.5

    def test_retries_until_success(self):
        """FailoverClient's loop backs off along the policy's own
        seeded sequence, once per failure, until a primary answers."""
        engine = _mk_engine()
        row = manager_stream(30, 1)[0]
        policy = _NoSleep(seed=0, base_delay=0.01, max_delay=0.5)
        with StoreServer(engine) as server:
            with FailoverClient([("127.0.0.1", 1)], policy=policy,
                                timeout=0.5) as fc:
                def heal():
                    if len(policy.slept) == 3:
                        fc.add_address(server.address)
                policy.on_sleep = heal
                assert fc.run([{"op": "insert", "relation": "manager",
                                "row": row}])["version"]
                counters = fc.metrics.snapshot()["counters"]
                assert counters["failover.retries"] == 3
        reference = RetryPolicy(seed=0, base_delay=0.01, max_delay=0.5)
        expected, delay = [], None
        for _ in range(3):
            delay = reference.next_delay(delay)
            expected.append(delay)
        assert policy.slept == expected
        engine.close()

    def test_deadline_exceeded_chains_the_last_failure(self):
        """A backoff that would overrun the deadline is never slept:
        the loop raises at once, chained to the failure behind it."""
        fc = FailoverClient([("127.0.0.1", 1)],  # nothing listens here
                            policy=RetryPolicy(base_delay=5.0,
                                               max_delay=5.0, seed=0),
                            deadline=0.05, timeout=0.2)
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded) as caught:
            fc.run([{"op": "insert", "relation": "manager",
                     "row": manager_stream(30, 1)[0]}])
        assert time.monotonic() - start < 1.0  # never slept 5 s
        assert isinstance(caught.value.__cause__, OSError)
        assert fc.metrics.snapshot()["counters"]["failover.retries"] == 0
        fc.close()

    def test_epoch_fenced_is_fatal_to_the_bare_policy(self):
        """The bare policy never retries a fence; FailoverClient
        re-resolves past each one until its deadline, counting them."""
        policy = RetryPolicy(seed=0, base_delay=0.01, max_delay=0.05)
        assert not policy.retryable(EpochFenced("x", held=0, current=1))
        engine = _mk_engine()
        with StoreServer(engine) as server:  # serves epoch 0
            with FailoverClient([server.address], policy=policy,
                                deadline=0.3, timeout=0.5) as fc:
                fc.epoch = 1  # the client has seen a promotion
                with pytest.raises(DeadlineExceeded) as caught:
                    fc.run([{"op": "insert", "relation": "manager",
                             "row": manager_stream(30, 1)[0]}])
                assert isinstance(caught.value.__cause__, EpochFenced)
                counters = fc.metrics.snapshot()["counters"]
                assert counters["failover.retries"] >= 1
                assert (counters["failover.fenced"]
                        == counters["failover.retries"] + 1)
                assert fc.epoch == 1
        engine.close()


# ----------------------------------------------------------------------
# the wire: epochs in hello/status, fencing over the protocol
# ----------------------------------------------------------------------
class TestWireEpoch:
    def test_hello_and_status_carry_the_epoch(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        promoted = promote(ReplicaEngine(wal))
        with StoreServer(promoted) as server:
            with StoreClient(*server.address) as client:
                assert client.server_info["epoch"] == 1
                status = client.status()
                assert status["epoch"] == 1
                assert status["counters"]["server.idle_closed"] == 0

    def test_fenced_commit_crosses_the_wire_typed(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        with StoreServer(primary) as server:  # serving while demoted
            promote(ReplicaEngine(wal))
            with StoreClient(*server.address) as client:
                with pytest.raises(EpochFenced) as caught:
                    client.run([{"op": "insert", "relation": "manager",
                                 "row": manager_stream(30, 3)[2]}])
        assert caught.value.held == 0
        assert caught.value.current == 1

    def test_replica_status_reports_epoch_and_promoted(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        replica = ReplicaEngine(wal)
        replica.sync()
        with StoreServer(replica) as server:
            with StoreClient(*server.address) as client:
                status = client.status()
        assert status["role"] == "replica"
        assert status["epoch"] == 0
        assert status["promoted"] is False
        assert status["behind_bytes"] == 0


# ----------------------------------------------------------------------
# idle timeout
# ----------------------------------------------------------------------
class TestIdleTimeout:
    def test_rejects_non_positive_timeout(self):
        engine = _mk_engine()
        with pytest.raises(StoreError):
            StoreServer(engine, idle_timeout=0)
        with pytest.raises(StoreError):
            StoreServer(engine, idle_timeout=-1.0)
        engine.close()

    def test_idle_connection_is_closed_and_counted(self):
        engine = _mk_engine()
        with StoreServer(engine, idle_timeout=0.15) as server:
            idle = StoreClient(*server.address)
            deadline = time.monotonic() + 5.0
            while True:
                with StoreClient(*server.address) as probe:
                    if probe.status()["counters"][
                            "server.idle_closed"] >= 1:
                        break
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert idle.is_stale()  # server hung up on the idler
            idle.close()
        engine.close()

    def test_byte_dribbling_client_is_closed_and_counted(self):
        """The bound is on the next *complete* frame, not the next read:
        a client sending one frame a byte every 0.1s under a 0.2s bound
        is closed before the frame completes."""
        engine = _mk_engine()
        frame = encode_frame({"op": "ping"})
        with StoreServer(engine, idle_timeout=0.2) as server:
            with socket.create_connection(server.address,
                                          timeout=5.0) as sock:
                try:
                    for i in range(len(frame)):
                        sock.sendall(frame[i:i + 1])
                        time.sleep(0.1)
                    tail = sock.recv(1)
                except (ConnectionResetError, BrokenPipeError):
                    tail = b""
                assert tail == b""  # hung up before the pong
            with StoreClient(*server.address) as probe:
                assert probe.status()["counters"][
                    "server.idle_closed"] == 1
        engine.close()

    def test_active_connection_survives_the_timeout(self):
        engine = _mk_engine()
        with StoreServer(engine, idle_timeout=0.2) as server:
            with StoreClient(*server.address) as client:
                for _ in range(4):
                    time.sleep(0.1)
                    assert client.ping()  # traffic resets the clock
        engine.close()


# ----------------------------------------------------------------------
# the failover client
# ----------------------------------------------------------------------
class TestFailoverClient:
    def test_requires_addresses(self):
        with pytest.raises(StoreError):
            FailoverClient([])

    def test_refuses_a_stale_epoch_primary(self):
        engine = _mk_engine()
        with StoreServer(engine) as server:  # serves epoch 0
            with FailoverClient([server.address]) as fc:
                fc.epoch = 1  # the client has seen a promotion
                with pytest.raises(EpochFenced) as caught:
                    fc._primary()
                assert caught.value.held == 0
                assert caught.value.current == 1
        engine.close()

    def test_writes_and_reads_against_a_healthy_primary(self):
        engine = _mk_engine()
        rows = manager_stream(30, 2)
        with StoreServer(engine) as server:
            with FailoverClient([server.address]) as fc:
                result = fc.run([{"op": "insert", "relation": "manager",
                                  "row": rows[0]}])
                assert result["version"]
                assert fc.epoch == 0
                assert rows[0] in fc.read("manager")
                assert fc.heartbeat() is True
        engine.close()

    def test_heartbeat_detects_a_dead_primary(self):
        engine = _mk_engine()
        server = StoreServer(engine)
        server.start_background()
        fc = FailoverClient([server.address])
        assert fc.heartbeat() is False  # no connection yet
        fc._primary()
        assert fc.heartbeat() is True
        server.stop()
        assert fc.heartbeat() is False  # dropped, will re-resolve
        fc.close()
        engine.close()

    def test_read_degrades_to_a_fresh_replica(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        engine = _mk_engine(wal=wal)
        rows = manager_stream(30, 1)
        _commit_rows(engine, rows)
        replica = ReplicaEngine(wal)
        replica.sync()
        primary = StoreServer(engine)
        primary.start_background()
        with StoreServer(replica) as mirror:
            fc = FailoverClient([primary.address, mirror.address],
                                staleness_budget=0,
                                policy=RetryPolicy(seed=0),
                                timeout=1.0)
            assert rows[0] in fc.read("manager")  # via the primary
            primary.stop()
            assert rows[0] in fc.read("manager")  # via the replica
            counters = fc.metrics.snapshot()["counters"]
            assert counters["balancer.fallbacks.stale"] == 1
            fc.close()
        engine.close()

    def test_degraded_read_holds_the_staleness_budget(self, tmp_path):
        """Primary dead, the only replica lagging: a zero budget
        refuses the stale answer, an unbounded one serves it."""
        wal = tmp_path / "w.jsonl"
        engine = _mk_engine(wal=wal)
        rows = manager_stream(30, 2)
        _commit_rows(engine, rows[:1])
        replica = ReplicaEngine(wal)
        replica.sync()
        _commit_rows(engine, rows[1:])  # the replica never sees this
        engine.close()
        with StoreServer(replica, sync_interval=0) as mirror:
            addresses = [("127.0.0.1", 1), mirror.address]  # dead, stale
            with FailoverClient(addresses, staleness_budget=0,
                                timeout=0.5) as fc:
                with pytest.raises(StoreError):
                    fc.read("manager")
            with FailoverClient(addresses, staleness_budget=None,
                                timeout=0.5) as fc:
                head = fc.read("manager")
        assert rows[0] in head and rows[1] not in head

    def test_degraded_read_never_lands_on_a_primary(self):
        engine = _mk_engine()
        _commit_rows(engine, manager_stream(30, 1))
        with StoreServer(engine) as server:
            with FailoverClient([server.address], timeout=0.5) as fc:
                fc.epoch = 1  # resolution now fences the live primary
                with pytest.raises(EpochFenced):
                    fc.read("manager")
                counters = fc.metrics.snapshot()["counters"]
                assert counters["balancer.fallbacks.stale"] == 0
        engine.close()

    def test_rejected_commit_surfaces_on_the_first_attempt(self):
        engine = _mk_engine()
        policy = _NoSleep(seed=0)
        with StoreServer(engine) as server:
            with FailoverClient([server.address], policy=policy) as fc:
                with pytest.raises(CommitRejected):
                    fc.run([{"op": "insert", "relation": "worksfor",
                             "row": {"pname": 9, "dname": 8,
                                     "budget": 50, "role": 1},
                             "propagate": False}])
        assert policy.slept == []
        engine.close()

    def test_retries_until_a_primary_appears(self):
        """The first backoff lists a live primary; the retry lands."""
        engine = _mk_engine()
        row = manager_stream(30, 1)[0]
        policy = _NoSleep(seed=0)
        with StoreServer(engine) as server:
            with FailoverClient([("127.0.0.1", 1)], policy=policy,
                                timeout=0.5) as fc:
                policy.on_sleep = lambda: fc.add_address(server.address)
                assert fc.run([{"op": "insert", "relation": "manager",
                                "row": row}])["version"]
                assert row in fc.read("manager")
        assert len(policy.slept) == 1
        engine.close()

    def test_write_deadline_lapses_with_cause_when_no_primary(self):
        engine = _mk_engine()
        replica_like = StoreServer(engine)  # never started: dead addr
        fc = FailoverClient([("127.0.0.1", 1)],  # nothing listens here
                            policy=RetryPolicy(
                                seed=0, base_delay=0.01, max_delay=0.05),
                            deadline=0.3, timeout=0.2)
        with pytest.raises(DeadlineExceeded) as caught:
            fc.run([{"op": "insert", "relation": "manager",
                     "row": manager_stream(30, 1)[0]}])
        assert caught.value.__cause__ is not None
        fc.close()
        engine.close()


# ----------------------------------------------------------------------
# the slow lane: differential promotion durability & chaos workloads
# ----------------------------------------------------------------------
def _expected_from(path, tmp_path, tag):
    """Replay a *copy* of the log (promotion repairs in place)."""
    copy = tmp_path / f"expected-{tag}.jsonl"
    shutil.copytree(path, copy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TornTailWarning)
        return StoreEngine.replay(copy)


@pytest.mark.slow
class TestPromotionDurability:
    def test_every_crash_offset_of_the_wal_tail(self, tmp_path):
        """Crash the primary at every byte offset of its final WAL
        record; promotion must produce exactly the durable prefix —
        the whole final record or none of it, plus epoch 1."""
        source = tmp_path / "source.jsonl"
        engine = _mk_engine(n=12, wal=source)
        _commit_rows(engine, manager_stream(12, 3))
        engine.close()
        segment = last_segment(source)
        data = segment.read_bytes()
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last_start + 1, len(data)):
            wal = tmp_path / f"cut-{cut}.jsonl"
            wal.mkdir()
            (wal / segment.name).write_bytes(data[:cut])
            expected = _expected_from(wal, tmp_path, f"cut-{cut}")
            promoted = promote(ReplicaEngine(wal))
            assert promoted.epoch == 1, f"cut at byte {cut}"
            assert promoted.graph.branches() \
                == expected.graph.branches(), f"cut at byte {cut}"
            assert len(promoted.graph) == len(expected.graph), \
                f"cut at byte {cut}"
            assert promoted.state() == expected.state(), \
                f"cut at byte {cut}"
            # The promoted engine accepts writes over the repaired log.
            _commit_rows(promoted, manager_stream(12, 4)[3:])
            promoted.wal.close()

    def test_seeded_crash_differential(self, tmp_path):
        """25 seeds of live fault injection: a seeded crash shape at a
        seeded commit, power loss, then promote — the promoted graph
        must equal a plain replay of the durable prefix."""
        for seed in chaos_seeds(25):
            rng = Random(seed)
            site = rng.choice(["wal.torn", "wal.short", "wal.fsync_loss"])
            index = rng.randrange(0, 6)
            plan = FaultPlan(seed=seed, trips={site: {index: None}})
            wal = tmp_path / f"seed-{seed}.jsonl"
            engine = _mk_engine(n=30, wal=wal)
            engine.wal = FaultyWal(engine.wal, plan)
            try:
                _commit_rows(engine, manager_stream(30, 7))
            except InjectedCrash:
                pass
            engine.wal.simulate_power_loss()
            expected = _expected_from(wal, tmp_path, f"seed-{seed}")
            promoted = promote(ReplicaEngine(wal))
            recipe = f"seed={seed} plan={plan.describe()}"
            assert promoted.epoch == 1, recipe
            assert promoted.graph.branches() \
                == expected.graph.branches(), recipe
            assert len(promoted.graph) == len(expected.graph), recipe
            for name in expected.graph.branches():
                assert promoted.state(branch=name) \
                    == expected.state(branch=name), recipe
            promoted.wal.close()


@pytest.mark.slow
class TestKillAndPromoteWorkload:
    def test_no_acked_commit_is_ever_lost(self, tmp_path):
        """The acceptance workload, three seeds: write through a
        primary, kill it, promote the replica, write through the
        successor — every acknowledged commit must be in the promoted
        graph."""
        for i, seed in enumerate(chaos_seeds(3)):
            wal = tmp_path / f"w-{seed}.jsonl"
            engine = _mk_engine(n=60, wal=wal)
            replica = ReplicaEngine(wal)
            replica.sync()
            rows = manager_stream(60, 9)
            acked = []
            primary = StoreServer(engine)
            primary.start_background()
            fc = FailoverClient(
                [primary.address],
                policy=RetryPolicy(seed=seed, base_delay=0.01,
                                   max_delay=0.1),
                deadline=15.0, timeout=2.0)
            base = i * 3
            acked.append((rows[base],
                          fc.run([{"op": "insert", "relation": "manager",
                                   "row": rows[base]}])))
            primary.stop()  # the kill
            replica.sync()  # the tail was durable before the kill
            promoted = promote(replica)
            with StoreServer(promoted) as successor:
                fc.add_address(successor.address)
                for row in rows[base + 1:base + 3]:
                    acked.append((row, fc.run([{
                        "op": "insert", "relation": "manager",
                        "row": row}])))
                assert fc.epoch == 1, f"seed={seed}"
                head = fc.read("manager")
            fc.close()
            for row, result in acked:
                assert row in head, (
                    f"acked commit lost: seed={seed} "
                    f"version={result['version']}")
            promoted.wal.close()
            engine.close()
