"""Observability: instruments, tracing, and telemetry over the wire.

Four layers under test.  The instruments themselves (``repro.obs``)
must be exact — bucket boundaries, conservative percentiles, counters
that survive 8 threads hammering them (an increment dropped under
concurrency would silently undercount forever).  The commit pipeline
must time its phases and gate the slow-commit log on an injectable
clock, so the gating is a pure function of fake time.  The wire must
serve it all: the ``metrics`` op returns the registry snapshot plus
slow commits and traces, ``status`` responses of both roles round-trip
through :func:`validate_status`, and the thin-view properties keep the
pre-registry attribute names readable.  Finally, observability must
survive promotion: a replica's engine keeps its instruments when it
becomes the primary.
"""

from __future__ import annotations

import threading
from math import isclose

import pytest

from repro.errors import ProtocolError
from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
)
from repro.obs.trace import TRACE_RING
from repro.server import (
    ReadBalancer,
    ReplicaEngine,
    StoreClient,
    StoreServer,
    promote,
    status_payload,
    validate_status,
)
from repro.store import Session, StoreEngine, WriteAheadLog
from repro.store.engine import SLOW_COMMIT_LOG
from repro.workloads import manager_stream, serving_state


def _mk_engine(n=30, **kwargs):
    schema, db, constraints = serving_state(n)
    return StoreEngine(db, constraints, **kwargs)


def _commit_rows(engine, rows):
    session = Session(engine, "main")
    return [session.commit(session.begin().insert("manager", row))
            for row in rows]


class FakeClock:
    """Advances a fixed step per call — commit phase timings become a
    pure function of how many timestamps the pipeline takes."""

    def __init__(self, step=0.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
class TestHistogram:
    def test_empty_percentiles_are_none(self):
        h = Histogram("h")
        assert h.percentile(50) is None
        summary = h.summary()
        assert summary["count"] == 0
        assert summary["p50"] is None and summary["max"] is None

    def test_single_observation_pins_every_percentile(self):
        h = Histogram("h")
        h.observe(0.0003)
        # 0.0003 lands in the 500us bucket; every percentile reports
        # that bucket's upper bound.
        for q in (1, 50, 95, 99, 100):
            assert h.percentile(q) == 500e-6
        assert h.summary()["min"] == h.summary()["max"] == 0.0003

    def test_boundary_value_lands_in_its_own_bucket(self):
        """An observation exactly at a bound belongs to that bucket,
        not the next one up."""
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(2.0)
        assert h.percentile(50) == 2.0

    def test_overflow_reports_the_observed_maximum(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(17.5)
        # Past the last bound the percentile is the exact observed max,
        # not a clamped bound.
        assert h.percentile(99) == 17.5
        assert h.summary()["max"] == 17.5

    def test_percentiles_are_conservative_upper_bounds(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 0.6, 1.5, 3.0):
            h.observe(value)
        # Ranks: p50 -> 2nd sample (bucket 1.0), p75 -> 3rd (2.0),
        # p100 -> 4th (4.0).
        assert h.percentile(50) == 1.0
        assert h.percentile(75) == 2.0
        assert h.percentile(100) == 4.0
        assert isclose(h.summary()["sum"], 5.6)

    def test_default_buckets_are_sorted_and_span_the_gate(self):
        assert DEFAULT_BUCKETS == tuple(sorted(DEFAULT_BUCKETS))
        assert DEFAULT_BUCKETS[0] <= 50e-6   # resolves the commit gate
        assert DEFAULT_BUCKETS[-1] >= 1.0    # covers fsync stalls

    def test_rejects_empty_bucket_ladder(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.gauge("g") is r.gauge("g")
        assert r.histogram("h") is r.histogram("h")

    def test_snapshot_is_json_shaped_and_sorted(self):
        r = MetricsRegistry()
        r.counter("z").inc(3)
        r.counter("a").inc()
        r.gauge("lvl").set(2.5)
        r.histogram("lat").observe(0.001)
        snap = r.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["counters"]["z"] == 3
        assert snap["gauges"]["lvl"] == 2.5
        assert snap["histograms"]["lat"]["count"] == 1

    def test_eight_threads_against_a_serial_oracle(self):
        """8 threads x 5000 updates per instrument; the totals must be
        *exact* — a single dropped increment fails this."""
        r = MetricsRegistry()
        c, g, h = r.counter("c"), r.gauge("g"), r.histogram("h")
        threads, per = 8, 5000

        def hammer():
            for i in range(per):
                c.inc()
                g.inc(2.0)
                h.observe((i % 7) * 1e-4)

        workers = [threading.Thread(target=hammer)
                   for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert c.value == threads * per
        assert g.value == 2.0 * threads * per
        assert h.count == threads * per
        oracle = sum((i % 7) * 1e-4 for i in range(per)) * threads
        assert isclose(h.summary()["sum"], oracle)


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_spans_nest_and_only_roots_reach_the_ring(self):
        t = Tracer()
        with t.span("outer", op="x"):
            with t.span("inner"):
                pass
        (trace,) = t.recent()
        assert trace["name"] == "outer"
        assert trace["tags"] == {"op": "x"}
        (child,) = trace["spans"]
        assert child["name"] == "inner"
        assert child["spans"] == []
        assert len(t) == 1  # the child folded into its parent

    def test_ring_evicts_oldest_first(self):
        t = Tracer()
        for i in range(TRACE_RING + 2):
            t.event(f"e{i}")
        names = [x["name"] for x in t.recent()]
        assert len(names) == TRACE_RING
        assert names[0] == "e2" and names[-1] == f"e{TRACE_RING + 1}"

    def test_slowest_sorts_longest_first(self):
        t = Tracer()
        t.record({"name": "a.fast", "duration": 0.01, "start": 0,
                  "end": 0.01, "tags": {}, "spans": []})
        t.record({"name": "a.slow", "duration": 0.5, "start": 0,
                  "end": 0.5, "tags": {}, "spans": []})
        t.record({"name": "b.other", "duration": 1.0, "start": 0,
                  "end": 1.0, "tags": {}, "spans": []})
        assert [x["name"] for x in t.slowest(2)] == ["b.other", "a.slow"]

    def test_threads_nest_independently(self):
        """The span stack is thread-local: a span opened on one thread
        never adopts another thread's spans as children."""
        t = Tracer()
        barrier = threading.Barrier(2)

        def trace(name):
            with t.span(name):
                barrier.wait(timeout=5)
                barrier.wait(timeout=5)

        a = threading.Thread(target=trace, args=("a",))
        b = threading.Thread(target=trace, args=("b",))
        a.start(), b.start()
        a.join(), b.join()
        traces = t.recent()
        assert sorted(x["name"] for x in traces) == ["a", "b"]
        assert all(x["spans"] == [] for x in traces)

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x", a=1) as span:
            assert span.tags == {}
        NULL_TRACER.event("e")
        NULL_TRACER.record({"name": "r"})
        assert NULL_TRACER.recent() == []
        assert NULL_TRACER.slowest() == []
        assert len(NULL_TRACER) == 0
        assert not NULL_TRACER.enabled


# ----------------------------------------------------------------------
# the commit pipeline
# ----------------------------------------------------------------------
class TestCommitObservability:
    def test_detached_engine_records_nothing(self):
        engine = _mk_engine()
        _commit_rows(engine, manager_stream(30, 2))
        assert engine.metrics is None
        assert engine.tracer is NULL_TRACER
        assert list(engine.slow_commits) == []

    def test_phase_histograms_count_every_commit(self, tmp_path):
        engine = _mk_engine(wal=str(tmp_path / "w.log"))
        registry = MetricsRegistry()
        engine.attach_observability(registry)
        _commit_rows(engine, manager_stream(30, 3))
        snap = registry.snapshot()
        for phase in ("rebase", "validate", "derive", "wal_append",
                      "total"):
            assert snap["histograms"][
                f"store.commit.{phase}_seconds"]["count"] == 3, phase
        assert snap["counters"]["store.commits"] == 3
        assert snap["counters"]["store.wal.appends"] == 3
        assert snap["counters"]["store.wal.appended_bytes"] > 0
        engine.close()

    def test_commit_traces_carry_phase_children(self):
        engine = _mk_engine()
        registry, tracer = MetricsRegistry(), Tracer()
        engine.attach_observability(registry, tracer)
        _commit_rows(engine, manager_stream(30, 1))
        commits = [t for t in tracer.recent()
                   if t["name"] == "store.commit"]
        assert len(commits) == 1
        names = [s["name"] for s in commits[0]["spans"]]
        assert names == ["commit.rebase", "commit.validate",
                         "commit.derive", "commit.wal_append"]
        assert commits[0]["tags"]["rows"] == 1  # one manager row added

    def test_slow_commit_gating_is_a_function_of_the_clock(self):
        """Six timestamps per commit at 0.05s/call = 0.25s total: over
        a 0.1s threshold every commit is slow; over a 1.0s threshold
        none is.  Same commits, same clock — only the gate differs."""
        rows = manager_stream(30, 2)
        for threshold, expect_slow in ((0.1, 2), (1.0, 0)):
            engine = _mk_engine()
            registry = MetricsRegistry(clock=FakeClock(step=0.05))
            engine.attach_observability(
                registry, slow_commit_threshold=threshold)
            _commit_rows(engine, rows)
            assert len(engine.slow_commits) == expect_slow, threshold
            assert registry.snapshot()["counters"][
                "store.slow_commits"] == expect_slow

    def test_slow_commit_record_shape(self):
        engine = _mk_engine()
        registry = MetricsRegistry(clock=FakeClock(step=0.05))
        engine.attach_observability(registry, slow_commit_threshold=0.01)
        _commit_rows(engine, manager_stream(30, 1))
        (record,) = engine.slow_commits
        assert set(record) == {"version", "at", "total", "phases",
                               "group_count", "groups"}
        assert set(record["phases"]) == {"rebase", "validate", "derive",
                                         "wal_append", "fsync"}
        assert record["group_count"] == len(record["groups"]) >= 1
        # Groups are JSON-flattened (relation, sorted attrs, row repr).
        relation, attrs, row = record["groups"][0]
        assert isinstance(relation, str)
        assert attrs == sorted(attrs)
        assert isinstance(row, str)

    def test_slow_commit_log_is_bounded(self):
        engine = _mk_engine(n=60)
        registry = MetricsRegistry(clock=FakeClock(step=0.05))
        engine.attach_observability(registry, slow_commit_threshold=0.01)
        _commit_rows(engine, manager_stream(60, SLOW_COMMIT_LOG + 3))
        assert len(engine.slow_commits) == SLOW_COMMIT_LOG
        assert registry.snapshot()["counters"]["store.slow_commits"] \
            == SLOW_COMMIT_LOG + 3

    def test_detach_restores_the_zero_cost_path(self, tmp_path):
        engine = _mk_engine(wal=str(tmp_path / "w.log"))
        registry = MetricsRegistry()
        engine.attach_observability(registry, slow_commit_threshold=0.1)
        engine.attach_observability(None)
        assert engine.metrics is None
        assert engine.wal.probe is None
        _commit_rows(engine, manager_stream(30, 1))
        assert registry.snapshot()["counters"]["store.commits"] == 0
        engine.close()


# ----------------------------------------------------------------------
# the status schema
# ----------------------------------------------------------------------
class TestStatusSchema:
    def test_payload_helper_builds_a_valid_core(self):
        body = status_payload(role="primary", epoch=2, ready=True,
                              counters={"x": 1}, seq=5, versions=3,
                              branches={"main": "v3"}, extra="kept")
        assert validate_status(body) is body
        assert body["extra"] == "kept"

    @pytest.mark.parametrize("mutation, message", [
        ({"role": "observer"}, "role"),
        ({"epoch": -1}, "epoch"),
        ({"epoch": "2"}, "epoch"),
        ({"ready": 1}, "ready"),
        ({"counters": [1]}, "counters"),
        ({"counters": {"x": True}}, "x"),
        ({"counters": {"x": "1"}}, "x"),
    ])
    def test_core_violations_raise(self, mutation, message):
        body = status_payload(role="replica", epoch=0, ready=False,
                              counters={})
        body.update(mutation)
        with pytest.raises(ProtocolError, match=message):
            validate_status(body)

    def test_missing_core_key_raises(self):
        body = status_payload(role="primary", epoch=0, ready=False)
        del body["counters"]
        with pytest.raises(ProtocolError, match="counters"):
            validate_status(body)

    def test_ready_status_requires_graph_shape(self):
        body = status_payload(role="primary", epoch=0, ready=True,
                              seq=1, versions=1)
        with pytest.raises(ProtocolError, match="branches"):
            validate_status(body)


# ----------------------------------------------------------------------
# over the wire
# ----------------------------------------------------------------------
class TestMetricsOverTheWire:
    def test_metrics_op_serves_the_snapshot(self, tmp_path):
        engine = _mk_engine(wal=str(tmp_path / "w.log"))
        rows = manager_stream(30, 3)
        with StoreServer(engine) as server:
            with StoreClient(*server.address) as client:
                for row in rows:
                    client.run([{"op": "insert", "relation": "manager",
                                 "row": row}])
                payload = client.metrics(traces=2)
        metrics = payload["metrics"]
        assert metrics["counters"]["server.commits"] == 3
        assert metrics["counters"]["store.commits"] == 3
        assert metrics["counters"]["server.ops.commit"] == 3
        assert metrics["counters"]["kernel.sweep.runs"] >= 1
        assert metrics["histograms"][
            "store.commit.total_seconds"]["count"] == 3
        assert metrics["gauges"]["server.connections"] == 1
        assert payload["slow_commits"] == []
        assert len(payload["traces"]) == 2
        engine.close()

    def test_metrics_op_rejects_bad_traces_field(self):
        engine = _mk_engine()
        with StoreServer(engine) as server:
            with StoreClient(*server.address) as client:
                for bad in (-1, True, "five", 1.5):
                    with pytest.raises(ProtocolError):
                        client.request("metrics", traces=bad)

    def test_both_roles_validate_and_report_counters(self, tmp_path):
        wal = str(tmp_path / "w.log")
        engine = _mk_engine(wal=wal)
        _commit_rows(engine, manager_stream(30, 2))
        replica = ReplicaEngine(wal, from_checkpoint=False)
        with StoreServer(engine) as primary_server, \
                StoreServer(replica) as replica_server:
            # Sync after the server attached its registry, so the
            # applied records count into it.
            replica.sync()
            with StoreClient(*primary_server.address) as client:
                primary_status = client.status()
            with StoreClient(*replica_server.address) as client:
                replica_status = client.status()
                replica_metrics = client.metrics()
        validate_status(primary_status)
        validate_status(replica_status)
        assert primary_status["role"] == "primary"
        assert replica_status["role"] == "replica"
        assert replica_status["counters"]["replica.syncs"] >= 1
        assert replica_status["behind_bytes"] == 0  # extras survive
        assert replica_metrics["metrics"]["counters"][
            "replica.applied_records"] >= 2
        replica.close()
        engine.close()

    def test_promoted_replica_keeps_serving_metrics(self, tmp_path):
        """The metrics op works across a promotion: the replica's
        server reports replica counters; the successor server over the
        promoted engine reports commit histograms for post-failover
        writes."""
        wal = str(tmp_path / "w.log")
        engine = _mk_engine(wal=wal)
        rows = manager_stream(30, 4)
        _commit_rows(engine, rows[:2])
        engine.close()  # the primary dies

        replica = ReplicaEngine(wal, from_checkpoint=False)
        with StoreServer(replica) as replica_server:
            with StoreClient(*replica_server.address) as client:
                before = client.metrics()["metrics"]
            assert before["counters"]["replica.syncs"] >= 1
        promoted = promote(replica)
        with StoreServer(promoted) as successor:
            with StoreClient(*successor.address) as client:
                client.run([{"op": "insert", "relation": "manager",
                             "row": rows[2]}])
                after = client.metrics()
                status = client.status()
        validate_status(status)
        assert status["role"] == "primary"
        assert status["epoch"] == 1
        assert after["metrics"]["counters"]["store.commits"] == 1
        assert after["metrics"]["histograms"][
            "store.commit.total_seconds"]["count"] == 1
        promoted.wal.close()
        replica.close()


# ----------------------------------------------------------------------
# component counters live only in the registry
# ----------------------------------------------------------------------
class TestThinViews:
    def test_server_counters_live_in_the_registry(self):
        engine = _mk_engine()
        with StoreServer(engine) as server:
            with StoreClient(*server.address) as client:
                client.ping()
                snap = server.metrics.snapshot()
                assert snap["gauges"]["server.connections"] == 1
                assert snap["counters"]["server.frames_served"] >= 2
                status = client.status()
            snap = server.metrics.snapshot()
            assert snap["counters"]["server.commits"] == 0
            assert snap["counters"]["server.bad_frames"] == 0
            assert "frames_served" not in status  # one copy: counters

    def test_balancer_counters_are_registry_backed(self):
        balancer = ReadBalancer({"r1": ("127.0.0.1", 1)},
                                seed=3)
        balancer.add_replica("r2", ("127.0.0.1", 2))
        snap = balancer.metrics.snapshot()["counters"]
        assert snap == {"balancer.ejections": 0,
                        "balancer.fallbacks.primary": 0,
                        "balancer.fallbacks.stale": 0,
                        "balancer.reads.r1": 0,
                        "balancer.reads.r2": 0}
        assert "balancer.reads.r2" in repr(balancer)
        balancer.close()
