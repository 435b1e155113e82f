"""A14 — observability: what the instruments cost on the commit path.

PR 10 wires a metrics registry, phase timing, and tracing into every
commit; this bench holds that wiring to its budget:

* ``commit_stream_bare`` — a WAL-backed 40-commit stream on a detached
  engine: the baseline the instrumented stream is compared against.
* ``commit_stream_instrumented`` — the same stream with a registry, a
  tracer, and the slow-commit gate all attached: per-commit cost of
  six clock captures, five histogram observations, the WAL probe, and
  one trace record.
* ``metrics_snapshot`` — rendering a populated registry to its
  JSON-codable snapshot, the body of every ``metrics`` wire response.
* ``overhead_gate`` (not a timing record) — interleaved best-of-rounds
  measurement of both streams asserting the instrumented path stays
  within 3% of the bare one, the acceptance bound of the PR.

Run with ``--bench-json`` to record timings in ``BENCH_kernel.json``
(the a14 names are part of the guarded kernel set in
``benchmarks/compare_bench.py``).
"""

from time import perf_counter

from repro.obs import MetricsRegistry, Tracer
from repro.store import Session, StoreEngine
from repro.workloads import manager_stream, op_record, serving_state

ROWS = 200
STREAM_COMMITS = 40
GATE_ROUNDS = 9
OVERHEAD_BOUND = 1.03

_STATES: dict[int, tuple] = {}


def state(n: int):
    if n not in _STATES:
        _STATES[n] = serving_state(n)
    return _STATES[n]


def _fresh_engine(tmp_path, tag, instrumented):
    schema, db, constraints = state(ROWS)
    engine = StoreEngine(db, constraints,
                         wal=str(tmp_path / f"{tag}.jsonl"))
    if instrumented:
        engine.attach_observability(MetricsRegistry(), Tracer(),
                                    slow_commit_threshold=0.1)
    return engine


def _run_stream(engine, rows):
    session = Session(engine)
    for row in rows:
        session.run([op_record("insert", "manager", row)])
    return engine


def test_a14_commit_stream_bare(benchmark, tmp_path):
    """The detached baseline: 40 WAL-backed commits, zero-clock
    timestamps, no instruments."""
    rows = manager_stream(ROWS, STREAM_COMMITS)
    built = []

    def fresh():
        engine = _fresh_engine(tmp_path, f"bare{len(built)}",
                               instrumented=False)
        built.append(engine)
        return (engine, rows), {}

    benchmark.pedantic(_run_stream, setup=fresh, rounds=5, iterations=1)
    assert built[-1].graph.seq == STREAM_COMMITS
    for engine in built:
        engine.close()


def test_a14_commit_stream_instrumented(benchmark, tmp_path):
    """The same stream with registry + tracer + slow-commit gate
    attached — the per-commit price of full observability."""
    rows = manager_stream(ROWS, STREAM_COMMITS)
    built = []

    def fresh():
        engine = _fresh_engine(tmp_path, f"inst{len(built)}",
                               instrumented=True)
        built.append(engine)
        return (engine, rows), {}

    benchmark.pedantic(_run_stream, setup=fresh, rounds=5, iterations=1)
    engine = built[-1]
    snap = engine.metrics.snapshot()
    assert snap["counters"]["store.commits"] == STREAM_COMMITS
    assert snap["histograms"][
        "store.commit.total_seconds"]["count"] == STREAM_COMMITS
    assert len(engine.tracer) == STREAM_COMMITS
    for engine in built:
        engine.close()


def test_a14_metrics_snapshot(benchmark):
    """Rendering a populated registry — the CPU half of every
    ``metrics`` wire response."""
    registry = MetricsRegistry()
    for i in range(40):
        registry.counter(f"c.{i}").inc(i)
    for i in range(8):
        gauge = registry.gauge(f"g.{i}")
        gauge.set(float(i))
        hist = registry.histogram(f"h.{i}")
        for j in range(200):
            hist.observe((j % 13) * 1e-4)

    snap = benchmark(registry.snapshot)
    assert len(snap["counters"]) == 40
    assert snap["histograms"]["h.0"]["count"] == 200


def test_a14_overhead_gate(tmp_path):
    """The acceptance bound: instrumented commits within 3% of bare.

    Bare and instrumented streams run interleaved (so drift hits both
    alike) and compare on best-of-rounds — the least-noisy statistic —
    with a tiny absolute epsilon so sub-millisecond jitter cannot fail
    a stream that is actually at parity."""
    rows = manager_stream(ROWS, STREAM_COMMITS)
    timings = {False: [], True: []}
    for round_no in range(GATE_ROUNDS):
        for instrumented in (False, True):
            engine = _fresh_engine(
                tmp_path, f"gate-{round_no}-{int(instrumented)}",
                instrumented)
            start = perf_counter()
            _run_stream(engine, rows)
            timings[instrumented].append(perf_counter() - start)
            engine.close()
    bare, instrumented = min(timings[False]), min(timings[True])
    assert instrumented <= bare * OVERHEAD_BOUND + 1e-3, (
        f"observability overhead {instrumented / bare - 1.0:+.1%} "
        f"exceeds {OVERHEAD_BOUND - 1.0:.0%} "
        f"(bare={bare:.4f}s instrumented={instrumented:.4f}s)")
