#!/usr/bin/env python3
"""End-to-end benchmark of the axiom-gated store served over the wire.

    python3 perfbench/run.py --workload {commit_stream,read_mix,recovery}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One load-generator thread drives one
connection in a closed loop against one ``StoreServer`` child process.
A run is a series of cycles (``cycle.py``), each a fresh load-generator
process with a fresh server child, repeated until ``--seconds`` would
be overrun and at least ``MIN_CYCLES`` times.  Cycle ``k`` runs with
``PYTHONHASHSEED=k``, so every run samples the same set and dict
layouts, and both of its processes run on CPU 0.

Correctness is checked throughout and every wrong or failed operation
counts against those attempted: each commit must land as the next
version, each read must return the row count the plan predicts, the
server's ``status`` seq must equal the commits sent, the replayed head
must equal the rows read over the wire and audit clean, and checkpoint
replay and the replica must reach the same head state.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` traces every layer (:mod:`spans`) and
reports the per-layer metrics (:mod:`layers`) instead.  The exit code is
0 only when every check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cycle import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

MIN_CYCLES = 5
MIN_TRACED_CYCLES = 2

END_TO_END_UNITS = {
    "setup_s": "s", "commit_p50_ms": "ms", "commit_p90_ms": "ms",
    "read_p50_ms": "ms", "read_p90_ms": "ms", "ops_per_s": "1/s",
    "server_peak_rss_mb": "MB", "wal_bytes_per_commit": "bytes",
    "replay_full_s": "s", "replay_ckpt_s": "s", "replica_catchup_s": "s",
}


def run_cycle(k: int, workload: str, seed: int, work: Path,
              spans_dir: Path | None = None) -> dict:
    """One cycle in a fresh ``cycle.py`` process; returns its record."""
    cmd = [sys.executable, str(HERE / "cycle.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(k), "--work", str(work)]
    if spans_dir is not None:
        cmd += ["--spans", str(spans_dir)]
    env = dict(os.environ, PYTHONHASHSEED=str(k))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=150)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"cycle {k} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_cycles(workload: str, seed: int, work: Path, seconds: float,
               min_cycles: int, spans_dir: Path | None = None,
               ) -> list[dict]:
    """Cycles until ``seconds`` would be overrun (at least
    ``min_cycles``)."""
    cycles: list[dict] = []
    start = time.perf_counter()
    while True:
        cycles.append(run_cycle(len(cycles), workload, seed, work,
                                spans_dir))
        elapsed = time.perf_counter() - start
        if len(cycles) >= min_cycles \
                and elapsed * (len(cycles) + 1) / len(cycles) > seconds:
            return cycles


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(cycles: list[dict]) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as ``name -> (value, samples)``: p50
    latency over every timed operation of the run, p90 latency as the
    median over cycles of each cycle's p90, throughput over the summed
    loop time, the median of every timed recovery of the run, and the
    median over cycles of the rest.

    Host stalls of about 10 ms come in stretches that cover a cycle or
    two and inflate the tail of the latencies timed during them; the
    median over cycles keeps a minority of such cycles out of p90."""
    commits = [s * 1e3 for c in cycles for s in c["commit_s"]]
    reads = [s * 1e3 for c in cycles for s in c["read_s"]]
    ops = sum(c["timed_ops"] for c in cycles)
    n = len(cycles)

    def median(key):
        return statistics.median(c[key] for c in cycles)

    def tail(key):
        return statistics.median(p90(c[key]) for c in cycles) * 1e3

    def pooled(key):
        values = [s for c in cycles for s in c[key]]
        return statistics.median(values), len(values)

    return {
        "setup_s": (median("setup_s"), n),
        "commit_p50_ms": (statistics.median(commits), len(commits)),
        "commit_p90_ms": (tail("commit_s"), len(commits)),
        "read_p50_ms": (statistics.median(reads), len(reads)),
        "read_p90_ms": (tail("read_s"), len(reads)),
        "ops_per_s": (ops / sum(c["loop_s"] for c in cycles), ops),
        "server_peak_rss_mb": (median("rss_mb"), n),
        "wal_bytes_per_commit": (statistics.median(
            c["wal_bytes"] / c["commits"] for c in cycles), n),
        "replay_full_s": pooled("replay_full_s"),
        "replay_ckpt_s": pooled("replay_ckpt_s"),
        "replica_catchup_s": pooled("catchup_s"),
    }


def traced(workload: str, seed: int, work: Path, seconds: float,
           ) -> tuple[list[dict], dict]:
    """One untraced cycle (the overhead baseline), then traced cycles;
    returns all cycles and the per-layer metrics."""
    import layers

    baseline = run_cycle(0, workload, seed, work)
    spans_dir = work / "spans"
    spans_dir.mkdir()
    cycles = run_cycles(workload, seed, work, seconds, MIN_TRACED_CYCLES,
                        spans_dir)
    pairs = []
    counts: collections.Counter = collections.Counter()
    for k in range(len(cycles)):
        dumps = []
        for side in ("client", "server"):
            with open(spans_dir / f"{side}{k}.json", encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        counts.update(dumps[1]["counts"])
        pairs.append((dumps[0]["spans"], dumps[1]["spans"],
                      cycles[k]["windows"]))
    forest = layers.Forest(pairs)
    OUT.mkdir(exist_ok=True)
    forest.export(OUT / f"trace-{workload}.json")
    traced_p50 = statistics.median(s for c in cycles for s in c["commit_s"])
    untraced_p50 = statistics.median(baseline["commit_s"])
    overhead = (traced_p50 - untraced_p50) * 1e3
    metrics = layers.per_layer(forest, counts,
                               sum(c["wal_bytes"] for c in cycles), overhead)

    print(f"tracing overhead: commit_p50 traced {traced_p50 * 1e3:.4f} - "
          f"untraced {untraced_p50 * 1e3:.4f} = {overhead:+.4f} ms")
    check = layers.self_time_check(forest)
    print(f"self-time check: {check['commits']} commits, "
          f"{check['violations']} whose self times do not sum to "
          f"client.run (worst relative error "
          f"{check['worst_rel_error']:.2e})")
    print("blocking path of a commit, mean self time per commit:")
    for name, us in sorted(check["self_us_per_commit"].items(),
                           key=lambda kv: -kv[1]):
        print(f"  {name:34s} {us:10.2f} us")
    print("production histogram p50 vs outside-timed p50 (last cycle):")
    last = layers.Forest(pairs[-1:])
    for row in layers.telemetry_cross_check(last, cycles[-1]["telemetry"]):
        print(f"  {row['phase']:10s} histogram {row['histogram_p50_us']} us"
              f"  outside {row['outside_p50_us']:.2f} us  buckets apart "
              f"{row['buckets_apart']}{'  FLAG' if row['flag'] else ''}")
    split = layers.phase_split(forest)
    print("engine phase split (us): phase, ROADMAP item 1, outside-timed")
    for phase, roadmap in layers.ROADMAP_PHASES_US.items():
        print(f"  {phase:10s} {roadmap:6d} {split[phase]:10.2f}")
    if check["violations"]:
        baseline["failed"] += check["violations"]
        baseline["problems"].append(
            f"{check['violations']} commits fail the self-time check")
    return [baseline] + cycles, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"run{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            cycles, layer_metrics = traced(args.workload, args.seed, work,
                                           args.seconds)
            reported = layer_metrics
        else:
            cycles = run_cycles(args.workload, args.seed, work, args.seconds,
                                MIN_CYCLES)
            reported = {k: (v, END_TO_END_UNITS[k], n) for k, (v, n)
                        in end_to_end(cycles).items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    for c in cycles:
        for problem in c["problems"]:
            print(f"FAILED: {problem}")
    print(f"{args.workload} seed={args.seed}: {len(cycles)} cycles, "
          f"{attempted} operations, {failed} failed")
    for name, (value, unit, n) in reported.items():
        print(f"  {name:40s} {value:14.4f} {unit:6s} n={n}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in reported.items()},
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
