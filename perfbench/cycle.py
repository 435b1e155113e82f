"""One benchmark cycle, run in a fresh process by ``run.py``.

    python3 perfbench/cycle.py --workload W --seed N --index K --work DIR
        [--spans DIR]

A cycle times the cold start of a server child (``server_main.py``),
runs the workload's warm-up (checked, not timed) and timed operations
over one connection in a closed loop, reads every relation back, stops
the server, and then recovers the server's WAL three ways — full
replay, replay from the newest checkpoint and a fresh replica catching
up — in ``REPEATS`` interleaved rounds, each recovery timed after
``gc.collect()``.  It prints one JSON object: what it measured, the
clock intervals it timed, what it attempted and what failed.  With
``--spans`` the client and recovery layers are traced and the server
child is started traced; both write their spans into that directory.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ROWS = 3000
CHECKPOINT_EVERY = 500
FILL = 50            # rows inserted before inserts alternate with deletes
WARMUP = 20          # untimed commits at the start of each cycle
WARMUP_READS = 2
REPEATS = 2          # timed rounds of the three recoveries per cycle


class Workload(NamedTuple):
    commits: int           # timed commits per cycle
    txn_every: int         # every Nth commit is an 8-op transaction (0: never)
    reads_per_commit: int  # head reads after each timed commit
    read_every: int        # one head read after every Nth timed commit


WORKLOADS = {
    # The wire, the commit gate and WAL append do nearly all the work.
    "commit_stream": Workload(commits=600, txn_every=0,
                              reads_per_commit=0, read_every=10),
    # Row materialisation and response encoding dominate.
    "read_mix": Workload(commits=25, txn_every=0,
                         reads_per_commit=10, read_every=0),
    # Multi-row deltas; replay and catch-up of the log take the largest
    # share of the cycle.
    "recovery": Workload(commits=800, txn_every=4,
                         reads_per_commit=0, read_every=25),
}


class Step(NamedTuple):
    kind: str          # "commit" or "read"
    ops: list | None   # the commit's op records
    expected: int      # manager rows at the head after this step
    timed: bool


def make_plan(w: Workload, seed: int) -> list[Step]:
    """The cycle's operations.  The seed permutes the fresh ``manager``
    rows and picks which present rows each delete removes; deleted rows
    queue behind the fresh ones for re-insertion."""
    from repro.workloads import manager_stream, serving_state

    rng = random.Random(seed)
    slots = sum(1 for i in range(ROWS) if i % 3)
    fresh = manager_stream(ROWS, slots)
    rng.shuffle(fresh)
    absent = collections.deque(fresh)
    present: list[dict] = []
    base = len(serving_state(ROWS)[1].R("manager"))

    def op(kind, row):
        return {"op": kind, "relation": "manager", "row": row,
                "propagate": True}

    def insert():
        row = absent.pop()
        present.append(row)
        return op("insert", row)

    def delete():
        row = present.pop(rng.randrange(len(present)))
        absent.appendleft(row)
        return op("delete", row)

    steps: list[Step] = []
    for i in range(WARMUP + w.commits):
        timed = i >= WARMUP
        if w.txn_every and i % w.txn_every == w.txn_every - 1 \
                and len(present) >= 4:
            ops = [delete() for _ in range(4)] + [insert() for _ in range(4)]
        elif len(present) < FILL or i % 2 == 0:
            ops = [insert()]
        else:
            ops = [delete()]
        count = base + len(present)
        steps.append(Step("commit", ops, count, timed))
        if i == WARMUP - 1:
            steps += [Step("read", None, count, False)] * WARMUP_READS
        if timed:
            reads = w.reads_per_commit
            if w.read_every and (i - WARMUP + 1) % w.read_every == 0:
                reads += 1
            steps += [Step("read", None, count, True)] * reads
    return steps


class Cycle:
    """What one cycle measured and checked (its fields are the JSON
    record ``main`` prints)."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.commit_s: list[float] = []
        self.read_s: list[float] = []
        self.timed_ops = 0
        self.loop_s = 0.0
        self.rss_mb = 0.0
        self.wal_bytes = 0
        self.commits = 0
        self.replay_full_s: list[float] = []
        self.replay_ckpt_s: list[float] = []
        self.catchup_s: list[float] = []
        # ``perf_counter`` intervals of the timed sections: the loop and
        # each recovery.  The traced run keeps only spans inside them.
        self.windows: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.telemetry: dict | None = None

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def pin() -> None:
    """Keep this process, and the server child it starts, on CPU 0.

    The closed loop keeps one of the two busy at a time, and left to the
    scheduler their placement changed from cycle to cycle."""
    try:
        os.sched_setaffinity(0, {0})
    except OSError:
        pass  # CPU 0 is not ours to use: run where the scheduler puts us


def rows_of(relation) -> set:
    return {frozenset(t.as_dict().items()) for t in relation}


def drive(cycle: Cycle, client, steps: list[Step], telemetry: bool) -> dict:
    """The closed loop over one connection; returns the relations read
    over the wire afterwards (empty when they could not be read)."""
    from repro.errors import ReproError

    clock = time.perf_counter
    cycle.attempted += 1
    try:
        seq = client.status()["seq"]
    except (ReproError, OSError) as exc:
        cycle.fail(f"status: {exc!r}")
        return {}
    first = seq
    loop_start = loop_end = None
    for step in steps:
        cycle.attempted += 1
        t0 = clock()
        try:
            if step.kind == "commit":
                result = client.run(step.ops)
            else:
                rows = client.read("manager")
        except (ReproError, OSError) as exc:
            cycle.fail(f"{step.kind}: {exc!r}")
            continue
        t1 = clock()
        if step.kind == "commit":
            if result["version"] != f"v{seq + 1}" \
                    or result["parent"] != f"v{seq}":
                cycle.fail(f"commit landed as {result}, expected "
                           f"v{seq + 1} on v{seq}")
            seq += 1
            cycle.commits += 1
        elif len(rows) != step.expected:
            cycle.fail(f"read {len(rows)} manager rows, expected "
                       f"{step.expected}")
        if step.timed:
            if loop_start is None:
                loop_start = t0
            loop_end = t1
            cycle.timed_ops += 1
            (cycle.commit_s if step.kind == "commit"
             else cycle.read_s).append(t1 - t0)
    if loop_start is not None:
        cycle.loop_s = loop_end - loop_start
        cycle.windows.append((loop_start, loop_end))
    cycle.attempted += 1
    try:
        status = client.status()
        wire = {name: {frozenset(r.items()) for r in client.read(name)}
                for name in client.server_info["relations"]}
        if telemetry:
            cycle.telemetry = client.metrics()
    except (ReproError, OSError) as exc:
        cycle.fail(f"read-back: {exc!r}")
        return {}
    if status["seq"] != first + cycle.commits:
        cycle.fail(f"server seq {status['seq']} after "
                   f"{cycle.commits} commits from {first}")
    return wire


def timed(cycle: Cycle, samples: list[float], fn):
    """``fn()`` after ``gc.collect()``, its time appended to
    ``samples``; returns its result."""
    gc.collect()
    t0 = time.perf_counter()
    result = fn()
    t1 = time.perf_counter()
    samples.append(t1 - t0)
    cycle.windows.append((t0, t1))
    return result


def recover(cycle: Cycle, wal_dir: Path, wire: dict, audit: bool) -> None:
    """Time the three recoveries of the cycle's WAL in ``REPEATS``
    interleaved rounds, and check in the first round that they agree
    with each other and with the rows served over the wire.  Every
    cycle of a run replays the same plan, so ``audit`` is set on the
    first only."""
    from repro.server import ReplicaEngine
    from repro.store import StoreEngine

    def catch_up():
        replica = ReplicaEngine(wal_dir)
        replica.catch_up(timeout=60.0)
        return replica

    for r in range(REPEATS):
        full = timed(cycle, cycle.replay_full_s, lambda: StoreEngine.replay(
            wal_dir, from_checkpoint=False))
        if r == 0:
            cycle.attempted += 3
            head = full.state()
            if not wire or any(rows_of(head.R(name)) != rows
                               for name, rows in wire.items()):
                cycle.fail("full replay head differs from the rows read "
                           "over the wire")
            if audit and not full.audit().ok():
                cycle.fail("full replay head does not audit clean")
        del full
        ckpt = timed(cycle, cycle.replay_ckpt_s, lambda: StoreEngine.replay(
            wal_dir, from_checkpoint=True))
        if r == 0 and ckpt.state() != head:
            cycle.fail("checkpoint replay head differs from full replay")
        del ckpt
        replica = timed(cycle, cycle.catchup_s, catch_up)
        if r == 0 and (replica.behind_bytes() or replica.state() != head):
            cycle.fail("replica head differs from full replay")
        replica.close()
        del replica


def start_server(wal_dir: Path, spans: Path | None
                 ) -> tuple[subprocess.Popen, int, float]:
    """Spawn a server child; returns it, its port and the time from the
    spawn to its port being printed."""
    cmd = [sys.executable, str(HERE / "server_main.py"), "--wal",
           str(wal_dir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, cwd=ROOT, text=True)
    hello = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if not hello:
        proc.stdin.close()
        raise RuntimeError(f"server child exited with {proc.wait()}")
    return proc, json.loads(hello)["port"], setup_s


def stop_server(proc: subprocess.Popen) -> dict:
    """Close the child's stdin and return the report it prints on
    exit."""
    try:
        proc.stdin.close()
        report = json.loads(proc.stdout.readline())
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode:
        raise RuntimeError(f"server child exited with {proc.returncode}")
    return report


def run_cycle(k: int, work: Path, steps: list[Step],
              spans_dir: Path | None) -> Cycle:
    """One cycle on a fresh server child: the load, then recovery of
    its WAL."""
    from repro.server import StoreClient

    cycle = Cycle()
    wal_dir = work / f"wal{k}"
    spans = None if spans_dir is None else spans_dir / f"server{k}.json"
    proc, port, cycle.setup_s = start_server(wal_dir, spans)
    try:
        with StoreClient("127.0.0.1", port) as client:
            wire = drive(cycle, client, steps, spans_dir is not None)
    except OSError as exc:
        cycle.attempted += 1
        cycle.fail(f"connect: {exc!r}")
        wire = {}
    finally:
        report = stop_server(proc)
    cycle.rss_mb = report["vmhwm_kb"] / 1024.0
    cycle.wal_bytes = sum(p.stat().st_size for p in wal_dir.iterdir())
    recover(cycle, wal_dir, wire, audit=k == 0)
    shutil.rmtree(wal_dir)
    return cycle


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    pin()

    steps = make_plan(WORKLOADS[args.workload], args.seed)
    spans_dir = None if args.spans is None else Path(args.spans)
    recorder = None
    if spans_dir is not None:
        from spans import Recorder, install_client

        recorder = Recorder()
        install_client(recorder)
    cycle = run_cycle(args.index, Path(args.work), steps, spans_dir)
    if recorder is not None:
        recorder.uninstall()
        with open(spans_dir / f"client{args.index}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh)
    print(json.dumps(vars(cycle)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
