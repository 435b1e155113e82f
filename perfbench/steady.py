#!/usr/bin/env python3
"""Steadiness check: run every workload k times and report the spread.

    python3 perfbench/steady.py [--runs K] [--seed0 N]

Run from the root of a checkout.  Every workload of ``BENCHMARK.json``
runs K times for its ``run_seconds``, with seeds N, N+1, ...; for every
end-to-end metric the script prints the median of the K values and the
interquartile spread, ``(Q3 - Q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``, beside the metric's bound from
``BENCHMARK.json``.  A spread above a third of the bound is flagged
``NOISY``; the exit code is 1 when any metric is flagged or any run
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    raw: dict[str, dict[str, list[float]]] = {}
    failed_runs = 0
    for workload in names:
        raw[workload] = {}
        for seed in range(args.seed0, args.seed0 + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode or not result.get("correct"):
                failed_runs += 1
                print(f"{workload} seed={seed}: FAILED "
                      f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
                continue
            for name, metric in result["metrics"].items():
                raw[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed={seed}: ok", flush=True)

    noisy = 0
    print(f"\n{'workload':14s} {'metric':22s} {'median':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for workload, metrics in raw.items():
        for name, values in metrics.items():
            if len(values) < 2:
                continue
            s = spread(values)
            bound = bounds[name]
            flag = s > bound / 3
            noisy += flag
            print(f"{workload:14s} {name:22s} "
                  f"{statistics.median(values):12.4f} {s:8.3f} "
                  f"{bound:6.2f}{'  NOISY' if flag else ''}")
    return 1 if noisy or failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
