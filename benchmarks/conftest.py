"""Shared fixtures for the experiment benches (the kernel benches'
oracles are listed in ``src/repro/kernel/README.md``)."""

from __future__ import annotations

import json
import platform

import pytest

from repro.core.employee import employee_extension, employee_schema


def _json_path(value: str) -> str:
    # Guards against argparse swallowing a following test-path argument
    # (`--bench-json benchmarks/bench_x.py`) and the session-finish hook
    # then overwriting that file with the JSON dump.
    if not value.endswith(".json"):
        raise pytest.UsageError(
            f"--bench-json expects a .json path, got {value!r}"
        )
    return value


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        nargs="?",
        const="BENCH_kernel.json",
        default=None,
        type=_json_path,
        metavar="PATH",
        help="dump per-benchmark timing stats to PATH (default "
             "BENCH_kernel.json) so later PRs have a perf trajectory to "
             "compare against; diff dumps with benchmarks/compare_bench.py",
    )


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--bench-json")
    if not path:
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    records = []
    for bench in bench_session.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        records.append({
            "name": bench.name,
            "fullname": bench.fullname,
            "group": bench.group,
            "params": bench.params,
            "mean_s": stats.mean,
            "median_s": stats.median,
            "min_s": stats.min,
            "max_s": stats.max,
            "stddev_s": stats.stddev,
            "rounds": stats.rounds,
            "iterations": bench.iterations,
        })
    payload = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": sorted(records, key=lambda r: r["fullname"]),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    terminal = session.config.pluginmanager.get_plugin("terminalreporter")
    if terminal is not None:
        terminal.write_line(f"bench timings written to {path}")


@pytest.fixture(scope="module")
def schema():
    return employee_schema()


@pytest.fixture(scope="module")
def db(schema):
    return employee_extension(schema)


def show(title: str, body: str) -> None:
    """Print a regenerated paper artifact under a banner (use pytest -s)."""
    bar = "=" * max(len(title), 8)
    print(f"\n{bar}\n{title}\n{bar}\n{body}")
