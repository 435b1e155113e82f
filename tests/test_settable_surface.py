"""The settable surface, pinned: every keyword a public constructor,
``StoreEngine.attach_observability`` or a ``repro`` subcommand accepts.

A setting nobody turns doubles the configurations the tests must cover,
so adding or removing one should be a deliberate, reviewed change.  A
new keyword or option fails here and shows as a one-line diff of the
lists below; the totals are the settable-value counts CHANGES.md
reports.
"""

import argparse
import inspect

import pytest

from repro import cli
from repro.obs import MetricsRegistry, Tracer
from repro.server import (
    Coordinator,
    FailoverClient,
    HealthMonitor,
    ReadBalancer,
    ReplicaEngine,
    RetryPolicy,
    StoreServer,
)
from repro.store import StoreEngine, WriteAheadLog

# Every parameter after ``self``, in order.  The settable values are
# those with a default, minus private ones (``_floor`` is the engine's
# checkpoint-restore hook, not a setting).
SIGNATURES = {
    StoreEngine: ["root", "constraints", "branch", "wal", "audit_root",
                  "checkpoint_every", "_floor"],
    StoreServer: ["engine", "host", "port", "max_connections",
                  "sync_interval", "idle_timeout", "cluster", "metrics",
                  "tracer", "slow_commit_threshold"],
    ReplicaEngine: ["wal_path", "from_checkpoint", "verify"],
    WriteAheadLog: ["path", "sync", "segment_records"],
    HealthMonitor: ["clock", "probe_interval", "suspect_after",
                    "dead_after"],
    Coordinator: ["replica_id", "replica", "monitor", "primary_id",
                  "promote_timeout", "segment_records", "sync_on_step"],
    ReadBalancer: ["replicas", "primary", "branch", "staleness_budget",
                   "max_staleness", "monitor", "seed", "timeout",
                   "refresh_every", "metrics"],
    FailoverClient: ["addresses", "branch", "policy", "deadline",
                     "staleness_budget", "timeout", "metrics"],
    RetryPolicy: ["base_delay", "max_delay", "seed"],
    Tracer: ["clock"],
    MetricsRegistry: ["clock"],
    StoreEngine.attach_observability: ["metrics", "tracer",
                                       "slow_commit_threshold"],
}

SETTABLE_PARAMETERS = 49

# Each subcommand's option strings, sorted (``-h``/``--help`` aside).
OPTIONS = {
    "inspect": [],
    "check": ["--json"],
    "topology": [],
    "fd": ["--closure"],
    "example": [],
    "serve": ["--checkpoint-every", "--idle-timeout", "--json", "--listen",
              "--max-connections", "--seed", "--segment-records",
              "--threads", "--txns", "--wal"],
    "replica": ["--full", "--idle-timeout", "--interval", "--json",
                "--listen", "--max-connections", "--max-lag-bytes",
                "--once", "--timeout", "--verify"],
    "promote": ["--full", "--idle-timeout", "--json", "--listen",
                "--max-connections", "--segment-records", "--sync",
                "--timeout", "--verify"],
    "supervise": ["--dead-after", "--full", "--id", "--interval", "--json",
                  "--listen", "--max-ticks", "--once", "--peer",
                  "--primary", "--primary-id", "--probe-timeout",
                  "--segment-records", "--suspect-after", "--timeout",
                  "--verify"],
    "log": ["--json"],
    "replay": ["--full", "--json", "--out", "--verify"],
    "checkpoint": ["--json"],
    "gc": ["--archive", "--dry-run", "--json"],
    "metrics": ["--json", "--watch"],
    "trace": ["--json", "-n"],
}

CLI_OPTIONS = 60


def _parameters(target):
    return [p for p in inspect.signature(target).parameters.values()
            if p.name != "self"]


def _subcommands():
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _options(subparser):
    return sorted(s for a in subparser._actions for s in a.option_strings
                  if s not in ("-h", "--help"))


@pytest.mark.parametrize("target", list(SIGNATURES),
                         ids=lambda t: t.__qualname__)
def test_parameters_are_pinned(target):
    assert [p.name for p in _parameters(target)] == SIGNATURES[target]


def test_settable_parameter_count():
    settable = [p for target in SIGNATURES for p in _parameters(target)
                if p.default is not inspect.Parameter.empty
                and not p.name.startswith("_")]
    assert len(settable) == SETTABLE_PARAMETERS


def test_cli_options_are_pinned():
    subcommands = _subcommands()
    assert {name: _options(p) for name, p in subcommands.items()} == OPTIONS
    assert sum(len(opts) for opts in OPTIONS.values()) == CLI_OPTIONS
