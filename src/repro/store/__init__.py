"""`repro.store` — a versioned, transactional, concurrent serving layer.

The paper models a database as a family of extension states judged by
the design axioms; this package *serves* such states: a branchable
version graph of immutable ``DatabaseExtension`` values
(:mod:`version_graph`), transactions whose commits are axiom-gated
deltas judged against the branch head (:mod:`txn`), a durable
JSON-lines write-ahead log (:mod:`wal`), a session API with lock-free
snapshot reads (:mod:`session`), and the engine tying them together
(:mod:`engine`).  See the "Store layer" section of
``src/repro/kernel/README.md`` for the commit/validate/sever lifecycle
and the commit-serialisation contract.
"""

from repro.errors import (
    CommitRejected,
    DeadlineExceeded,
    EpochFenced,
    ServerOverloaded,
    StoreError,
    StoreWarning,
    TornTailWarning,
)
from repro.store.engine import ProbeIndex, StoreEngine
from repro.store.session import Session
from repro.store.txn import (
    Changes,
    Op,
    Transaction,
    ValidationPlan,
    validate_changes,
    write_footprint,
)
from repro.store.version_graph import Version, VersionGraph
from repro.store.wal import (
    WalCursor,
    WriteAheadLog,
    checkpoint_record,
    epoch_record,
)

__all__ = [
    "Changes",
    "CommitRejected",
    "DeadlineExceeded",
    "EpochFenced",
    "Op",
    "ProbeIndex",
    "ServerOverloaded",
    "Session",
    "StoreEngine",
    "StoreError",
    "StoreWarning",
    "TornTailWarning",
    "Transaction",
    "ValidationPlan",
    "Version",
    "VersionGraph",
    "WalCursor",
    "WriteAheadLog",
    "checkpoint_record",
    "epoch_record",
    "validate_changes",
    "write_footprint",
]
