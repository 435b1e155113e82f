"""`repro.server` — the store over the wire, plus WAL-tailing replicas.

An asyncio front end (:mod:`server`) speaks a length-prefixed JSON
frame protocol (:mod:`protocol`; byte layer in :mod:`repro.io`) over a
:class:`~repro.store.StoreEngine`, mirroring the embedded session API —
one ``commit`` frame per transaction, with the same typed errors,
witness findings included.  :mod:`replica` adds read scale-out: a
:class:`ReplicaEngine` tails the primary's write-ahead log and applies
every record through the replay code path, so its version graph is
identical to the primary's at the prefix it has consumed.
:mod:`failover` closes the availability loop: :func:`promote` turns a
caught-up replica into the next-epoch primary (fencing the old one via
the WAL's epoch stamp); :class:`FailoverClient` gives clients the one
retry loop (backoff drawn from a :class:`RetryPolicy`), heartbeats and
client-side epoch fencing; and :class:`ReadBalancer` fans reads out
across replicas with staleness budgets and a graceful degradation
ladder, whose last rung — a replica within a staleness bound — is
also the failover client's degraded read.  :mod:`cluster` makes the
loop autonomous: a :class:`HealthMonitor` failure detector (alive →
suspect → dead suspicion levels over ``status`` probes) and a
:class:`Coordinator` per replica running deterministic leader election
(rank by durable WAL position, the epoch stamp as final arbiter).
See ``README.md`` in this directory for the wire-protocol
specification, the replica consistency semantics, and the
epoch/fencing state machine.
"""

from repro.server.client import StoreClient
from repro.server.cluster import (
    Coordinator,
    HealthMonitor,
    election_rank,
    engine_probe,
    wire_probe,
)
from repro.server.failover import (
    FailoverClient,
    ReadBalancer,
    RetryPolicy,
    promote,
)
from repro.server.protocol import (
    OPS,
    PROTOCOL_VERSION,
    STATUS_CORE_KEYS,
    SUSPICION_STATES,
    WRITE_OPS,
    error_payload,
    error_response,
    ok_response,
    raise_for_error,
    status_payload,
    validate_request,
    validate_status,
)
from repro.server.replica import ReplicaEngine
from repro.server.server import StoreServer

__all__ = [
    "Coordinator",
    "FailoverClient",
    "HealthMonitor",
    "OPS",
    "PROTOCOL_VERSION",
    "ReadBalancer",
    "ReplicaEngine",
    "RetryPolicy",
    "STATUS_CORE_KEYS",
    "StoreClient",
    "StoreServer",
    "SUSPICION_STATES",
    "WRITE_OPS",
    "election_rank",
    "engine_probe",
    "error_payload",
    "error_response",
    "ok_response",
    "promote",
    "raise_for_error",
    "status_payload",
    "validate_request",
    "validate_status",
    "wire_probe",
]
