"""The store's wire protocol: message shapes over length-prefixed frames.

The byte layer lives in :mod:`repro.io` (``encode_frame`` /
``FrameDecoder``); this module fixes what the frames *say*.  Every
message is one JSON object.  Requests carry a client-chosen ``id``
(echoed verbatim in the response, so a client may pipeline) and an
``op``:

``hello``
    Bind the connection to a branch (``branch``, default ``"main"``)
    and learn the store's shape.  Response: ``protocol``, ``role``
    (``"primary"`` or ``"replica"``), ``epoch`` (the promotion epoch
    the served graph is at — failover clients refuse primaries whose
    epoch regressed below one they have seen), ``branches``,
    ``relations``.
``ping``
    Liveness probe.  Response: ``{"pong": true}``.
``commit``
    One whole transaction in one frame: ``ops``, a list of WAL-form op
    records (``{"op": "insert", "relation": ..., "row": {...},
    "propagate": ...}`` and friends), buffered into a fresh transaction
    on the connection's branch and committed.  The server holds no
    transaction state between frames.  Rows are validated on arrival;
    a malformed record fails the whole commit and changes nothing.
    The ops are netted, validated and installed against the branch
    head at commit time, so a commit never loses a race: it lands or
    is rejected on its merits.  Response: ``version``, ``parent``,
    ``branch``.  Rejections answer with code ``commit-rejected``
    carrying the witness ``findings``.  Replica connections refuse
    with ``read-only``.
``read``
    One relation's instance set at a pinned version: ``relation``,
    optional ``at`` (vid) / ``branch``.  Response: ``rows`` (list of
    attribute->scalar objects), ``version`` (the vid served).
``branch``
    Create a branch: ``name``, optional ``at`` / ``from_branch``.
    Replica connections refuse with ``read-only``.  Response:
    ``branch``, ``at``.
``status``
    Server-side statistics.  Every status response — primary or
    replica — shares one documented core (see *The status schema*
    below); a primary adds its connection/commit-queue gauges, a
    replica its staleness/lag report.  A server wired into a cluster
    (``StoreServer(cluster=...)``) additionally gossips its health
    view: a ``cluster`` object whose ``suspicion`` table maps peer ids
    to ``{state, misses, probes, role, epoch, behind_bytes}``, with
    ``state`` one of :data:`SUSPICION_STATES` — so any client can ask
    one node what it believes about the others.
``metrics``
    The server's observability snapshot
    (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`): ``metrics``
    (``{"counters", "gauges", "histograms"}`` — histograms summarised
    as count/sum/min/max/p50/p95/p99), ``slow_commits`` (the engine's
    threshold-gated slow-commit log, newest last), and — when the
    request carries ``traces: N`` — ``traces``, the N slowest recent
    traces from the server's ring buffer.

The status schema
-----------------
Every ``status`` response follows one schema (consumers like
``election_rank`` read its replica extras):

* Core, always present: ``role`` (``"primary"``/``"replica"``),
  ``epoch`` (int, the promotion epoch), ``ready`` (bool — a primary is
  always ready; a replica is ready once bootstrapped from its WAL),
  and ``counters`` (a flat ``{name: number}`` map of the server's
  registry counters/gauges — the uniform home of what used to be
  ad-hoc attributes).
* When ready: ``seq``, ``versions``, ``branches``.
* Primary extras: ``max_connections``.  The primary's counts
  (``server.connections``, ``server.commits``, ``server.frames_served``,
  ``server.bad_frames``, ``server.rejected_overloaded``,
  ``server.idle_closed``) live only in ``counters``.
* Replica extras: ``wal``, ``position`` (``[segment, offset]``),
  ``behind_bytes``, ``applied_records``, ``promoted``, ``verify``,
  ``seconds_since_sync``.
* Optional: ``cluster`` (the gossip object above).

:func:`validate_status` checks the core; the round-trip test in
``tests/test_obs.py`` holds both roles to it.

Responses are ``{"id": ..., "ok": true, ...payload}`` on success and
``{"id": ..., "ok": false, "error": {"code", "message", ...}}`` on
failure.  Error codes map 1:1 onto the store's exception types
(:func:`error_payload`, :func:`raise_for_error`), so a remote caller
sees the same :class:`~repro.errors.CommitRejected` — witness findings
included — that a local :class:`~repro.store.Session` user does.
"""

from __future__ import annotations

from typing import Any

from repro.errors import (
    CommitRejected,
    EpochFenced,
    ExtensionError,
    ProtocolError,
    ServerOverloaded,
    StoreError,
)

PROTOCOL_VERSION = 1

#: The failure-detector suspicion ladder, least to most suspicious;
#: the ``cluster`` gossip in ``status`` responses uses exactly these
#: (see :class:`repro.server.cluster.HealthMonitor`).
SUSPICION_STATES = ("alive", "suspect", "dead")

#: Every operation a client may request, and which of them mutate.
OPS = frozenset(
    {"hello", "ping", "commit", "read", "branch", "status", "metrics"})
WRITE_OPS = frozenset({"commit", "branch"})

#: The keys every ``status`` response must carry, whatever the role.
STATUS_CORE_KEYS = ("role", "epoch", "ready", "counters")

#: Error codes, most specific first.  ``bad-frame`` answers payloads the
#: frame layer could delimit but not parse; ``fatal`` marks errors after
#: which the server closes the connection (stream desync, oversize).
ERROR_CODES = (
    "commit-rejected", "epoch-fenced", "read-only",
    "overloaded", "extension-error", "store-error", "protocol-error",
    "bad-frame",
)


def ok_response(rid: Any, **payload: Any) -> dict:
    return {"id": rid, "ok": True, **payload}


def error_response(rid: Any, code: str, message: str,
                   **extra: Any) -> dict:
    return {"id": rid, "ok": False,
            "error": {"code": code, "message": message, **extra}}


def error_payload(exc: BaseException) -> dict:
    """One exception as the ``error`` object of a response — the
    server-side half of the exception bridge."""
    if isinstance(exc, CommitRejected):
        return {"code": "commit-rejected", "message": str(exc),
                "findings": [dict(f) for f in exc.findings]}
    if isinstance(exc, EpochFenced):
        return {"code": "epoch-fenced", "message": str(exc),
                "held": exc.held, "current": exc.current}
    if isinstance(exc, ServerOverloaded):
        return {"code": "overloaded", "message": str(exc)}
    if isinstance(exc, StoreError):
        return {"code": "store-error", "message": str(exc)}
    if isinstance(exc, ExtensionError):
        return {"code": "extension-error", "message": str(exc)}
    if isinstance(exc, ProtocolError):
        return {"code": "protocol-error", "message": str(exc)}
    return {"code": "store-error",
            "message": f"{type(exc).__name__}: {exc}"}


def raise_for_error(error: dict) -> None:
    """Re-raise a response's ``error`` object as the exception it
    encodes — the client-side half of the bridge.  Findings survive the
    round trip."""
    code = error.get("code", "store-error")
    message = error.get("message", "remote error")
    if code == "commit-rejected":
        raise CommitRejected(message,
                             tuple(error.get("findings", ())))
    if code == "epoch-fenced":
        raise EpochFenced(message, held=int(error.get("held", 0)),
                          current=int(error.get("current", 0)))
    if code == "overloaded":
        raise ServerOverloaded(message)
    if code in ("protocol-error", "bad-frame"):
        raise ProtocolError(message)
    if code == "extension-error":
        raise ExtensionError(message)
    if code == "read-only":
        raise StoreError(f"read-only replica: {message}")
    raise StoreError(message)


def status_payload(role: str, epoch: int, ready: bool,
                   counters: dict | None = None, **extra: Any) -> dict:
    """A ``status`` response body with the schema's core fields in
    place; role-specific extras ride along verbatim."""
    return {"role": role, "epoch": int(epoch), "ready": bool(ready),
            "counters": dict(counters or {}), **extra}


def validate_status(status: dict) -> dict:
    """Check a ``status`` body against the schema's core (see the
    module docstring); returns it unchanged or raises
    :class:`ProtocolError` naming the violation."""
    for key in STATUS_CORE_KEYS:
        if key not in status:
            raise ProtocolError(f"status response lacks {key!r}")
    role = status["role"]
    if role not in ("primary", "replica"):
        raise ProtocolError(f"status role must be primary/replica, "
                            f"got {role!r}")
    if not isinstance(status["epoch"], int) or status["epoch"] < 0:
        raise ProtocolError(f"status epoch must be a non-negative int, "
                            f"got {status['epoch']!r}")
    if not isinstance(status["ready"], bool):
        raise ProtocolError(f"status ready must be a bool, "
                            f"got {status['ready']!r}")
    counters = status["counters"]
    if not isinstance(counters, dict):
        raise ProtocolError("status counters must be an object")
    for name, value in counters.items():
        if not isinstance(name, str) or isinstance(value, bool) \
                or not isinstance(value, (int, float)):
            raise ProtocolError(
                f"status counter {name!r} -> {value!r} is not a "
                "name-to-number entry")
    if status["ready"]:
        for key in ("seq", "versions", "branches"):
            if key not in status:
                raise ProtocolError(
                    f"ready status lacks {key!r}")
    return status


def validate_request(message: dict) -> tuple[Any, str]:
    """``(id, op)`` of a request, or :class:`ProtocolError` when the
    object is not a well-formed request.  The id may be any JSON scalar;
    it is only echoed."""
    if "op" not in message:
        raise ProtocolError("request has no 'op' field")
    op = message["op"]
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(f"unknown op {op!r}")
    rid = message.get("id")
    if isinstance(rid, (dict, list)):
        raise ProtocolError("request 'id' must be a JSON scalar")
    return rid, op
