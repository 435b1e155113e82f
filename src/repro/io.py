"""JSON import/export for schemas, extensions, and constraints.

A downstream user needs to get designs in and out of the library; this
module fixes a plain-JSON interchange format:

.. code-block:: json

    {
      "domains":  {"name": ["ann", "bob"], "age": [28, 31]},
      "entity_types": {"person": ["name", "age"]},
      "relations": {"person": [{"name": "ann", "age": 31}]},
      "contributors": {"worksfor": ["employee", "department"]},
      "constraints": [
        {"kind": "subset", "special": "manager", "general": "employee"},
        {"kind": "fd", "determinant": "employee", "dependent": "department",
         "context": "worksfor"},
        {"kind": "cardinality", "relationship": "worksfor",
         "left": "employee", "right": "department", "cardinality": "1:n"},
        {"kind": "participation", "relationship": "worksfor",
         "member": "employee"}
      ]
    }

Values must be JSON scalars (strings, numbers, booleans, null) — which is
exactly the Attribute Axiom's atomicity in JSON clothing.

The module also fixes the store's *wire* encoding: length-prefixed JSON
frames (:func:`encode_frame` / :class:`FrameDecoder`), the byte-level
layer of the :mod:`repro.server` protocol.  A frame is a big-endian
``uint32`` payload length followed by that many bytes of UTF-8 JSON
encoding one object; the prefix makes the stream self-delimiting, so a
frame whose payload fails to parse costs one error response, not the
connection.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any

from repro.core import (
    CardinalityConstraint,
    ConstraintSet,
    ContributorAssignment,
    DatabaseExtension,
    EntityFD,
    FunctionalConstraint,
    ParticipationConstraint,
    Schema,
    SubsetConstraint,
)
from repro.errors import ProtocolError, SchemaError
from repro.relational import Tuple

# ----------------------------------------------------------------------
# wire frames (the byte layer of repro.server's protocol)
# ----------------------------------------------------------------------
FRAME_HEADER = struct.Struct(">I")

#: The ceiling on one frame's payload, on both ends of the wire.  Large
#: enough for any audit report or relation read the test states produce,
#: small enough that a hostile length prefix cannot make a connection
#: buffer gigabytes.
MAX_FRAME_BYTES = 8 * 1024 * 1024


def _encode_tuple(value: Any) -> dict[str, Any]:
    """``json.dumps``' hook for values JSON has no type for: a relational
    :class:`~repro.relational.Tuple` encodes as the object of its items.

    Each tuple's dict is built only while it is written and freed right
    after, so a message can carry a whole relation's tuples without
    holding a dict per row — a read of a large relation then allocates
    too little to set off the garbage collector in the middle of it."""
    if isinstance(value, Tuple):
        return value.as_dict()
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


class JSONText:
    """Text that is already JSON, which :func:`encode_frame` writes
    verbatim.

    A top-level value of a frame's message may be a ``JSONText``: the
    frame then carries ``text`` exactly where ``json.dumps`` would have
    written the value it encodes, so a server can encode a value once
    and splice it into many frames.  Built with :func:`encode_json`, the
    frame is byte-identical to one encoding the value itself."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


# One encoder serves every call: ``json.dumps`` with these options
# builds a new one per call, which a server encoding row by row pays
# per row.  ``JSONEncoder.encode`` keeps no state between calls.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            default=_encode_tuple, check_circular=False)


def encode_json(value: Any) -> str:
    """``value`` as the wire's JSON text: sorted keys, no spaces, and
    relational tuples as JSON objects.  No circular-reference
    bookkeeping: it costs a dict insert and delete per container and
    per tuple, and a cyclic value still fails, as RecursionError."""
    return _ENCODER.encode(value)


def _splice(message: dict[str, Any]) -> str:
    """``encode_json(message)`` written member by member, each
    :class:`JSONText` value as its text."""
    parts = []
    for key, value in sorted(message.items()):
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        parts += (",", encode_json(key), ":", value.text
                  if type(value) is JSONText else encode_json(value))
    parts[0] = "{"  # one join, so a long text is copied once
    parts.append("}")
    return "".join(parts)


def encode_frame(message: dict[str, Any]) -> bytes:
    """One protocol message as a length-prefixed JSON frame.  Relational
    tuples anywhere in ``message`` encode as JSON objects, and a
    top-level :class:`JSONText` value is written as its text, among
    the keys in the same sorted order (its message's keys must then be
    strings)."""
    if not isinstance(message, dict):
        raise ProtocolError(
            f"a frame payload must be a JSON object, got "
            f"{type(message).__name__}")
    try:
        if any(type(v) is JSONText for v in message.values()):
            text = _splice(message)
        else:
            text = encode_json(message)
        payload = text.encode("utf-8")
    except (TypeError, ValueError, RecursionError) as exc:
        raise ProtocolError(f"message is not JSON-codable: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit")
    return FRAME_HEADER.pack(len(payload)) + payload


def split_frames(data: bytes) -> tuple[list[bytes], bytes]:
    """Split ``data`` at frame boundaries without decoding payloads.

    Returns ``(frames, remainder)`` where each element of ``frames`` is
    one complete length-prefixed frame (header included, bytes passed
    through untouched) and ``remainder`` is the trailing partial frame,
    if any.  This is the byte-level sibling of :class:`FrameDecoder` for
    tooling that relays or corrupts traffic *at* frame boundaries — the
    fault-injection proxy in :mod:`repro.faults` — and therefore must
    not pay for (or be confused by) JSON decoding.
    """
    frames: list[bytes] = []
    offset = 0
    while len(data) - offset >= FRAME_HEADER.size:
        (length,) = FRAME_HEADER.unpack_from(data, offset)
        end = offset + FRAME_HEADER.size + length
        if len(data) < end:
            break
        frames.append(bytes(data[offset:end]))
        offset = end
    return frames, bytes(data[offset:])


def _decode_payload(payload: bytes | bytearray) -> dict[str, Any]:
    """One frame payload as its message: UTF-8 JSON encoding an object."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise ProtocolError(
            f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got "
            f"{type(message).__name__}")
    return message


class FrameDecoder:
    """Incremental frame parser: feed bytes, collect decoded messages.

    The wire's only frame parser.  It is transport-agnostic (sans-IO):
    the asyncio server keeps one per connection and the blocking client
    one per socket; each pushes whatever bytes arrived and receives
    every *complete* message, in stream order, while partial frames stay
    buffered.  A declared length beyond :data:`MAX_FRAME_BYTES` raises
    :class:`ProtocolError` and sets :attr:`poisoned` — past that point
    the stream offset can no longer be trusted, so the connection must
    close.  A payload that is complete but not a JSON object also
    raises, but leaves the decoder usable (the prefix still delimited
    the frame correctly).  Either error is raised only once the messages
    ahead of the bad frame have been returned: a :meth:`feed` that meets
    one after decoding good frames returns those, and the next call
    raises.
    """

    __slots__ = ("_buffer", "poisoned")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.poisoned = False

    def feed(self, data: bytes = b"") -> list[dict[str, Any]]:
        """Buffer ``data`` and return every message completed so far."""
        if self.poisoned:
            raise ProtocolError(
                "frame stream is desynchronised (oversized frame); "
                "close the connection")
        buffer = self._buffer
        buffer.extend(data)
        out: list[dict[str, Any]] = []
        while len(buffer) >= FRAME_HEADER.size:
            (length,) = FRAME_HEADER.unpack_from(buffer)
            if length > MAX_FRAME_BYTES:
                if out:
                    return out  # the next feed raises on this frame
                self.poisoned = True
                raise ProtocolError(
                    f"declared frame length {length} exceeds the "
                    f"{MAX_FRAME_BYTES}-byte frame limit")
            end = FRAME_HEADER.size + length
            if len(buffer) < end:
                break
            try:
                message = _decode_payload(buffer[FRAME_HEADER.size:end])
            except ProtocolError:
                if out:
                    return out  # the next feed raises on this frame
                del buffer[:end]
                raise
            del buffer[:end]
            out.append(message)
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame (diagnostics)."""
        return len(self._buffer)


def schema_to_dict(schema: Schema) -> dict[str, Any]:
    """The schema's universe and entity types as JSON-ready data."""
    return {
        "domains": {
            name: sorted(schema.universe.domain(name).values, key=repr)
            for name in sorted(schema.property_names)
        },
        "entity_types": {
            e.name: sorted(e.attributes) for e in schema.sorted_types()
        },
    }


def schema_from_dict(data: dict[str, Any]) -> Schema:
    """Rebuild a schema; axioms are re-validated by the constructors."""
    if "entity_types" not in data:
        raise SchemaError("schema document needs an 'entity_types' object")
    return Schema.from_attribute_sets(
        {name: set(attrs) for name, attrs in data["entity_types"].items()},
        domains={k: list(v) for k, v in data.get("domains", {}).items()} or None,
    )


def extension_to_dict(db: DatabaseExtension) -> dict[str, Any]:
    """Schema plus relations plus non-canonical contributor assignments."""
    out = schema_to_dict(db.schema)
    out["relations"] = {
        e.name: [t.as_dict() for t in db.R(e)]
        for e in db.schema.sorted_types()
        if len(db.R(e))
    }
    from repro.core import canonical_contributors

    overrides = {}
    for e in db.schema.sorted_types():
        assigned = db.contributors.contributors(e)
        if assigned != canonical_contributors(db.schema, e):
            overrides[e.name] = sorted(c.name for c in assigned)
    if overrides:
        out["contributors"] = overrides
    return out


def extension_from_dict(data: dict[str, Any]) -> DatabaseExtension:
    """Rebuild a database state (shape and domain membership re-checked)."""
    schema = schema_from_dict(data)
    contributors = None
    if "contributors" in data:
        contributors = ContributorAssignment(schema, data["contributors"])
    return DatabaseExtension(schema, data.get("relations", {}), contributors)


def constraints_to_list(constraints: ConstraintSet) -> list[dict[str, Any]]:
    """Serialise the built-in constraint kinds (custom kinds need custom IO)."""
    out: list[dict[str, Any]] = []
    for c in constraints.constraints:
        if isinstance(c, SubsetConstraint):
            out.append({"kind": "subset", "special": c.special.name,
                        "general": c.general.name})
        elif isinstance(c, FunctionalConstraint):
            out.append({
                "kind": "fd",
                "determinant": c.fd.determinant.name,
                "dependent": c.fd.dependent.name,
                "context": c.fd.context.name,
            })
        elif isinstance(c, CardinalityConstraint):
            out.append({
                "kind": "cardinality", "relationship": c.relationship.name,
                "left": c.left.name, "right": c.right.name,
                "cardinality": c.kind,
            })
        elif isinstance(c, ParticipationConstraint):
            out.append({"kind": "participation",
                        "relationship": c.relationship.name,
                        "member": c.member.name})
        else:
            raise SchemaError(f"cannot serialise constraint kind {type(c).__name__}")
    return out


def constraints_from_list(schema: Schema,
                          items: list[dict[str, Any]]) -> ConstraintSet:
    """Rebuild a constraint set against ``schema``.

    Malformed records — unknown kinds, missing fields — raise
    :class:`SchemaError` rather than leaking ``KeyError``."""
    constraints = ConstraintSet(schema)
    for item in items:
        try:
            _constraint_from_item(schema, constraints, item)
        except KeyError as exc:
            raise SchemaError(
                f"constraint record {item!r} is missing field {exc}"
            ) from exc
    return constraints


def _constraint_from_item(schema: Schema, constraints: ConstraintSet,
                          item: dict[str, Any]) -> None:
    kind = item.get("kind")
    if kind == "subset":
        constraints.add(SubsetConstraint(
            schema[item["special"]], schema[item["general"]],
        ))
    elif kind == "fd":
        constraints.add(FunctionalConstraint(EntityFD(
            schema[item["determinant"]], schema[item["dependent"]],
            schema[item["context"]],
        )))
    elif kind == "cardinality":
        constraints.add(CardinalityConstraint(
            schema[item["relationship"]], schema[item["left"]],
            schema[item["right"]], item["cardinality"],
        ))
    elif kind == "participation":
        constraints.add(ParticipationConstraint(
            schema[item["relationship"]], schema[item["member"]],
        ))
    else:
        raise SchemaError(f"unknown constraint kind: {kind!r}")


def database_to_dict(db: DatabaseExtension,
                     constraints: ConstraintSet | None = None) -> dict[str, Any]:
    """One self-contained document: schema, relations, constraints."""
    out = extension_to_dict(db)
    if constraints is not None:
        out["constraints"] = constraints_to_list(constraints)
    return out


def database_from_dict(data: dict[str, Any]) -> tuple[DatabaseExtension, ConstraintSet]:
    """Rebuild a state and its constraints from one document."""
    db = extension_from_dict(data)
    constraints = constraints_from_list(db.schema, data.get("constraints", []))
    return db, constraints


def report_to_dict(report, constraint_problems: dict[str, list[str]] | None = None,
                   ) -> dict[str, Any]:
    """An audit outcome as machine-readable JSON data.

    ``report`` is a :class:`~repro.core.axioms.AxiomReport`;
    ``constraint_problems`` the per-constraint message lists of
    :meth:`ConstraintSet.report`.  Offenders (the findings' witnesses)
    are serialised by ``repr`` — they are heterogeneous objects (entity
    types, tuples, constraints) whose JSON forms live elsewhere; the
    report is for consumption by tooling (CI, ``repro serve``/``replay``)
    that needs verdicts and witness identity, not reconstruction.
    """
    constraint_problems = constraint_problems or {}
    return {
        "ok": report.ok() and not constraint_problems,
        "findings": [
            {
                "axiom": f.axiom,
                "message": f.message,
                "witnesses": [repr(o) for o in f.offenders],
            }
            for f in report.findings
        ],
        "constraints": {
            name: list(messages)
            for name, messages in sorted(constraint_problems.items())
        },
    }


def save(path: str | Path, db: DatabaseExtension,
         constraints: ConstraintSet | None = None) -> None:
    """Write a database document as pretty-printed JSON."""
    Path(path).write_text(
        json.dumps(database_to_dict(db, constraints), indent=2, sort_keys=True)
    )


def load(path: str | Path) -> tuple[DatabaseExtension, ConstraintSet]:
    """Read a database document written by :func:`save` (or by hand)."""
    return database_from_dict(json.loads(Path(path).read_text()))
