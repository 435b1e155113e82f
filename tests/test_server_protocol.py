"""Wire-protocol tests: frame codec round trips and a malformed-frame
fuzz sweep against a live server.

Two layers under test.  The sans-IO layer (``repro.io.encode_frame`` /
``FrameDecoder``) must round-trip every JSON object message regardless
of how the byte stream is chunked, and must classify bad input: a
payload that *delimits* but does not *parse* costs an error and nothing
else, while an oversized declared length desynchronises the stream and
poisons the decoder.  The live layer (``StoreServer``) must keep that
classification under fire: the fuzz sweep throws hundreds of malformed
frames — truncated length prefixes, truncated payloads, oversized
declarations, invalid JSON, non-object payloads, unknown ops — and the
accept loop must survive every one of them, with recoverable cases
answered by a typed error on the *same* connection.
"""

from __future__ import annotations

import json
import random
import socket
import struct

import pytest

from repro.errors import (
    CommitRejected,
    ExtensionError,
    ProtocolError,
    StoreError,
)
from repro.io import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    FrameDecoder,
    JSONText,
    encode_frame,
    encode_json,
)
from repro.relational import Relation, Tuple
from repro.server import ReplicaEngine, StoreClient, StoreServer
from repro.server.protocol import (
    error_payload,
    ok_response,
    raise_for_error,
    validate_request,
)
from repro.store import StoreEngine, WriteAheadLog
from repro.workloads.sessions import manager_stream, op_record, serving_state

from generators import (
    random_frame_message,
    random_json_value,
    random_patch_txn,
)

SEEDS = range(40)
MESSAGES_PER_SEED = 5  # 40 x 5 = 200 seeded round-trip cases


# ----------------------------------------------------------------------
# sans-IO codec
# ----------------------------------------------------------------------
class TestFrameRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_messages_survive_arbitrary_chunking(self, seed):
        """Encode a batch of random messages, replay the byte stream in
        random-sized dribbles, and require the exact messages back in
        order — the core framing property."""
        rng = random.Random(1000 + seed)
        messages = [random_frame_message(rng)
                    for _ in range(MESSAGES_PER_SEED)]
        stream = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        decoded = []
        i = 0
        while i < len(stream):
            step = rng.randint(1, 17)
            decoded.extend(decoder.feed(stream[i:i + step]))
            i += step
        assert decoded == messages
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_json_text_value_is_spliced_verbatim(self, seed):
        """Replacing any top-level value by its ``JSONText`` leaves the
        frame's bytes unchanged."""
        rng = random.Random(3000 + seed)
        message = random_frame_message(rng) or {"id": seed}
        key = rng.choice(sorted(message))
        spliced = dict(message, **{key: JSONText(encode_json(message[key]))})
        assert encode_frame(spliced) == encode_frame(message)

    def test_json_text_only_splices_at_the_top_level(self):
        with pytest.raises(ProtocolError, match="not JSON-codable"):
            encode_frame({"id": 1, "rows": [JSONText("[]")]})
        with pytest.raises(ProtocolError, match="not JSON-codable"):
            encode_frame({1: JSONText("[]")})

    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_value_payload_fidelity(self, seed):
        """Every JSON value shape survives inside a message field."""
        rng = random.Random(2000 + seed)
        message = {"value": random_json_value(rng)}
        decoder = FrameDecoder()
        (out,) = decoder.feed(encode_frame(message))
        assert out == message

    def test_header_is_big_endian_length(self):
        frame = encode_frame({"a": 1})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert json.loads(frame[4:]) == {"a": 1}

    def test_tuples_encode_as_their_rows(self):
        """A relation's tuples encode byte for byte as their ``as_dict``
        rows (the read handler ships tuples, not dicts)."""
        _, db, _ = serving_state(30)
        tuples = list(db.R("manager"))
        rows = [t.as_dict() for t in tuples]
        frame = encode_frame(ok_response(1, rows=tuples))
        assert frame == encode_frame(ok_response(1, rows=rows))
        (out,) = FrameDecoder().feed(frame)
        assert out["rows"] == rows

    def test_encode_rejects_non_dict(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            encode_frame([1, 2, 3])

    def test_encode_rejects_unencodable(self):
        with pytest.raises(ProtocolError):
            encode_frame({"x": object()})

    def test_encode_rejects_cyclic_message(self):
        message = {"x": []}
        message["x"].append(message)
        with pytest.raises(ProtocolError):
            encode_frame(message)

    def test_encode_rejects_oversize(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"x": "y" * MAX_FRAME_BYTES})


class TestFrameDecoderErrors:
    def test_bad_json_payload_raises_but_decoder_survives(self):
        decoder = FrameDecoder()
        bad = b"{nope"
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decoder.feed(FRAME_HEADER.pack(len(bad)) + bad)
        (out,) = decoder.feed(encode_frame({"ok": 1}))
        assert out == {"ok": 1}

    def test_non_object_payload_raises_but_decoder_survives(self):
        decoder = FrameDecoder()
        payload = b"[1, 2]"
        with pytest.raises(ProtocolError, match="JSON object"):
            decoder.feed(FRAME_HEADER.pack(len(payload)) + payload)
        assert decoder.feed(encode_frame({"ok": 2})) == [{"ok": 2}]

    def test_messages_before_a_bad_frame_are_not_lost(self):
        """A chunk carrying [good, bad, good] comes out in stream order:
        the first feed returns the good message ahead of the bad frame,
        the next raises on the bad frame, and the one after returns the
        message behind it."""
        decoder = FrameDecoder()
        bad = b"!!!"
        chunk = encode_frame({"first": True}) + \
            FRAME_HEADER.pack(len(bad)) + bad + encode_frame({"last": True})
        assert decoder.feed(chunk) == [{"first": True}]
        with pytest.raises(ProtocolError):
            decoder.feed()
        assert decoder.feed() == [{"last": True}]

    def test_messages_before_an_oversize_declaration_are_returned(self):
        decoder = FrameDecoder()
        chunk = encode_frame({"first": True}) + \
            FRAME_HEADER.pack(MAX_FRAME_BYTES + 1)
        assert decoder.feed(chunk) == [{"first": True}]
        assert not decoder.poisoned
        with pytest.raises(ProtocolError, match="frame limit"):
            decoder.feed()
        assert decoder.poisoned

    def test_oversize_declaration_poisons_the_decoder(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="frame limit"):
            decoder.feed(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))
        # ... and permanently: the stream offset is untrustworthy.
        with pytest.raises(ProtocolError, match="desynchronised"):
            decoder.feed(encode_frame({"ok": 1}))

    def test_pending_bytes_tracks_partial_frames(self):
        decoder = FrameDecoder()
        frame = encode_frame({"k": "v"})
        decoder.feed(frame[:5])
        assert decoder.pending_bytes == 5
        decoder.feed(frame[5:])
        assert decoder.pending_bytes == 0


# ----------------------------------------------------------------------
# the exception bridge
# ----------------------------------------------------------------------
class TestErrorBridge:
    def test_commit_rejected_round_trips_findings(self):
        findings = ({"check": "containment", "relation": "worksfor",
                     "witnesses": [{"pname": 1}]},)
        exc = CommitRejected("violated", findings)
        payload = error_payload(exc)
        assert payload["code"] == "commit-rejected"
        with pytest.raises(CommitRejected) as caught:
            raise_for_error(payload)
        assert caught.value.findings == findings

    @pytest.mark.parametrize("exc, code", [
        (StoreError("gone"), "store-error"),
        (ExtensionError("bad tuple"), "extension-error"),
        (ProtocolError("bad frame"), "protocol-error"),
        (ValueError("anything else"), "store-error"),
    ])
    def test_code_mapping(self, exc, code):
        payload = error_payload(exc)
        assert payload["code"] == code
        with pytest.raises(Exception):
            raise_for_error(payload)

    def test_validate_request(self):
        assert validate_request({"op": "ping", "id": 7}) == (7, "ping")
        assert validate_request({"op": "ping"}) == (None, "ping")
        with pytest.raises(ProtocolError, match="no 'op'"):
            validate_request({"id": 1})
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"op": "frobnicate"})
        with pytest.raises(ProtocolError, match="scalar"):
            validate_request({"op": "ping", "id": {"a": 1}})

    def test_ok_response_echoes_id(self):
        assert ok_response("r1", pong=True) == \
            {"id": "r1", "ok": True, "pong": True}


# ----------------------------------------------------------------------
# a live server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    schema, db, constraints = serving_state(10)
    engine = StoreEngine(db, constraints)
    with StoreServer(engine) as srv:
        yield srv


@pytest.fixture()
def client(server):
    c = StoreClient(*server.address)
    yield c
    c.close()


class TestServerOps:
    def test_hello_describes_the_store(self, client):
        info = client.server_info
        assert info["role"] == "primary"
        assert info["relations"] == [
            "dept", "manager", "office", "person", "worksfor"]
        assert "main" in info["branches"]

    def test_hello_unknown_branch_errors(self, server):
        with StoreClient(*server.address, hello=False) as c:
            with pytest.raises(StoreError, match="branch"):
                c.hello("nonesuch")
            assert c.ping()  # connection survives the refusal

    def test_ping(self, client):
        assert client.ping() is True

    def test_commit_read(self, client):
        row = manager_stream(10, 1)[0]
        head = client.status()["branches"]["main"]
        result = client.run([{"op": "insert", "relation": "manager",
                              "row": row}])
        assert result["branch"] == "main"
        assert result["parent"] == head
        rows, vid = client.read_at("manager", at=result["version"])
        assert row in rows and vid == result["version"]

    def test_commit_rejection_carries_findings(self, client):
        with pytest.raises(CommitRejected) as caught:
            client.run([{"op": "insert", "relation": "worksfor",
                         "row": {"pname": 9, "dname": 8, "budget": 50,
                                 "role": 1},
                         "propagate": False}])
        assert caught.value.findings  # witness findings crossed the wire
        assert any("witnesses" in f for f in caught.value.findings)

    def test_malformed_record_fails_the_whole_commit(self, client):
        """One bad record in a commit's ops refuses the lot: the
        well-formed ops before it do not land either."""
        row = manager_stream(10, 2)[1]
        head = client.status()["branches"]["main"]
        with pytest.raises((StoreError, ProtocolError, ExtensionError)):
            client.run([{"op": "insert", "relation": "manager",
                         "row": row},
                        {"op": "insert", "relation": "manager",
                         "row": {"pname": row["pname"]}}])  # wrong schema
        assert client.status()["branches"]["main"] == head
        assert row not in client.read("manager")
        assert client.ping()

    def test_commit_is_one_round_trip(self, server, client):
        """``StoreClient.run`` ships a transaction as exactly one frame,
        and the retired handle ops are never dispatched."""
        def counters():
            return server.metrics.snapshot()["counters"]

        before = counters()
        client.run([{"op": "insert", "relation": "manager",
                     "row": manager_stream(10, 3)[2]}])
        after = counters()
        assert after["server.frames_served"] == \
            before["server.frames_served"] + 1
        assert after["server.ops.commit"] == \
            before.get("server.ops.commit", 0) + 1
        assert "server.ops.begin" not in after
        assert "server.ops.stage" not in after

    def test_read_unknown_relation_errors_cleanly(self, client):
        with pytest.raises((StoreError, ExtensionError)):
            client.read("nonesuch")
        assert client.ping()

    def test_read_unknown_version_errors_cleanly(self, client):
        with pytest.raises(StoreError, match="unknown version"):
            client.read("dept", at="v9999")
        assert client.ping()

    def test_branch_and_read_at_branch(self, client):
        head = client.status()["branches"]["main"]
        out = client.create_branch("proto-dev")
        assert out == {"branch": "proto-dev", "at": head}
        assert client.read("dept", branch="proto-dev") == \
            client.read("dept", at=head)

    def test_status_gauges(self, client):
        status = client.status()
        assert status["role"] == "primary"
        assert status["counters"]["server.connections"] >= 1
        assert status["max_connections"] >= 1

    def test_request_id_is_echoed_verbatim(self, server):
        with StoreClient(*server.address, hello=False) as c:
            for rid in ("abc", 0, None, 3.5):
                c.send_message({"id": rid, "op": "ping"})
                response = c.recv_message()
                assert response["id"] == rid and response["ok"]

    def test_pipelined_requests_answer_in_order(self, server):
        with StoreClient(*server.address, hello=False) as c:
            for rid in range(5):
                c.send_message({"id": rid, "op": "ping"})
            for rid in range(5):
                assert c.recv_message()["id"] == rid

    def test_pipelined_good_and_bad_frames_answer_in_stream_order(
            self, server):
        """A ping, a bad-JSON frame and a ping in one send: the three
        responses come back in that order."""
        bad = b"{nope"
        with StoreClient(*server.address, hello=False) as c:
            c.send_raw(encode_frame({"id": 1, "op": "ping"})
                       + FRAME_HEADER.pack(len(bad)) + bad
                       + encode_frame({"id": 2, "op": "ping"}))
            first, second, third = (c.recv_message() for _ in range(3))
        assert first["id"] == 1 and first["ok"]
        assert second["error"]["code"] == "bad-frame"
        assert second["error"]["fatal"] is False
        assert third["id"] == 2 and third["ok"]


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        assert chunk, "server closed the connection"
        data += chunk
    return data


def _read_frame_bytes(sock: socket.socket, rid, **fields) -> bytes:
    """Send one ``read`` request and return the response frame's exact
    bytes, header included."""
    sock.sendall(encode_frame({"id": rid, "op": "read", **fields}))
    header = _recv_exactly(sock, FRAME_HEADER.size)
    (length,) = FRAME_HEADER.unpack(header)
    return header + _recv_exactly(sock, length)


def _assert_read_is_plain(sock: socket.socket, store: StoreEngine, rid,
                          relation: str, **where) -> None:
    """A read's frame equals ``encode_frame`` of the version's plain
    rows, byte for byte; ``where`` picks the version (``branch`` or
    ``at``) as in the request."""
    got = _read_frame_bytes(sock, rid, relation=relation, **where)
    version = store.graph.get(where["at"]) if "at" in where \
        else store.head_version(where.get("branch", "main"))
    assert got == encode_frame(ok_response(
        rid, relation=relation, rows=list(version.state.R(relation)),
        version=version.vid)), (rid, relation, where)


def _random_ops(rng: random.Random, state, fresh: list[dict]) -> list[dict]:
    """One seeded transaction over ``state``: a single-row insert or
    delete of a ``manager`` row, a propagating delete of a ``person``
    (which takes its ``worksfor`` and ``manager`` rows along), a
    ``replace``, or two to four single-row ops in one transaction."""

    def one() -> dict:
        managers = sorted(state.R("manager").tuples, key=repr)
        kind = rng.randrange(4)
        if kind < 2 or not managers:
            return op_record("insert", "manager", rng.choice(fresh))
        if kind == 2:
            return op_record("delete", "manager",
                             rng.choice(managers).as_dict())
        person = rng.choice(sorted(state.R("person").tuples, key=repr))
        return op_record("delete", "person", person.as_dict())

    draw = rng.random()
    if draw < 0.2:
        return random_patch_txn(rng, state)
    if draw < 0.4:
        return [one() for _ in range(rng.randint(2, 4))]
    return [one()]


def _commit(engine: StoreEngine, branch: str, ops: list[dict]) -> None:
    try:
        engine.commit(engine.begin(branch).apply_records(ops))
    except CommitRejected:
        pass  # rejected traffic leaves the head as it was


class TestReadCache:
    """The server keeps each relation's rows as per-row JSON texts and
    patches them by the rows a new relation version adds and drops;
    every frame equals the plain encoding of the version's rows."""

    @pytest.fixture()
    def engine(self):
        schema, db, constraints = serving_state(12)
        return StoreEngine(db, constraints)

    @pytest.fixture()
    def served(self, engine):
        with StoreServer(engine) as srv:
            yield srv

    @pytest.mark.parametrize("rid", [7, "req-7", 2.5, None, True])
    def test_cached_frame_is_byte_identical(self, engine, served, rid):
        """A miss and a hit each equal the frame ``encode_frame`` makes
        of the plain response, whatever scalar the id is."""
        head = engine.head_version()
        expected = encode_frame(ok_response(
            rid, relation="manager", rows=list(head.state.R("manager")),
            version=head.vid))
        with socket.create_connection(served.address, timeout=10) as sock:
            miss = _read_frame_bytes(sock, rid, relation="manager")
            hit = _read_frame_bytes(sock, rid, relation="manager")
        assert miss == expected
        assert hit == expected

    def test_read_after_commit_sees_the_commit(self, served):
        row = manager_stream(12, 1)[0]
        with StoreClient(*served.address) as c:
            before = c.read("manager")
            assert row not in before
            out = c.run([{"op": "insert", "relation": "manager",
                          "row": row}])
            rows, vid = c.read_at("manager")
        assert vid == out["version"]
        assert row in rows and len(rows) == len(before) + 1

    def test_branches_and_old_versions_read_their_own_rows(self, engine,
                                                           served):
        """Alternating reads of one relation on two branches, and an
        ``at=`` read of an older version, each return that version's
        rows."""
        old = engine.head_version().vid
        row = manager_stream(12, 1)[0]
        with StoreClient(*served.address) as c:
            c.create_branch("dev")
            c.hello("dev")
            c.run([{"op": "insert", "relation": "manager", "row": row}])
            main_rows = c.read("manager", branch="main")
            dev_rows = c.read("manager", branch="dev")
            for _ in range(2):
                assert c.read("manager", branch="main") == main_rows
                assert c.read("manager", branch="dev") == dev_rows
            assert c.read("manager", at=old) == main_rows
        assert row in dev_rows and row not in main_rows
        assert len(dev_rows) == len(main_rows) + 1

    @pytest.fixture()
    def counted(self, monkeypatch):
        """The relations iterated (sorted) and the rows encoded from
        here on: ``Relation.__iter__`` and ``Tuple.as_dict`` calls."""
        calls: dict[str, list] = {"iterated": [], "encoded": []}
        iterate, as_dict = Relation.__iter__, Tuple.as_dict

        def counting_iter(rel):
            calls["iterated"].append(rel)
            return iterate(rel)

        def counting_as_dict(t):
            calls["encoded"].append(t)
            return as_dict(t)

        monkeypatch.setattr(Relation, "__iter__", counting_iter)
        monkeypatch.setattr(Tuple, "as_dict", counting_as_dict)
        return calls

    def test_unchanged_head_is_not_re_sorted(self, served, counted):
        """A second read of an unchanged head is served from the cache:
        it neither sorts the relation nor encodes a row again (and the
        first read, a patch from no rows, encodes without sorting)."""
        with StoreClient(*served.address) as c:
            first = c.read("manager")
            encoded = len(counted["encoded"])
            second = c.read("manager")
        assert encoded == len(first) >= 1
        assert len(counted["encoded"]) == encoded
        assert counted["iterated"] == []
        assert second == first

    def test_one_row_commit_costs_one_row(self, served, counted):
        """A read after a one-row commit neither sorts the relation nor
        encodes more than the row the commit added."""
        row = manager_stream(12, 1)[0]
        with StoreClient(*served.address) as c:
            before = c.read("manager")
            c.run([op_record("insert", "manager", row)])
            counted["iterated"].clear()
            counted["encoded"].clear()
            after = c.read("manager")
        assert counted["iterated"] == []
        assert [dict(t) for t in counted["encoded"]] == [row]
        assert {frozenset(r.items()) for r in after} == \
            {frozenset(r.items()) for r in before + [row]}

    @pytest.mark.parametrize("kind", [False, 0.0])
    def test_equal_row_of_another_kind_is_refused(self, engine, served,
                                                   kind):
        """The patch matches rows by equality, so a row must not equal
        another that encodes otherwise: re-inserting a deleted manager
        with role ``false`` or ``0.0`` for ``0`` is refused, and so is a
        delete so written.  Every frame on the way equals the plain
        one."""
        victim = next(t for t in sorted(engine.state().R("manager").tuples,
                                        key=repr) if t["role"] == 0)
        row = victim.as_dict()
        other = {**row, "role": kind}
        with StoreClient(*served.address) as c, \
                socket.create_connection(served.address, timeout=10) as sock:
            _assert_read_is_plain(sock, engine, 0, "manager")
            for rid, (op, record) in enumerate(
                    (("delete", row), ("insert", other), ("insert", row),
                     ("delete", other), ("delete", row)), start=1):
                if record is other:
                    with pytest.raises(ExtensionError,
                                       match="outside its atomic value"):
                        c.run([op_record(op, "manager", record)])
                else:
                    c.run([op_record(op, "manager", record)])
                _assert_read_is_plain(sock, engine, rid, "manager")
        assert victim not in engine.state().R("manager").tuples

    @pytest.mark.parametrize("seed", range(3))
    def test_patched_frames_equal_plain_frames(self, seed):
        """Seeded traffic on two branches: after every commit, reads
        alternating between the branches, and an ``at=`` read of an
        older version, each return the frame of the plain rows."""
        rng = random.Random(seed)
        schema, db, constraints = serving_state(30)
        engine = StoreEngine(db, constraints)
        engine.branch("dev")
        fresh = manager_stream(30, 20)
        relations = ("manager", "worksfor", "person")
        with StoreServer(engine) as srv, \
                socket.create_connection(srv.address, timeout=10) as sock:
            for step in range(40):
                branch = ("main", "dev")[step % 2]
                _commit(engine, branch,
                        _random_ops(rng, engine.state(branch=branch), fresh))
                for where in ({"branch": "main"}, {"branch": "dev"},
                              {"branch": "main"}):
                    for relation in ("manager", rng.choice(relations)):
                        _assert_read_is_plain(sock, engine, step, relation,
                                              **where)
                old = rng.choice(list(engine.graph.log())).vid
                _assert_read_is_plain(sock, engine, step, "manager", at=old)

    @pytest.mark.parametrize("seed", range(2))
    def test_replica_frames_survive_catch_up_and_resync(self, seed,
                                                        tmp_path):
        """A replica server's frames equal the plain rows of its head
        after each catch-up, and after a resync, which rebuilds every
        row as an equal but distinct object."""
        rng = random.Random(100 + seed)
        schema, db, constraints = serving_state(30)
        wal_dir = tmp_path / "wal"
        engine = StoreEngine(db, constraints,
                             wal=WriteAheadLog(wal_dir, segment_records=4),
                             checkpoint_every=5)
        fresh = manager_stream(30, 20)
        replica = ReplicaEngine(wal_dir, from_checkpoint=False)
        with StoreServer(replica, sync_interval=0) as srv, \
                socket.create_connection(srv.address, timeout=10) as sock:
            for step in range(30):
                _commit(engine, "main",
                        _random_ops(rng, engine.state(), fresh))
                if step % 4 == 3:
                    replica.resync()
                else:
                    replica.catch_up()
                assert replica.head_version().vid == \
                    engine.head_version().vid
                for relation in ("manager", "worksfor"):
                    _assert_read_is_plain(sock, replica.engine, step,
                                          relation)
        replica.close()
        engine.close()


class TestReplicaServer:
    def test_write_ops_answer_read_only(self, tmp_path):
        """A replica refuses every write op with the ``read-only`` code
        the protocol promises, and the connection keeps serving."""
        schema, db, constraints = serving_state(6)
        wal = str(tmp_path / "w.log")
        engine = StoreEngine(db, constraints, wal=wal)
        replica = ReplicaEngine(wal, from_checkpoint=False)
        replica.catch_up()
        insert = {"op": "insert", "relation": "manager",
                  "row": manager_stream(6, 1)[0]}
        with StoreServer(replica) as srv:
            with StoreClient(*srv.address) as c:
                for rid, request in enumerate((
                        {"op": "commit", "ops": [insert]},
                        {"op": "branch", "name": "dev"})):
                    c.send_message({"id": rid, **request})
                    response = c.recv_message()
                    assert response["id"] == rid
                    assert response["error"]["code"] == "read-only"
                    assert c.ping()
                with pytest.raises(StoreError, match="read-only"):
                    c.run([insert])
        assert engine.head_version().vid == \
            replica.engine.head_version().vid
        replica.close()
        engine.close()


class TestConnectionBounds:
    def test_over_capacity_connection_is_refused(self):
        schema, db, constraints = serving_state(6)
        with StoreServer(StoreEngine(db, constraints),
                         max_connections=2) as srv:
            a = StoreClient(*srv.address)
            b = StoreClient(*srv.address)
            with StoreClient(*srv.address, hello=False) as c:
                response = c.recv_message()
                assert not response["ok"]
                assert response["error"]["code"] == "overloaded"
            a.close()
            # capacity freed: the next connection is served
            for _ in range(100):
                try:
                    d = StoreClient(*srv.address)
                    break
                except (StoreError, ProtocolError):
                    continue
            assert d.ping()
            d.close()
            b.close()


# ----------------------------------------------------------------------
# the malformed-frame fuzz sweep
# ----------------------------------------------------------------------
FUZZ_CASES = 240

#: Categories that end the connection (by design or by the client
#: hanging up mid-frame); everything else must be answered by a typed
#: error on the same connection.
FATAL = {"truncated-header", "truncated-payload", "oversize"}
CATEGORIES = tuple(FATAL) + (
    "bad-json", "bad-utf8", "non-object", "missing-op", "unknown-op",
    "bad-id", "bad-field-types")


def _raw_conn(server) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=10.0)
    return sock


def _fuzz_bytes(rng: random.Random, category: str,
                max_frame: int) -> bytes:
    if category == "truncated-header":
        return bytes(rng.randrange(256)
                     for _ in range(rng.randint(1, 3)))
    if category == "truncated-payload":
        declared = rng.randint(1, 128)
        return FRAME_HEADER.pack(declared) + \
            b"x" * rng.randint(0, declared - 1)
    if category == "oversize":
        return FRAME_HEADER.pack(
            rng.randint(max_frame + 1, 2**31 - 1))
    if category == "bad-json":
        junk = bytes(rng.choice(b"{}[]:,x\"' ")
                     for _ in range(rng.randint(1, 20))) or b"{"
        try:  # ensure it is genuinely invalid JSON
            json.loads(junk)
            junk += b"{"
        except Exception:
            pass
        return FRAME_HEADER.pack(len(junk)) + junk
    if category == "bad-utf8":
        junk = b"\xff\xfe" + bytes(rng.randrange(256)
                                   for _ in range(rng.randint(0, 8)))
        return FRAME_HEADER.pack(len(junk)) + junk
    if category == "non-object":
        payload = json.dumps(
            rng.choice([[1, 2], "str", 7, None, True])).encode()
        return FRAME_HEADER.pack(len(payload)) + payload
    if category == "missing-op":
        return encode_frame({"id": rng.randint(0, 99)})
    if category == "unknown-op":
        return encode_frame({"id": 1, "op": rng.choice(
            ["frobnicate", "", "commit ", "READ", "delete-everything",
             "begin", "stage"])})
    if category == "bad-id":
        return encode_frame({"id": {"nested": True}, "op": "ping"})
    assert category == "bad-field-types"
    return encode_frame(rng.choice([
        {"id": 1, "op": "read", "relation": 42},
        {"id": 2, "op": "commit", "ops": "not-a-list"},
        {"id": 3, "op": "commit", "ops": [7]},
        {"id": 4, "op": "hello", "branch": ["main"]},
        {"id": 5, "op": "branch", "name": None},
        {"id": 6, "op": "read", "relation": "dept", "at": 11},
    ]))


class TestMalformedFrameFuzz:
    def test_fuzz_sweep_never_kills_the_server(self, server):
        """>= 200 malformed frames across every category; recoverable
        ones are answered in-connection, fatal ones cost only their own
        connection, and the accept loop survives the lot."""
        rng = random.Random(0xF422)
        survivor = StoreClient(*server.address, hello=False)
        counts = {c: 0 for c in CATEGORIES}
        for case in range(FUZZ_CASES):
            category = CATEGORIES[case % len(CATEGORIES)]
            counts[category] += 1
            blob = _fuzz_bytes(rng, category, MAX_FRAME_BYTES)
            if category in FATAL:
                sock = _raw_conn(server)
                sock.sendall(blob)
                if category == "oversize":
                    # one fatal bad-frame error, then the server closes
                    decoder = FrameDecoder()
                    data = sock.recv(65536)
                    (response,) = decoder.feed(data)
                    assert response["error"]["code"] == "bad-frame"
                    assert response["error"]["fatal"] is True
                    assert sock.recv(65536) == b""  # server closed
                sock.close()
            else:
                survivor.send_raw(blob)
                response = survivor.recv_message()
                assert response["ok"] is False
                assert response["error"]["code"] in (
                    "bad-frame", "protocol-error", "store-error",
                    "extension-error")
                # same connection still serves real traffic
                assert survivor.ping()
        assert sum(counts.values()) >= 200
        assert all(counts[c] > 0 for c in CATEGORIES)
        survivor.close()
        # the accept loop is intact: fresh connections do real work
        with StoreClient(*server.address) as c:
            assert c.ping()
            assert len(c.read("dept")) > 0

    def test_interleaved_partial_frames_then_valid_traffic(self, server):
        """A frame dribbled byte-by-byte across many sends is still one
        message; a client that stalls mid-frame then resumes is fine."""
        with StoreClient(*server.address, hello=False) as c:
            frame = encode_frame({"id": 1, "op": "ping"})
            for i in range(len(frame)):
                c.send_raw(frame[i:i + 1])
            assert c.recv_message()["ok"]

    def test_disconnect_mid_frame_is_quiet(self, server):
        """Hanging up after half a frame must not disturb the server."""
        for _ in range(10):
            sock = _raw_conn(server)
            sock.sendall(FRAME_HEADER.pack(100) + b"half")
            sock.close()
        with StoreClient(*server.address) as c:
            assert c.ping()
