"""Shared seeded random-instance generators for the differential suites.

Every kernel-vs-naive equivalence test draws its inputs from here so the
case distributions stay consistent across suites: set families and FD
sets for the PR-1 kernels (topology generation, closure, chase) and
relation instances, MVDs, JDs, and decompositions with known
lossless/lossy status for the instance kernel.  All generators are pure
functions of the passed ``random.Random``, keeping every suite
reproducible from its seed.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

from repro.relational import FD, MVD, JoinDependency, Relation
from repro.relational.algebra import join_all_naive, project_naive
from repro.store import (
    ProbeIndex,
    Transaction,
    ValidationPlan,
    WalCursor,
    WriteAheadLog,
)


def chaos_seeds(count: int, base: int | None = None) -> list[int]:
    """Seeds for a chaos sweep: ``base + i`` for ``i < count``.

    ``base`` defaults to the ``REPRO_CHAOS_SEED`` environment variable
    (0 when unset), which the CI chaos lane forwards from the workflow
    env and prints in its step name — so a failing nightly seed is
    replayed locally verbatim by exporting the same value.  Assertion
    messages in the sweeps carry the individual seed, so either way
    the failing case is one env var away."""
    if base is None:
        base = int(os.environ.get("REPRO_CHAOS_SEED", "0") or "0")
    return [base + i for i in range(count)]


def last_segment(wal_dir) -> Path:
    """The segment a WAL directory appends to — the file crash and
    tamper tests cut or edit in place."""
    return WriteAheadLog.segment_paths(wal_dir)[-1]


def wal_records(wal_dir) -> list[dict]:
    """Every record a fresh cursor reads from the log — the one WAL
    reader replay and replicas share (an unterminated final line stays
    unread; corruption raises)."""
    return WalCursor(wal_dir).poll()


def random_family(rng: random.Random, points: list[str]) -> list[frozenset[str]]:
    """A small random family of subsets of ``points`` (may repeat/overlap)."""
    n_sets = rng.randint(0, 6)
    return [
        frozenset(rng.sample(points, rng.randint(0, len(points))))
        for _ in range(n_sets)
    ]


def random_fds(rng: random.Random, attrs: list[str], max_fds: int) -> list[FD]:
    """Up to ``max_fds`` random FDs with small sides over ``attrs``."""
    out = []
    for _ in range(rng.randint(0, max_fds)):
        lhs = rng.sample(attrs, rng.randint(0, min(3, len(attrs) - 1)))
        rhs = rng.sample(attrs, rng.randint(1, min(3, len(attrs))))
        out.append(FD(lhs, rhs))
    return out


def random_relation(rng: random.Random, attrs: list[str],
                    max_rows: int = 8, domain: int = 3) -> Relation:
    """A random relation over ``attrs`` with values in ``0..domain-1``.

    The small domain keeps agreement on lhs-groups (and therefore both
    satisfied and violated dependencies) common rather than vanishingly
    rare.
    """
    rows = [
        {a: rng.randint(0, domain - 1) for a in attrs}
        for _ in range(rng.randint(0, max_rows))
    ]
    return Relation(attrs, rows)


def random_attr_subset(rng: random.Random, attrs: list[str],
                       min_size: int = 0) -> frozenset[str]:
    """A random subset of ``attrs`` of size at least ``min_size``."""
    return frozenset(rng.sample(attrs, rng.randint(min_size, len(attrs))))


def random_instance_fd(rng: random.Random, attrs: list[str]) -> FD:
    """One random FD whose sides lie inside ``attrs`` (rhs nonempty)."""
    lhs = rng.sample(attrs, rng.randint(0, len(attrs)))
    rhs = rng.sample(attrs, rng.randint(1, len(attrs)))
    return FD(lhs, rhs)


def random_mvd(rng: random.Random, attrs: list[str]) -> MVD:
    """One random MVD over the universe ``attrs``."""
    lhs = rng.sample(attrs, rng.randint(0, len(attrs)))
    rhs = rng.sample(attrs, rng.randint(0, len(attrs)))
    return MVD(lhs, rhs, attrs)


def random_cover(rng: random.Random, attrs: list[str],
                 max_parts: int = 4) -> list[frozenset[str]]:
    """Random attribute subsets patched to cover ``attrs`` exactly.

    Any attribute the sampled parts miss is appended to a random part,
    so the result is always a legal decomposition of the universe.
    """
    parts = [
        set(rng.sample(attrs, rng.randint(1, len(attrs))))
        for _ in range(rng.randint(1, max_parts))
    ]
    missing = set(attrs) - set().union(*parts)
    for a in missing:
        rng.choice(parts).add(a)
    return [frozenset(p) for p in parts]


def random_jd(rng: random.Random, attrs: list[str],
              max_components: int = 4) -> JoinDependency:
    """One random JD whose components cover the universe ``attrs``."""
    return JoinDependency(random_cover(rng, attrs, max_components), attrs)


def lossless_instance(rng: random.Random, attrs: list[str],
                      parts: list[frozenset[str]],
                      max_rows: int = 8, domain: int = 3) -> Relation:
    """A relation that is lossless for ``parts`` by construction.

    Joining the projections of any relation yields a fixpoint of
    project-then-join (each part's projection of the join equals the
    part's projection of the original), so the join of a random seed
    relation's projections is a known-lossless instance.  Built from the
    naive operators only, keeping the construction independent of the
    kernel under test.
    """
    seed = random_relation(rng, attrs, max_rows=max_rows, domain=domain)
    return join_all_naive(project_naive(seed, part) for part in parts)


def random_database_states(rng: random.Random,
                           n_attrs: int = 6, n_types: int = 5,
                           rows_per_leaf: int = 3) -> list:
    """A random schema's consistent extension plus injected-violation
    states (containment break, injectivity break) when the schema shape
    admits them.  Returns ``[(schema, db), ...]`` — the substrate of the
    batch-vs-sequential extension sweeps.
    """
    from repro.errors import ExtensionError
    from repro.workloads import (
        inject_containment_violation,
        inject_injectivity_violation,
        random_extension,
        random_schema,
    )
    from repro.workloads.schemas import SHAPES

    schema = random_schema(rng, n_attrs=n_attrs, n_types=n_types,
                           shape=rng.choice(SHAPES))
    db = random_extension(rng, schema, rows_per_leaf=rows_per_leaf)
    states = [(schema, db)]
    for inject in (inject_containment_violation, inject_injectivity_violation):
        try:
            states.append((schema, inject(rng, db)))
        except ExtensionError:
            pass  # shape offers no ISA edge / mutable compound to break
    return states


def random_update_sequence(rng: random.Random, db, n_ops: int = 8,
                           audit_every: int | None = None,
                           constraints: list | None = None) -> list:
    """Drive ``db`` through a random ``insert``/``delete``/``replace``/
    ``remove_tuples`` sequence, returning every intermediate state.

    The substrate of the delta-equivalence suite: each step exercises
    the patch-derived kernel path (new-symbol inserts, deletes of
    existing and of absent rows, propagating and non-propagating
    updates, bulk removals, wholesale replaces).  With ``audit_every``
    the chain is additionally audited (``check_all``) at that cadence so
    the dirty-context caches are warm mid-sequence, which is exactly the
    update-serving workload.  Returns ``[db, state_1, ..., state_n]``.
    """
    from repro.core import check_all
    from repro.workloads.extensions import random_tuple

    schema = db.schema
    types = sorted(schema, key=lambda t: t.name)
    states = [db]
    for step in range(n_ops):
        op = rng.choice(("insert", "delete", "replace", "remove"))
        e = rng.choice(types)
        if op == "insert":
            db = db.insert(e, random_tuple(rng, schema, e.attributes),
                           propagate=rng.random() < 0.7)
        elif op == "delete":
            pool = sorted(db.R(e).tuples, key=repr)
            if pool and rng.random() < 0.8:
                t = rng.choice(pool)
            else:
                t = random_tuple(rng, schema, e.attributes)
            db = db.delete(e, t, propagate=rng.random() < 0.7)
        elif op == "remove":
            pool = sorted(db.R(e).tuples, key=repr)
            db = db.remove_tuples(
                e, rng.sample(pool, min(len(pool), rng.randint(0, 3))))
        else:
            db = db.replace(e, [random_tuple(rng, schema, e.attributes)
                                for _ in range(rng.randint(0, 3))])
        states.append(db)
        if audit_every and (step + 1) % audit_every == 0:
            check_all(schema, db, constraints=constraints or ())
    return states


def lossy_case(rng: random.Random,
               n_rows: int = 3) -> tuple[Relation, list[frozenset[str]]]:
    """A relation/decomposition pair that is lossy by construction.

    ``n_rows >= 2`` diagonal tuples over ``{a, b}`` split into ``{a}``
    and ``{b}``: the join manufactures all ``n_rows**2`` combinations.
    """
    n_rows = max(2, n_rows)
    rows = [{"a": i, "b": rng.randint(0, 1) * n_rows + i} for i in range(n_rows)]
    return Relation(["a", "b"], rows), [frozenset("a"), frozenset("b")]


# ----------------------------------------------------------------------
# wire-protocol messages (PR 7 frame codec and fuzz suites)
# ----------------------------------------------------------------------

def random_json_value(rng: random.Random, depth: int = 0):
    """An arbitrary JSON value; nesting thins out with ``depth`` so
    generated messages stay small but exercise every shape."""
    choices = ["null", "bool", "int", "float", "string"]
    if depth < 3:
        choices += ["list", "dict"]
    kind = rng.choice(choices)
    if kind == "null":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randint(-10**9, 10**9)
    if kind == "float":
        # repr-exact floats survive a JSON round trip bit-for-bit
        return rng.randint(-10**6, 10**6) / 64
    if kind == "string":
        alphabet = "abcXYZ 0123é世界\\\"{}[]\n\t"
        return "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 12)))
    if kind == "list":
        return [random_json_value(rng, depth + 1)
                for _ in range(rng.randint(0, 4))]
    return {f"k{i}": random_json_value(rng, depth + 1)
            for i in range(rng.randint(0, 4))}


def random_frame_message(rng: random.Random) -> dict:
    """A random JSON-object message (the only payload shape frames
    carry); sometimes request-shaped, sometimes arbitrary."""
    message = {f"f{i}": random_json_value(rng)
               for i in range(rng.randint(0, 5))}
    if rng.random() < 0.5:
        message["id"] = rng.choice([rng.randint(0, 999), "rid", None])
    if rng.random() < 0.5:
        message["op"] = rng.choice(["ping", "hello", "read", "nosuch"])
    return message


def random_patch_txn(rng: random.Random, db) -> list[dict]:
    """One random transaction over ``db`` whose first op is a ``replace``;
    a ``remove``, ``insert`` or ``delete`` record may follow.

    A replace keeps each current row with a drawn probability, may swap
    a kept row for a copy with one of the type's own attributes (those
    no generalisation has) changed, and may add a random in-domain row,
    so it drops rows, brings rows, or keeps the relation as is.  Most
    replaces target ``manager``, whose rows nothing contains: dropping
    them, or changing a bonus, is admissible, which keeps accepted
    replaces common.
    The ops are records (the :meth:`Session.run` form); every draw walks
    attributes and rows in sorted order, so a seed fixes the transaction
    whatever the interpreter's hash seed.
    """
    from repro.workloads import op_record

    schema = db.schema
    types = sorted(schema, key=lambda t: t.name)

    def rows_of(e):
        return sorted(db.R(e).tuples, key=repr)

    def value(a):
        return rng.choice(sorted(schema.universe.domain(a).values, key=repr))

    def random_row(e):
        return {a: value(a) for a in sorted(e.attributes)}

    def mutated(e, t):
        inherited = set().union(*(g.attributes for g in
                                  db.gen.proper_generalisations(e)))
        a = rng.choice(sorted(e.attributes - inherited or e.attributes))
        return dict(t.as_dict(), **{a: value(a)})

    e = schema["manager"] if rng.random() < 0.6 else rng.choice(types)
    rows = rows_of(e)
    p_keep = rng.choice((1.0, 1.0, 0.95, 0.8))
    keep = [t for t in rows if rng.random() < p_keep]
    if keep and rng.random() < 0.4:
        keep.append(mutated(e, keep.pop(rng.randrange(len(keep)))))
    keep = [dict(t) for t in keep]
    if rng.random() < 0.1:
        keep.append(random_row(e))
    ops = [{"op": "replace", "relation": e.name, "rows": keep}]
    if rng.random() < 0.3:
        e = rng.choice(types)
        rows = rows_of(e)
        kind = rng.choice(("remove", "insert", "delete"))
        if kind == "remove":
            doomed = [t.as_dict() for t in
                      rng.sample(rows, min(len(rows), rng.randint(0, 2)))]
            if rng.random() < 0.3:
                doomed.append(random_row(e))
            ops.append({"op": "remove", "relation": e.name,
                        "rows": doomed})
        elif kind == "insert" or not rows:
            row = mutated(e, rng.choice(rows)) if rows else random_row(e)
            ops.append(op_record("insert", e.name, row, rng.random() < 0.8))
        else:
            ops.append(op_record("delete", e.name, rng.choice(rows).as_dict(),
                                 rng.random() < 0.8))
    return ops


def fresh_net_changes(txn, state):
    """``txn``'s net effect against ``state``, its delete cascades read
    off a :class:`ProbeIndex` built fresh for ``state`` — so an oracle
    never leans on the engine's incrementally maintained index."""
    return txn.net_changes(state, ProbeIndex(ValidationPlan(state), state))


def assert_serializable(engine, branch="main"):
    """The serializability oracle: replaying the committed ops serially,
    single-threaded, reproduces every state of ``branch``."""
    versions = list(engine.graph.log(branch))
    state = versions[0].state
    for version in versions[1:]:
        txn = Transaction(engine.schema, branch)
        txn.ops = list(version.ops)
        changes = fresh_net_changes(txn, state)
        state = state.apply_changes(changes.added, changes.removed)
        assert state == version.state, version.vid
    return state


def assert_graphs_equal(a, b):
    """Head-for-head, state-for-state equality of two engines."""
    assert a.graph.branches() == b.graph.branches()
    assert len(a.graph) == len(b.graph)
    for name in a.graph.branches():
        assert a.state(branch=name) == b.state(branch=name), name


def audit_oracle(engine, ops) -> tuple:
    """Judge one transaction against the engine's main head with the full
    audit alone: the commit gate's differential oracle.

    ``ops`` are op records (the :meth:`Session.run` form).  They are
    buffered on ``engine.begin()``, netted against the head and applied
    without validation; the verdict is ``"ok"`` iff ``check_all``
    passes the candidate, and ``"noop"`` for an empty net delta.  Nothing
    is committed.  Returns ``(verdict, txn, candidate)``."""
    from repro.core import check_all

    txn = engine.begin().apply_records(ops)
    head = engine.state(branch=txn.branch)
    changes = fresh_net_changes(txn, head)
    if not changes:
        return "noop", txn, head
    candidate = head.apply_changes(changes.added, changes.removed,
                                   validate=False)
    report = check_all(engine.schema, candidate,
                       constraints=engine.constraints,
                       contributors=candidate.contributors)
    return ("ok" if report.ok() else "rejected"), txn, candidate
