"""Session traffic generation for the store's serving workloads.

The serving fixture is the five-type state of the axiom-sweep benches
(two compound types, five containment pairs, constraints over three
context relations) — relocated here so benches, the CLI ``serve``
command, and the concurrency stress tests all drive the same shape.
Traffic generators produce *op records* — ``{"op", "relation",
"row"|"rows", "propagate"}`` dicts, the form the WAL logs and the wire
``commit`` frame carries, parsed only by
:meth:`repro.store.Transaction.apply_records` — rather than applying
anything, so the same stream can be fed to an embedded session, a
:class:`~repro.server.StoreClient`, or a single-threaded oracle.
"""

from __future__ import annotations

import random

from repro.core import (
    CardinalityConstraint,
    DatabaseExtension,
    EntityFD,
    FunctionalConstraint,
    ParticipationConstraint,
    Schema,
    SubsetConstraint,
)


def serving_state(n: int):
    """A consistent five-type state with ~n rows per relation.

    ``person`` and ``dept`` overlap on ``dname`` so the contributor join
    of the compound ``worksfor`` stays linear; ``manager`` specialises
    ``worksfor`` and ``office`` compounds ``dept``, giving audits two
    compound types, five ISA containment pairs, and constraints over
    three different context relations.  Returns ``(schema, db,
    constraints)``.
    """
    schema = Schema.from_attribute_sets(
        {
            "person": {"pname", "dname"},
            "dept": {"dname", "budget"},
            "worksfor": {"pname", "dname", "budget", "role"},
            "manager": {"pname", "dname", "budget", "role", "bonus"},
            "office": {"dname", "budget", "floor"},
        },
        domains={
            "pname": range(n), "dname": range(n), "budget": range(53),
            "role": range(7), "bonus": range(11), "floor": range(11),
        },
    )
    dept_of = [(i * 3 + 1) % n for i in range(n)]
    depts = [{"dname": j, "budget": j % 53} for j in range(n)]
    persons = [{"pname": i, "dname": dept_of[i]} for i in range(n)]
    worksfor = [
        {"pname": i, "dname": dept_of[i], "budget": dept_of[i] % 53,
         "role": i % 7}
        for i in range(n)
    ]
    managers = [dict(w, bonus=w["pname"] % 11) for w in worksfor
                if w["pname"] % 3 == 0]
    offices = [{"dname": j, "budget": j % 53, "floor": j % 11}
               for j in range(n)]
    db = DatabaseExtension(schema, {
        "person": persons, "dept": depts, "worksfor": worksfor,
        "manager": managers, "office": offices,
    })
    constraints = [
        FunctionalConstraint(EntityFD(schema["person"], schema["dept"],
                                      schema["worksfor"])),
        CardinalityConstraint(schema["worksfor"], schema["person"],
                              schema["dept"], "1:n"),
        FunctionalConstraint(EntityFD(schema["person"], schema["worksfor"],
                                      schema["manager"])),
        SubsetConstraint(schema["manager"], schema["worksfor"]),
        SubsetConstraint(schema["worksfor"], schema["person"]),
        ParticipationConstraint(schema["worksfor"], schema["person"]),
        ParticipationConstraint(schema["office"], schema["dept"]),
    ]
    return schema, db, constraints


def manager_stream(n: int, count: int) -> list[dict]:
    """``count`` fresh, axiom-preserving ``manager`` rows for
    ``serving_state(n)``.

    ``pname % 3 != 0`` names employees who are not yet managers, and
    each row projects onto an existing ``worksfor`` row, so inserting
    any subset keeps every axiom satisfied; distinct ``pname`` per row
    means distinct rows are footprint-disjoint (different lhs-groups of
    every probe set), so partitioned writers never touch each other's
    groups.
    """
    dept_of = [(i * 3 + 1) % n for i in range(n)]
    slots = [i for i in range(n) if i % 3]
    if count > len(slots):
        raise ValueError(
            f"only {len(slots)} fresh manager slots at n={n}, "
            f"asked for {count}")
    return [
        {"pname": i, "dname": dept_of[i], "budget": dept_of[i] % 53,
         "role": i % 7, "bonus": (i + 5) % 11}
        for i in slots[:count]
    ]


def op_record(kind: str, relation: str, row: dict,
              propagate: bool = True) -> dict:
    """One ``insert``/``delete`` op record."""
    return {"op": kind, "relation": relation, "row": row,
            "propagate": propagate}


def disjoint_commit_specs(rows: list[dict], writers: int,
                          relation: str = "manager",
                          ) -> list[list[list[dict]]]:
    """Round-robin ``rows`` into per-writer single-op commits:
    ``result[w]`` is writer ``w``'s list of transactions, each one
    ``insert`` record — the disjoint-writer workload of the throughput
    bench and the stress tests."""
    out: list[list[list[dict]]] = [[] for _ in range(writers)]
    for i, row in enumerate(rows):
        out[i % writers].append([op_record("insert", relation, row)])
    return out


def contended_commit_specs(rows: list[dict], writers: int,
                           relation: str = "manager",
                           ) -> list[list[list[dict]]]:
    """Every writer gets *every* row (insert-wins races on identical
    rows plus footprint collisions) — the contended mix.  Duplicate
    inserts net to no-ops; the interesting part is that the store stays
    serializable while writers collide."""
    return [[[op_record("insert", relation, row)] for row in rows]
            for _ in range(writers)]


def random_txn_specs(rng: random.Random, db: DatabaseExtension,
                     n_txns: int, ops_per_txn: int = 2) -> list[list[dict]]:
    """Random mixed transactions over an arbitrary state: inserts of
    random in-domain rows and deletes of existing or random rows, with
    and without propagation.  Commits may legitimately be rejected
    (that's traffic too); callers count outcomes.
    """
    from repro.workloads.extensions import random_tuple

    schema = db.schema
    types = sorted(schema, key=lambda t: t.name)
    specs: list[list[dict]] = []
    for _ in range(n_txns):
        ops: list[dict] = []
        for _ in range(rng.randint(1, ops_per_txn)):
            e = rng.choice(types)
            if rng.random() < 0.6:
                ops.append(op_record(
                    "insert", e.name,
                    random_tuple(rng, schema, e.attributes).as_dict(),
                    rng.random() < 0.8))
            else:
                pool = sorted(db.R(e).tuples, key=repr)
                row = rng.choice(pool).as_dict() if pool and \
                    rng.random() < 0.8 else \
                    random_tuple(rng, schema, e.attributes).as_dict()
                ops.append(op_record("delete", e.name, row,
                                     rng.random() < 0.8))
        specs.append(ops)
    return specs
