"""Random consistent extensions and violation injection.

Generation proceeds from the most specialised types downward: tuples are
invented for ISA leaves, every generalisation receives the projections
(Containment Condition by construction), and compound types are
deduplicated per contributor combination (Extension Axiom by
construction).  Injectors then break exactly one property at a time so
tests can confirm the detectors fire.
"""

from __future__ import annotations

import random

from repro.core.extension import DatabaseExtension
from repro.core.generalisation import GeneralisationStructure
from repro.core.schema import Schema
from repro.core.specialisation import SpecialisationStructure
from repro.errors import ExtensionError
from repro.relational import Relation, Tuple


def random_tuple(rng: random.Random, schema: Schema, attrs: frozenset[str]) -> Tuple:
    """One random tuple over ``attrs`` drawn from the attribute domains."""
    return Tuple({
        a: rng.choice(sorted(schema.universe.domain(a).values, key=repr))
        for a in sorted(attrs)
    })


def random_extension(rng: random.Random,
                     schema: Schema,
                     rows_per_leaf: int = 3) -> DatabaseExtension:
    """A random database state satisfying containment and the Extension Axiom."""
    spec = SpecialisationStructure(schema)
    gen = GeneralisationStructure(schema)
    tuples: dict[str, set[Tuple]] = {e.name: set() for e in schema}
    for leaf in sorted(spec.leaves()):
        for _ in range(rows_per_leaf):
            tuples[leaf.name].add(random_tuple(rng, schema, leaf.attributes))
    # Project downward through every generalisation.
    for e in sorted(schema, key=lambda t: -len(t.attributes)):
        for g in gen.proper_generalisations(e):
            for t in tuples[e.name]:
                tuples[g.name].add(t.project(g.attributes))
    db = DatabaseExtension(schema, {
        name: Relation(schema[name].attributes, rows)
        for name, rows in tuples.items()
    })
    return enforce_extension_axiom(db)


def enforce_extension_axiom(db: DatabaseExtension) -> DatabaseExtension:
    """Deletion-only repair to a fully consistent state.

    Iterates three repairs to a fixpoint: (1) injectivity — keep the
    lexicographically smallest compound tuple per contributor combination;
    (2) containment — drop specialisation tuples whose projection vanished;
    (3) support — drop compound tuples no longer covered by the contributor
    join.  Deletions are monotone, so the loop terminates; the
    lexicographic choice keeps generated workloads reproducible.

    Each iteration's diagnosis runs on the state's shared-interned kernel
    (batched axiom reports, and containment victims found by one id-space
    scan per violating pair instead of a per-tuple projection sweep), and
    each repair is a :meth:`~repro.core.extension.DatabaseExtension.remove_tuples`
    patch delta — so every successor state's kernel derives from its
    predecessor's and the re-diagnosis re-judges only the contexts the
    repair dirtied, instead of re-interning and re-auditing the whole
    state per iteration.  The object-level loop is retained as
    :func:`enforce_extension_axiom_naive`.
    """
    current = db
    changed = True
    while changed:
        changed = False
        for e in sorted(current.contributors.compound_types(),
                        key=lambda t: (len(t.attributes), t.name)):
            report = current.extension_axiom_violations(e)
            doomed = list(report["unsupported"].tuples)
            for group in report["collisions"]:
                doomed += sorted(group, key=repr)[1:]
            if doomed:
                current = current.remove_tuples(e, doomed)
                changed = True
        for s, e, stray in current.containment_violations():
            victims = _projecting_into(current, s, e.attributes, stray)
            if victims:
                current = current.remove_tuples(s, victims)
                changed = True
    return current


def _projecting_into(db: DatabaseExtension, s, e_attrs, stray) -> list[Tuple]:
    """The tuples of ``R_s`` whose ``e_attrs``-projection lies in ``stray``.

    One walk over the cached projection partition of the live instance:
    each stray tuple is encoded into the live symbol space (a stray value
    deleted from ``R_s`` by an earlier repair simply cannot match) and the
    matching rows are read off the partition index, instead of projecting
    every live tuple.
    """
    inst = db.kernel.instance(s.name)
    idxs = inst.indices_of(e_attrs)
    tables = [inst.tables[i] for i in idxs]
    part = inst.partition(idxs)
    rows = inst.rows
    victims: list[Tuple] = []
    for t in stray.tuples:
        key = []
        for table, (_, value) in zip(tables, t):
            sid = table.get(value)
            if sid is None:
                break
            key.append(sid)
        else:
            for r in part.get(tuple(key), ()):
                victims.append(Tuple._trusted(inst.decode_row(rows[r])))
    return victims


def enforce_extension_axiom_naive(db: DatabaseExtension) -> DatabaseExtension:
    """Reference oracle for :func:`enforce_extension_axiom` (per-tuple
    object-level repairs; identical fixpoint)."""
    current = db
    changed = True
    while changed:
        changed = False
        for e in sorted(current.contributors.compound_types(),
                        key=lambda t: (len(t.attributes), t.name)):
            report = current.extension_axiom_violations_naive(e)
            doomed = list(report["unsupported"].tuples)
            for group in report["collisions"]:
                doomed += sorted(group, key=repr)[1:]
            if doomed:
                current = current.replace(e, current.R(e).without_tuples(doomed))
                changed = True
        for s, e, stray in current.containment_violations_naive():
            victims = [
                t for t in current.R(s).tuples
                if t.project(e.attributes) in stray.tuples
            ]
            if victims:
                current = current.replace(s, current.R(s).without_tuples(victims))
                changed = True
    return current


def inject_containment_violation(rng: random.Random,
                                 db: DatabaseExtension) -> DatabaseExtension:
    """Insert a specialisation tuple *without* propagating its projections.

    The result violates the Containment Condition unless the random tuple
    happens to project onto existing instances; retried a few times to
    make a real violation likely, raising if the schema offers no ISA edge.
    """
    spec = SpecialisationStructure(db.schema)
    candidates = [e for e in db.schema if spec.proper_specialisations(e)]
    if not candidates:
        raise ExtensionError("schema has no ISA edge to violate")
    for _ in range(64):
        general = rng.choice(sorted(candidates))
        special = rng.choice(sorted(spec.proper_specialisations(general)))
        t = random_tuple(rng, db.schema, special.attributes)
        broken = db.insert(special, t, propagate=False)
        if not broken.satisfies_containment():
            return broken
    raise ExtensionError("could not construct a containment violation")


def inject_injectivity_violation(rng: random.Random,
                                 db: DatabaseExtension) -> DatabaseExtension:
    """Duplicate a compound tuple with a changed augmented attribute.

    Produces two compound instances sharing one contributor combination —
    the Extension Axiom's injectivity must flag them.  Raises when no
    compound type has augmented attributes with at least two values.
    """
    from repro.core.contributors import augmented_attributes

    compounds = sorted(db.contributors.compound_types())
    rng.shuffle(compounds)
    for e in compounds:
        extras = sorted(augmented_attributes(db.schema, e))
        if not extras or not len(db.R(e)):
            continue
        attr = extras[0]
        domain = sorted(db.schema.universe.domain(attr).values, key=repr)
        if len(domain) < 2:
            continue
        victim = sorted(db.R(e).tuples, key=repr)[0]
        changed = victim.as_dict()
        changed[attr] = domain[0] if victim[attr] != domain[0] else domain[1]
        return db.replace(e, db.R(e).with_tuples([Tuple(changed)]))
    raise ExtensionError("no compound type with a mutable augmented attribute")
