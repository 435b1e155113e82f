"""Model-theoretic semantics for entity-level dependencies.

The paper's soundness-and-completeness theorem (section 5.2) compares the
Armstrong system against *semantic implication*: ``fd`` follows from a
premise set when every allowable database state (an extension satisfying
the Containment Condition, the Extension Axiom, and the premises) that is
an extension of the schema satisfies ``fd``.

This module decides semantic implication exactly, by translating to the
attribute level:

* a premise ``fd(p, q, h')`` whose context generalises ``h`` contributes
  the attribute dependency ``A_p -> A_q`` inside ``h`` (this is the
  propagation theorem viewed extensionally), and
* the Extension Axiom contributes, for every compound ``c in G_h``, the
  dependency ``union of A_co over co in CO_c -> A_c`` — the injectivity of
  ``i`` means contributor parts determine the whole compound instance.

``fd(e, f, h)`` is semantically implied iff ``A_f`` lies in the attribute
closure of ``A_e`` under that theory; otherwise
:func:`counterexample_extension` produces the classical two-tuple witness,
lifted to a full consistent database state.

The reproduction finding of experiment E10
(``benchmarks/bench_e10_armstrong.py``) lives here too:
completeness of the syntactic system holds on schemas whose contexts are
*union-closed*; :func:`completeness_gap_example` exhibits the minimal
schema where a semantically valid dependency is underivable.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.armstrong import ArmstrongEngine
from repro.core.contributors import ContributorAssignment
from repro.core.entity_types import EntityType
from repro.core.extension import DatabaseExtension
from repro.core.fd import EntityFD
from repro.core.generalisation import GeneralisationStructure
from repro.core.schema import Schema
from repro.errors import DependencyError
from repro.relational import FD, closure as attr_closure


def attribute_theory(schema: Schema,
                     premises: Iterable[EntityFD],
                     context: EntityType,
                     contributors: ContributorAssignment | None = None,
                     with_extension_axiom: bool = True) -> list[FD]:
    """The attribute-level dependency theory active inside ``context``.

    Premises from contexts generalising ``context`` apply (propagation);
    the Extension Axiom adds one dependency per compound type in
    ``G_context``.  Setting ``with_extension_axiom=False`` yields the
    semantics of bare containment models — used to demonstrate that the
    A2-union rule is unsound without the axiom.
    """
    gen = GeneralisationStructure(schema)
    contributors = contributors or ContributorAssignment(schema)
    g_ctx = gen.G(context)
    theory: list[FD] = []
    for premise in premises:
        premise.validate(schema)
        if premise.context in g_ctx:
            theory.append(FD(premise.determinant.attributes, premise.dependent.attributes))
    if with_extension_axiom:
        for c in sorted(g_ctx):
            cos = contributors.contributors(c)
            if cos:
                combined = frozenset().union(*(co.attributes for co in cos))
                theory.append(FD(combined, c.attributes))
    return theory


def semantically_implies(schema: Schema,
                         premises: Iterable[EntityFD],
                         candidate: EntityFD,
                         contributors: ContributorAssignment | None = None,
                         with_extension_axiom: bool = True) -> bool:
    """Whether every allowable state satisfying the premises satisfies ``candidate``."""
    candidate.validate(schema)
    theory = attribute_theory(schema, premises, candidate.context,
                              contributors, with_extension_axiom)
    closed = attr_closure(candidate.determinant.attributes, theory)
    return candidate.dependent.attributes <= closed


def counterexample_extension(schema: Schema,
                             premises: Iterable[EntityFD],
                             candidate: EntityFD,
                             contributors: ContributorAssignment | None = None
                             ) -> DatabaseExtension | None:
    """A consistent extension satisfying the premises but not ``candidate``.

    ``None`` when the candidate is semantically implied.  The witness is
    the classical two-tuple construction: both tuples of ``R_h`` agree
    exactly on the attribute closure of the determinant; every
    generalisation of ``h`` holds the projections (so the Containment
    Condition is immaculate); all other relations are empty.  Requires
    every attribute domain to offer at least two values.
    """
    candidate.validate(schema)
    premises = list(premises)
    contributors = contributors or ContributorAssignment(schema)
    theory = attribute_theory(schema, premises, candidate.context, contributors)
    agree = attr_closure(candidate.determinant.attributes, theory)
    if candidate.dependent.attributes <= agree:
        return None
    h = candidate.context
    values: dict[str, tuple] = {}
    for a in h.attributes:
        domain = sorted(schema.universe.domain(a).values, key=repr)
        if len(domain) < 2:
            raise DependencyError(
                f"attribute {a!r} has a single-value domain; no two-tuple "
                "witness can differ on it"
            )
        values[a] = (domain[0], domain[1])
    t1 = {a: values[a][0] for a in h.attributes}
    t2 = {a: values[a][0] if a in agree else values[a][1] for a in h.attributes}
    gen = GeneralisationStructure(schema)
    relations: dict[str, list[dict]] = {}
    for g in gen.G(h):
        relations[g.name] = [
            {a: row[a] for a in g.attributes} for row in (t1, t2)
        ]
    return DatabaseExtension(schema, relations, contributors)


def agreement_report(schema: Schema,
                     premises: Iterable[EntityFD],
                     contributors: ContributorAssignment | None = None) -> dict[str, object]:
    """Compare syntactic derivability with semantic implication everywhere.

    Iterates the full statement space and classifies each dependency as
    derivable/valid.  Soundness predicts the derivable-but-invalid bucket
    is empty; the valid-but-underivable bucket measures the completeness
    gap (empty on union-closed schemas).
    """
    premises = list(premises)
    engine = ArmstrongEngine(schema, premises, contributors)
    sound_violations: list[EntityFD] = []
    completeness_gap: list[EntityFD] = []
    agree = 0
    total = 0
    for statement in engine.statement_space():
        total += 1
        derivable = engine.derivable(statement)
        valid = semantically_implies(schema, premises, statement, contributors)
        if derivable and not valid:
            sound_violations.append(statement)
        elif valid and not derivable:
            completeness_gap.append(statement)
        else:
            agree += 1
    return {
        "total": total,
        "agreements": agree,
        "sound_violations": sound_violations,
        "completeness_gap": completeness_gap,
        "agreement_rate": agree / total if total else 1.0,
    }


def is_intersection_closed(schema: Schema) -> bool:
    """Whether the entity-type family is closed under nonempty intersection.

    For all ``x, y in E`` with ``A_x intersect A_y`` nonempty, some entity
    type carries exactly that attribute set.  On such schemas the
    Armstrong system is *complete*: whenever ``A_f`` is covered by
    determined types, A2-decomposition reaches the pieces
    ``A_f intersect A_g`` (entity types by closure, hence members of the
    relevant ``G`` sets) and A2-union reassembles ``f`` from its
    contributors — the induction behind the reproduction finding of
    experiment E10 (``benchmarks/bench_e10_armstrong.py``).  The
    condition is sufficient, not necessary: the employee schema is not
    intersection-closed yet shows no gap for its natural premises.

    Notably, the paper's section-2 design guidance pushes designers toward
    exactly this closure: "the occurrence of common attributes may
    indicate that the contributing entities are relationships themselves"
    (footnote: "or a set of attributes not yet recognised as an entity
    type").
    """
    attr_sets = {e.attributes for e in schema}
    sets = sorted(attr_sets, key=lambda s: (len(s), sorted(s)))
    for i, x in enumerate(sets):
        for y in sets[i + 1:]:
            shared = x & y
            if shared and shared not in attr_sets:
                return False
    return True


def completeness_gap_example() -> tuple[Schema, list[EntityFD], EntityFD]:
    """The minimal straddle schema where completeness fails.

    Types ``a = {p}``, ``x = {q, s}``, ``y = {r, t}``, ``co = {q, r}`` and
    context ``h = {p, q, r, s, t}``.  From ``fd(a, x, h)`` and
    ``fd(a, y, h)`` the dependency ``fd(a, co, h)`` is semantically valid
    (two h-tuples agreeing on ``p`` agree on ``q`` and ``r``, hence on
    ``co``'s projection) yet underivable: ``co`` has no contributors and
    no derivation path reaches it.  Closing the schema under intersection
    (adding types for ``{q}`` and ``{r}``) restores completeness — see
    :func:`is_intersection_closed`.
    """
    schema = Schema.from_attribute_sets({
        "a": {"p"},
        "x": {"q", "s"},
        "y": {"r", "t"},
        "co": {"q", "r"},
        "h": {"p", "q", "r", "s", "t"},
    })
    premises = [
        EntityFD(schema["a"], schema["x"], schema["h"]),
        EntityFD(schema["a"], schema["y"], schema["h"]),
    ]
    candidate = EntityFD(schema["a"], schema["co"], schema["h"])
    return schema, premises, candidate


def a2_union_soundness_example() -> tuple[Schema, list[EntityFD], EntityFD]:
    """The schema showing A2-union *needs* the Extension Axiom.

    ``d = {q, r, s}`` has contributors ``b = {q}`` and ``c = {r}``; from
    ``fd(a, b, h)`` and ``fd(a, c, h)`` the union rule derives
    ``fd(a, d, h)``.  Without the Extension Axiom a containment-only model
    can agree on ``q, r`` yet differ on ``s`` — the derived dependency
    fails.  With the axiom, contributor parts determine the d-instance and
    the derivation is sound.
    """
    schema = Schema.from_attribute_sets({
        "a": {"p"},
        "b": {"q"},
        "c": {"r"},
        "d": {"q", "r", "s"},
        "h": {"p", "q", "r", "s"},
    })
    premises = [
        EntityFD(schema["a"], schema["b"], schema["h"]),
        EntityFD(schema["a"], schema["c"], schema["h"]),
    ]
    derived = EntityFD(schema["a"], schema["d"], schema["h"])
    return schema, premises, derived
