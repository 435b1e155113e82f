"""The six design axioms as machine-checkable validators (section 2).

Each axiom gets a checker returning a list of :class:`AxiomFinding`
diagnostics; :func:`check_all` aggregates them into an :class:`AxiomReport`
for a schema (intension-level axioms) or a full database state (adding the
extension-level axioms).  Constructors elsewhere already *enforce* several
of these; the checkers re-derive the verdicts independently so audits do
not rely on construction-time behaviour.

The extension-level checkers are *sweeps*, not single predicates: one
audit probes every compound type, every ISA pair, and every integrity
constraint against the same state.  They therefore run on the state's
shared-interned kernel (:attr:`DatabaseExtension.kernel`) and batch the
constraint checks through :class:`repro.kernel.CheckSet`, grouping
dependencies by context relation and determinant so each partition index
is built once for the whole audit.  ``check_*_naive`` counterparts retain
the per-constraint object-level routes as differential oracles (and as
the baseline of benchmark A7).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.attributes import AttributeUniverse, is_atomic_value
from repro.core.contributors import ContributorAssignment
from repro.core.entity_types import EntityType
from repro.core.extension import DatabaseExtension
from repro.core.fd import holds_naive as _entity_fd_holds_naive
from repro.core.integrity import (
    CardinalityConstraint,
    FunctionalConstraint,
    IntegrityConstraint,
    ParticipationConstraint,
    SubsetConstraint,
)
from repro.core.schema import Schema
from repro.core.views import EntityViewType
from repro.errors import DependencyError
from repro.kernel import CheckSet
from repro.relational.algebra import project_naive


@dataclass(frozen=True)
class AxiomFinding:
    """One diagnostic: which axiom, what's wrong, who is involved."""

    axiom: str
    message: str
    offenders: tuple = ()

    def __str__(self) -> str:
        return f"[{self.axiom}] {self.message}"


@dataclass
class AxiomReport:
    """Aggregated findings, queryable per axiom."""

    findings: list[AxiomFinding] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.findings

    def by_axiom(self, axiom: str) -> list[AxiomFinding]:
        return [f for f in self.findings if f.axiom == axiom]

    def render(self) -> str:
        if self.ok():
            return "all axioms satisfied"
        return "\n".join(str(f) for f in self.findings)


def check_attribute_axiom(universe: AttributeUniverse) -> list[AxiomFinding]:
    """Each attribute: one property name, one atomic value set, atomic values.

    The sweep walks every value of every domain, which dominates
    repeated audits of large-domain states; universes are immutable, so
    the findings are memoised per universe (bounded, identity-keyed —
    the memo pins the universe so ids cannot be recycled underneath it).
    """
    cached = _ATTRIBUTE_AXIOM_MEMO.get(id(universe))
    if cached is not None and cached[0] is universe:
        return list(cached[1])
    findings = []
    for name in sorted(universe.property_names):
        domain = universe.domain(name)
        for value in domain.values:
            if not is_atomic_value(value):
                findings.append(AxiomFinding(
                    "Attribute Axiom",
                    f"property {name!r} admits decomposable value {value!r}",
                    (name, value),
                ))
    if len(_ATTRIBUTE_AXIOM_MEMO) >= _ATTRIBUTE_AXIOM_MEMO_CAP:
        _ATTRIBUTE_AXIOM_MEMO.clear()
    _ATTRIBUTE_AXIOM_MEMO[id(universe)] = (universe, tuple(findings))
    return findings


_ATTRIBUTE_AXIOM_MEMO: dict = {}
_ATTRIBUTE_AXIOM_MEMO_CAP = 64


def check_entity_type_axiom(entity_types: Iterable[EntityType]) -> list[AxiomFinding]:
    """No two entity types may share a property set."""
    findings = []
    seen: dict[frozenset[str], EntityType] = {}
    for et in sorted(entity_types):
        twin = seen.get(et.attributes)
        if twin is not None:
            findings.append(AxiomFinding(
                "Entity Type Axiom",
                f"{twin.name!r} and {et.name!r} share the property set "
                f"{sorted(et.attributes)}: synonyms or missing role attribute",
                (twin, et),
            ))
        else:
            seen[et.attributes] = et
    return findings


def check_relationship_axiom(schema: Schema,
                             contributors: ContributorAssignment) -> list[AxiomFinding]:
    """A relationship is an entity type; contributors are generalisations.

    Structurally, compound types being members of E discharges the axiom;
    the remaining checkable content is the contributor Property and that
    each compound's attribute set really unions its contributors' plus
    descriptive extras (it always does, set-theoretically — reported when
    a contributor is somehow not contained, which indicates an assignment
    constructed against a different schema).
    """
    findings = []
    for e in schema.sorted_types():
        for c in sorted(contributors.contributors(e)):
            if c not in schema:
                findings.append(AxiomFinding(
                    "Relationship Axiom",
                    f"contributor {c.name!r} of {e.name!r} is not an entity type",
                    (e, c),
                ))
            elif not c.attributes <= e.attributes:
                findings.append(AxiomFinding(
                    "Relationship Axiom",
                    f"contributor {c.name!r} is not a generalisation of {e.name!r}",
                    (e, c),
                ))
    return findings


def check_extension_axiom(db: DatabaseExtension) -> list[AxiomFinding]:
    """Compound extensions embed injectively in their contributor joins.

    The per-type reports run on the shared kernel (join membership
    factorised through the contributors); the object-level sweep is
    retained as :func:`check_extension_axiom_naive`.
    """
    return _extension_axiom_findings(db, DatabaseExtension.extension_axiom_violations)


def check_extension_axiom_naive(db: DatabaseExtension) -> list[AxiomFinding]:
    """Reference oracle for :func:`check_extension_axiom` (per-type
    contributor joins materialised at the object level)."""
    return _extension_axiom_findings(
        db, DatabaseExtension.extension_axiom_violations_naive
    )


def _extension_axiom_findings(db: DatabaseExtension, report_of) -> list[AxiomFinding]:
    findings = []
    for e in sorted(db.contributors.compound_types()):
        report = report_of(db, e)
        for t in report["unsupported"]:
            findings.append(AxiomFinding(
                "Extension Axiom",
                f"R_{e.name} tuple {t!r} is not supported by the contributor join",
                (e, t),
            ))
        for group in report["collisions"]:
            findings.append(AxiomFinding(
                "Extension Axiom",
                f"R_{e.name} tuples {group!r} share one contributor combination "
                "(injectivity fails)",
                (e, tuple(group)),
            ))
    return findings


def check_view_axiom(schema: Schema,
                     views: Iterable[EntityViewType]) -> list[AxiomFinding]:
    """Views are sets of existing entity types."""
    findings = []
    for view in views:
        for member in sorted(view.members):
            if member not in schema:
                findings.append(AxiomFinding(
                    "View Axiom",
                    f"view {view.name!r} aggregates {member.name!r}, which is "
                    "not an entity type of the schema",
                    (view, member),
                ))
    return findings


def check_integrity_axiom(schema: Schema,
                          constraints: Iterable[IntegrityConstraint],
                          db: DatabaseExtension | None = None) -> list[AxiomFinding]:
    """Constraints are predicates over entity types, implying an entity type.

    With a database state the audit additionally judges each well-typed
    constraint *against* the state: all entity-level dependencies are
    compiled into one :class:`~repro.kernel.CheckSet` per context
    relation (shared-interned, so constraints with a common determinant
    share its partition index) and the set-containment constraints run
    as id-space projections on the same kernel.  The per-constraint
    route is retained as :func:`check_integrity_axiom_naive`.
    """
    findings, checkable = _integrity_typing_findings(schema, constraints)
    if db is not None and checkable:
        ill_typed, judged = _split_ill_typed(checkable, schema)
        findings += ill_typed
        verdicts = _batch_constraint_verdicts(judged, db)
        findings += _violated_constraint_findings(judged, verdicts)
    return findings


def check_integrity_axiom_naive(schema: Schema,
                                constraints: Iterable[IntegrityConstraint],
                                db: DatabaseExtension | None = None) -> list[AxiomFinding]:
    """Reference oracle for :func:`check_integrity_axiom` (one
    object-level check per constraint)."""
    findings, checkable = _integrity_typing_findings(schema, constraints)
    if db is not None and checkable:
        ill_typed, judged = _split_ill_typed(checkable, schema)
        findings += ill_typed
        verdicts = [_constraint_holds_naive(c, db) for c in judged]
        findings += _violated_constraint_findings(judged, verdicts)
    return findings


def _integrity_typing_findings(schema: Schema,
                               constraints: Iterable[IntegrityConstraint],
                               ) -> tuple[list[AxiomFinding], list[IntegrityConstraint]]:
    """The classic typing findings plus the well-typed constraints."""
    findings = []
    checkable = []
    for constraint in constraints:
        well_typed = True
        for e in sorted(constraint.entity_types() | {constraint.context}):
            if e not in schema:
                findings.append(AxiomFinding(
                    "Integrity Axiom",
                    f"constraint {constraint.name!r} ranges over {e.name!r}, "
                    "which is not an entity type",
                    (constraint, e),
                ))
                well_typed = False
        if well_typed:
            checkable.append(constraint)
    return findings, checkable


def _constraint_fds(c: IntegrityConstraint) -> list:
    """The entity-level FDs a built-in constraint compiles to."""
    if isinstance(c, FunctionalConstraint):
        return [c.fd]
    if isinstance(c, CardinalityConstraint):
        return c.as_fds()
    return []


def _split_ill_typed(constraints: list[IntegrityConstraint], schema: Schema,
                     ) -> tuple[list[AxiomFinding], list[IntegrityConstraint]]:
    """Report FD-bearing constraints whose dependency typing is illegal.

    ``EntityFD`` values are deliberately unvalidated at construction
    ("constructed in bulk by generators before filtering"), so an audit
    may meet a constraint whose determinant or dependent is in the
    schema yet not a generalisation of the context.  Judging it against
    a state would raise mid-audit; instead the audit reports it as an
    Integrity Axiom finding and skips its verdict — the same policy as
    for constraints over missing entity types.
    """
    findings, judged = [], []
    for c in constraints:
        try:
            for fd in _constraint_fds(c):
                fd.validate(schema)
        except DependencyError as exc:
            findings.append(AxiomFinding(
                "Integrity Axiom",
                f"constraint {c.name!r} is ill-typed: {exc}",
                (c,),
            ))
            continue
        judged.append(c)
    return findings, judged


def _violated_constraint_findings(constraints: list[IntegrityConstraint],
                                  verdicts: list[bool]) -> list[AxiomFinding]:
    return [
        AxiomFinding(
            "Integrity Axiom",
            f"constraint {c.name!r} is violated in the current state",
            (c,),
        )
        for c, ok in zip(constraints, verdicts) if not ok
    ]


def _constraint_reads(c: IntegrityConstraint) -> frozenset[str] | None:
    """The relation names a built-in constraint's verdict depends on
    (``None`` for unknown kinds, whose ``holds`` may read anything)."""
    if isinstance(c, (FunctionalConstraint, CardinalityConstraint)):
        return frozenset({c.context.name})
    if isinstance(c, SubsetConstraint):
        return frozenset({c.special.name, c.general.name})
    if isinstance(c, ParticipationConstraint):
        return frozenset({c.relationship.name, c.member.name})
    return None


def _chain_delta_rows(db: DatabaseExtension, anc: DatabaseExtension,
                      name: str) -> tuple[list, list] | None:
    """Accumulated (added, removed) id rows of relation ``name`` between
    ``anc`` and ``db``, or ``None`` when the span is not patch-derived
    (a never-derived kernel, or ``anc`` not on the derivation path).

    Kernel derivation flattens whole update spans into one patch, so
    the walk hops from each derived state to its recorded derivation
    base (typically audit point to audit point) rather than stepping
    the per-update delta chain.
    """
    added: list = []
    removed: list = []
    node = db
    while node is not anc:
        kdelta, base = node._kernel_delta, node._kernel_base
        if kdelta is None or base is None:
            return None
        idelta = kdelta.instances.get(name)
        if idelta is not None:
            added += idelta.added
            removed += idelta.removed
        node = base
    return added, removed


def _batch_constraint_verdicts(constraints: list[IntegrityConstraint],
                               db: DatabaseExtension) -> list[bool]:
    """One verdict per constraint, batched on the shared kernel.

    Entity-level FDs are grouped into one ``CheckSet`` per context
    relation; subset/participation constraints are id-space projection
    containments; unknown constraint kinds fall back to their own
    ``holds``.

    Audits of an update chain are incremental: verdicts are cached per
    state, a successor reuses the nearest audited ancestor's verdict for
    every constraint whose relations did not change, and a dirty context
    whose compiled ``CheckSet`` survived from that ancestor re-sweeps
    only the lhs-groups the chain's id-row delta touched
    (:meth:`~repro.kernel.CheckSet.recheck`).
    """
    kern = db.kernel
    if db._constraint_cache is not None:
        # A repeat audit of an already-audited state: the state is its
        # own nearest audited ancestor at distance zero (empty dirty
        # set), matching the self-check-first behaviour of the
        # containment and Extension-Axiom caches.
        anc, dirty = db, frozenset()
    else:
        anc, dirty = db._dirty_since(
            lambda n: n._constraint_cache is not None)
    prior = anc._constraint_cache if anc is not None else None
    cache: dict = {}
    verdicts = [True] * len(constraints)
    checksets: dict[str, CheckSet] = {}
    next_key: dict[str, int] = {}
    fd_keys: list[list[tuple[str, int]]] = [[] for _ in constraints]
    judged_fd: list[int] = []
    for i, c in enumerate(constraints):
        reads = _constraint_reads(c)
        if (prior is not None and reads is not None and c in prior
                and not (reads & dirty)):
            verdicts[i] = cache[c] = prior[c]
            continue
        if isinstance(c, (FunctionalConstraint, CardinalityConstraint)):
            fds = _constraint_fds(c)
        elif isinstance(c, SubsetConstraint):
            verdicts[i] = cache[c] = not kern.stray_projection(
                c.special.name, c.general.attributes, c.general.name
            )
            continue
        elif isinstance(c, ParticipationConstraint):
            covered = kern.project_named(
                c.relationship.name, c.member.attributes
            )
            verdicts[i] = cache[c] = \
                kern.instance(c.member.name).row_set <= covered
            continue
        else:
            verdicts[i] = cache[c] = c.holds(db)
            continue
        # Typing was vetted by _split_ill_typed before verdicts are
        # requested, so compilation cannot raise here.
        judged_fd.append(i)
        for fd in fds:
            context = fd.context.name
            checkset = checksets.get(context)
            if checkset is None:
                checkset = checksets[context] = CheckSet(kern.instance(context))
            key = (context, next_key.get(context, 0))
            next_key[context] = key[1] + 1
            checkset.add_fd(key, fd.determinant.attributes,
                            fd.dependent.attributes)
            fd_keys[i].append(key)
    results: dict = {}
    for context, checkset in checksets.items():
        results.update(_run_context_checkset(db, anc, context, checkset))
    for i in judged_fd:
        verdicts[i] = cache[constraints[i]] = \
            all(results[k].ok for k in fd_keys[i])
    if anc is not None and anc is not db:
        # Carry clean contexts' compiled sets forward so a later audit
        # that dirties them can still recheck instead of re-sweeping.
        # Sharing is safe: recheck only ever runs on a rebound copy.
        for context, checkset in anc._checkset_cache.items():
            if context not in db._checkset_cache and context not in dirty:
                db._checkset_cache[context] = checkset
    db._constraint_cache = cache
    return verdicts


def _run_context_checkset(db: DatabaseExtension,
                          anc: DatabaseExtension | None,
                          context: str, compiled: CheckSet) -> dict:
    """Verdicts for one context's FD set: a dirty re-sweep of only the
    touched lhs-groups when the ancestor's compiled set and the chain's
    id-row delta allow it, a full recorded run otherwise."""
    if anc is not None:
        old = anc._checkset_cache.get(context)
        if (old is not None and old._violating is not None
                and old._fds == compiled._fds and not old._mvds
                and not old._jds):
            delta_rows = _chain_delta_rows(db, anc, context)
            if delta_rows is not None:
                rebound = old.rebound(compiled.instance)
                results = rebound.recheck(*delta_rows)
                db._checkset_cache[context] = rebound
                return results
    results = compiled.run(record=True)
    db._checkset_cache[context] = compiled
    return results


def _constraint_holds_naive(c: IntegrityConstraint, db: DatabaseExtension) -> bool:
    """The per-constraint object-level verdict (no kernel routes)."""
    if isinstance(c, FunctionalConstraint):
        return _entity_fd_holds_naive(c.fd, db)
    if isinstance(c, CardinalityConstraint):
        return all(_entity_fd_holds_naive(fd, db) for fd in c.as_fds())
    if isinstance(c, SubsetConstraint):
        return project_naive(
            db.R(c.special), c.general.attributes
        ).is_subset_of(db.R(c.general))
    if isinstance(c, ParticipationConstraint):
        covered = project_naive(db.R(c.relationship), c.member.attributes)
        return db.R(c.member).tuples <= covered.tuples
    return c.holds(db)


def check_containment(db: DatabaseExtension) -> list[AxiomFinding]:
    """The Containment Condition, reported in axiom style.

    Not one of the six axioms by name, but the section 4 condition the
    whole extension mapping rests on — included in full-state audits.
    Violations come from the shared kernel's id-space projections;
    :func:`check_containment_naive` retains the object-level sweep.
    """
    return _containment_findings(db.containment_violations())


def check_containment_naive(db: DatabaseExtension) -> list[AxiomFinding]:
    """Reference oracle for :func:`check_containment`."""
    return _containment_findings(db.containment_violations_naive())


def _containment_findings(violations) -> list[AxiomFinding]:
    return [
        AxiomFinding(
            "Containment Condition",
            f"pi_{e.name}^{s.name}(R_{s.name}) has {len(stray)} tuple(s) "
            f"outside R_{e.name}",
            (s, e),
        )
        for s, e, stray in violations
    ]


def check_all(schema: Schema,
              db: DatabaseExtension | None = None,
              views: Iterable[EntityViewType] = (),
              constraints: Iterable[IntegrityConstraint] = (),
              contributors: ContributorAssignment | None = None) -> AxiomReport:
    """Run every applicable checker and aggregate the findings.

    With a database state this is the paper's full audit — the
    Containment Condition, the Extension Axiom over every compound type,
    and every integrity constraint judged against the state — executed
    as batched sweeps over the state's shared-interned kernel.  The
    per-constraint object-level route is retained as
    :func:`check_all_naive` (the A7 baseline).
    """
    contributors = contributors or ContributorAssignment(schema)
    report = AxiomReport()
    report.findings += check_attribute_axiom(schema.universe)
    report.findings += check_entity_type_axiom(schema.entity_types)
    report.findings += check_relationship_axiom(schema, contributors)
    report.findings += check_view_axiom(schema, views)
    report.findings += check_integrity_axiom(schema, constraints, db)
    if db is not None:
        report.findings += check_containment(db)
        report.findings += check_extension_axiom(db)
    return report


def check_all_naive(schema: Schema,
                    db: DatabaseExtension | None = None,
                    views: Iterable[EntityViewType] = (),
                    constraints: Iterable[IntegrityConstraint] = (),
                    contributors: ContributorAssignment | None = None) -> AxiomReport:
    """Reference oracle for :func:`check_all`: identical findings, but
    every extension-level check runs its per-constraint object-level
    route (naive projections, materialised joins, one pass per
    constraint)."""
    contributors = contributors or ContributorAssignment(schema)
    report = AxiomReport()
    report.findings += check_attribute_axiom(schema.universe)
    report.findings += check_entity_type_axiom(schema.entity_types)
    report.findings += check_relationship_axiom(schema, contributors)
    report.findings += check_view_axiom(schema, views)
    report.findings += check_integrity_axiom_naive(schema, constraints, db)
    if db is not None:
        report.findings += check_containment_naive(db)
        report.findings += check_extension_axiom_naive(db)
    return report
