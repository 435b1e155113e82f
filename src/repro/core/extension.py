"""Database extensions (section 4).

The domain of an entity type is the product of its attribute domains,
``D_e = product of d_a over a in A_e``; the instance set ``R_e`` is a
member of ``P(D_e)`` — "in the old terminology: R_e is a relation over e
and t_e is a tuple in R_e".

Two conditions tie the extension to the intension:

* the **Containment Condition** — for ``s in S_e``,
  ``pi_e^s(R_s) subseteq R_e`` (a specialisation's instances, with the
  extra attributes forgotten, are instances of the general type), and
* the **Extension Axiom** — for compound ``e`` there is an *injective*
  ``i : E_e(e) -> join of E_c(c) over c in CO_e``: a combination of
  contributor entities forms at most one compound entity ("an employee can
  be a manager in at most one way").
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.core.contributors import ContributorAssignment
from repro.core.entity_types import EntityType
from repro.core.generalisation import GeneralisationStructure
from repro.core.schema import Schema
from repro.core.specialisation import SpecialisationStructure
from repro.errors import ContainmentError, ExtensionError
from repro.kernel import ExtensionKernel, derive_extension_kernel
from repro.relational import Relation, Tuple, join_all, project

# How far a successor state may sit from its delta-chain root before the
# chain is severed.  Severing bounds the memory a long update stream pins
# (every delta holds its parent alive) and, because a severed state
# interns afresh on demand, also compacts the append-only shared symbol
# tables that would otherwise accumulate every value ever seen.
DEFAULT_CHAIN_CAP = 1024


class StateDelta:
    """How one :class:`DatabaseExtension` was derived from its parent.

    ``added``/``removed`` map relation names to the tuples an update
    genuinely added or removed (no-op rows are filtered at construction
    of the successor).  ``changed`` is the union of the touched names —
    the dirty set the audit caches and the kernel derivation consult.
    """

    __slots__ = ("parent", "added", "removed", "changed")

    def __init__(self, parent: "DatabaseExtension",
                 added: Mapping[str, list] | None = None,
                 removed: Mapping[str, list] | None = None):
        self.parent = parent
        self.added = {name: tuple(ts) for name, ts in (added or {}).items()}
        self.removed = {name: tuple(ts) for name, ts in (removed or {}).items()}
        self.changed = frozenset(self.added) | frozenset(self.removed)

    def __repr__(self) -> str:
        return f"StateDelta(changed={sorted(self.changed)})"


class DatabaseExtension:
    """An assignment of a relation ``R_e`` to every entity type.

    Parameters
    ----------
    schema:
        The intension the extension instantiates.
    relations:
        Mapping from entity-type name to :class:`Relation` (or iterable of
        tuple-like mappings).  Missing types get empty relations.
    contributors:
        Optional designer contributor assignment; defaults to canonical
        (direct generalisations).

    The constructor validates shape (relation schema == ``A_e``) and value
    membership in the attribute domains; the Containment Condition and
    Extension Axiom are *checked on demand* so that violating states can be
    represented, diagnosed, and repaired.
    """

    def __init__(self,
                 schema: Schema,
                 relations: Mapping[str, object] | None = None,
                 contributors: ContributorAssignment | None = None):
        self.schema = schema
        self.spec = SpecialisationStructure(schema)
        self.gen = GeneralisationStructure(schema)
        self.contributors = contributors or ContributorAssignment(schema)
        self._relations: dict[EntityType, Relation] = {}
        relations = dict(relations or {})
        for name, rel in relations.items():
            e = schema[name]
            if not isinstance(rel, Relation):
                try:
                    rel = Relation(e.attributes, rel)
                except Exception as exc:
                    raise ExtensionError(
                        f"bad relation for {e.name!r}: {exc}"
                    ) from exc
            self._relations[e] = self._checked(e, rel)
        for e in schema:
            self._relations.setdefault(e, Relation(e.attributes))
        self._kernel: ExtensionKernel | None = None
        self._init_delta_state(None, 0)

    def _init_delta_state(self, delta: StateDelta | None, depth: int) -> None:
        self._delta = delta
        self._depth = depth
        # Set together when the kernel is chain-derived: the ancestor
        # state whose kernel was patched, and the id-level row changes
        # relative to it (the recheck granularity).
        self._kernel_base = None
        self._kernel_delta = None
        # Chained audit caches (see the "dirty-context audits" block
        # below): filled by the first audit of this state, consulted by
        # successor states for their clean contexts.
        self._containment_cache: dict | None = None
        self._ea_cache: dict = {}
        self._constraint_cache: dict | None = None
        self._checkset_cache: dict = {}

    @classmethod
    def _derived(cls, parent: "DatabaseExtension",
                 relations: dict[EntityType, Relation],
                 added: Mapping[str, list] | None = None,
                 removed: Mapping[str, list] | None = None
                 ) -> "DatabaseExtension":
        """A successor state sharing everything the update left alone.

        Schema, structures, contributor assignment, and every untouched
        :class:`Relation` are shared by reference; domain validation is
        the *caller's* duty for exactly the tuples it introduced (all
        other tuples were validated when their state was built).  The
        successor records the update as a :class:`StateDelta` so its
        kernel and audits derive incrementally — unless the delta chain
        has grown past :data:`DEFAULT_CHAIN_CAP`, where it is severed to
        bound memory and re-compact the shared symbol tables.
        """
        db = object.__new__(cls)
        db.schema = parent.schema
        db.spec = parent.spec
        db.gen = parent.gen
        db.contributors = parent.contributors
        db._relations = relations
        db._kernel = None
        if parent._depth + 1 >= DEFAULT_CHAIN_CAP:
            db._init_delta_state(None, 0)
        else:
            db._init_delta_state(
                StateDelta(parent, added, removed),
                parent._depth + 1,
            )
        return db

    def _checked(self, e: EntityType, rel, validate: bool = True) -> Relation:
        """``rel`` as ``R_e``: shape-checked, and domain-checked unless
        the caller vouches for its tuples."""
        if not isinstance(rel, Relation):
            rel = Relation(e.attributes, rel)
        if rel.schema != e.attributes:
            raise ExtensionError(
                f"relation for {e.name!r} has schema {sorted(rel.schema)}, "
                f"expected {sorted(e.attributes)}"
            )
        if validate:
            for t in rel.tuples:
                check_domains(self.schema.universe, e.name, t)
        return rel

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def R(self, e: EntityType | str) -> Relation:
        """The stored instance set ``R_e``."""
        return self._relations[self._resolve(e)]

    def _resolve(self, e: EntityType | str) -> EntityType:
        if isinstance(e, str):
            return self.schema[e]
        if e not in self.schema:
            raise ExtensionError(f"{e!r} is not an entity type of this schema")
        return e

    def total_instances(self) -> int:
        """Total tuple count across all relations."""
        return sum(len(r) for r in self._relations.values())

    @property
    def kernel(self) -> ExtensionKernel:
        """The shared-interned kernel view of this state, built lazily.

        All relations of the extension intern into one symbol table per
        attribute, so the cross-relation comparisons behind the
        Containment Condition and the Extension Axiom are pure id-space
        lookups.  Relations are fixed after construction (every update
        returns a new ``DatabaseExtension``), so the kernel never goes
        stale.

        A state produced by ``insert``/``delete``/``replace`` whose
        ancestor already interned *derives* its kernel through
        :mod:`repro.kernel.delta` instead of re-interning: the walk
        finds the nearest interned ancestor, flattens the intervening
        :class:`StateDelta` steps into one net row delta per relation
        (so ten single-row updates between two audits cost one patch,
        not ten), and derives in a single call, recording the ancestor
        and the id-level :class:`~repro.kernel.delta.KernelDelta` so
        audits can re-sweep only dirty lhs-groups.
        :meth:`kernel_naive` is the from-scratch oracle.
        """
        if self._kernel is not None:
            return self._kernel
        chain: list[DatabaseExtension] = []
        node = self
        while node._kernel is None and node._delta is not None:
            chain.append(node)
            node = node._delta.parent
        if node._kernel is None or not chain:
            self._kernel = self.kernel_naive()
            return self._kernel
        self._kernel, self._kernel_delta = derive_extension_kernel(
            node._kernel, self._flatten_chain(chain))
        self._kernel_base = node
        return self._kernel

    def _flatten_chain(self, chain: list["DatabaseExtension"]) -> dict:
        """One net ``(added, removed)`` item-row delta per relation for
        the whole chain (oldest step first).

        Add/remove pairs of the same row cancel.  The object-level
        updates filter no-ops, so every recorded removal was present and
        every addition absent at its step — which makes the cancellation
        exact.
        """
        acc: dict[str, tuple[set, set]] = {}  # name -> (added, removed)
        for state in reversed(chain):
            delta = state._delta
            for name, ts in delta.added.items():
                added, removed = acc.setdefault(name, (set(), set()))
                for t in ts:
                    items = tuple(t)
                    if items in removed:
                        removed.discard(items)
                    else:
                        added.add(items)
            for name, ts in delta.removed.items():
                added, removed = acc.setdefault(name, (set(), set()))
                for t in ts:
                    items = tuple(t)
                    if items in added:
                        added.discard(items)
                    else:
                        removed.add(items)
        return {name: (tuple(added), tuple(removed))
                for name, (added, removed) in acc.items()
                if added or removed}

    def kernel_naive(self) -> ExtensionKernel:
        """A from-scratch interning of this state — the full-rebuild
        oracle the delta-derived :attr:`kernel` is equivalence-tested
        against (and the only route for delta-less states)."""
        return ExtensionKernel(
            {e.name: rel for e, rel in self._relations.items()}
        )

    def sever_history(self) -> None:
        """Cut this state loose from every predecessor it references.

        Drops the :class:`StateDelta` chain, the kernel-derivation base,
        and this state's own chained audit caches; an already-derived
        kernel is kept (it is complete data, not a reference into the
        past).  The store's version-graph GC calls this on each new
        history-floor state so collected predecessors actually become
        unreachable.  Safe under concurrent readers: a reader that saw
        the old chain computes the same results, one that sees the
        severed state falls back to its full (non-incremental) route —
        the same behaviour as a chain-cap sever at derivation time.
        """
        if self._delta is None and self._kernel_base is None:
            return
        self._init_delta_state(None, 0)

    def drop_kernel_base(self) -> None:
        """Forget the ancestor this state's kernel was patched from
        (the kernel itself stays).  GC applies this to retained states
        whose kernel base was collected: the next audit loses its
        dirty-group shortcut once, instead of the base state living on
        unreachably."""
        self._kernel_base = None
        self._kernel_delta = None

    def _dirty_since(self, has_cache) -> tuple["DatabaseExtension | None", frozenset[str] | None]:
        """The nearest ancestor satisfying ``has_cache`` plus the union
        of relation names changed between it and this state.

        Returns ``(None, None)`` when the delta chain ends (or is
        severed) before such an ancestor appears — the caller then runs
        its full, non-incremental route.
        """
        dirty: set[str] = set()
        node = self
        while True:
            delta = node._delta
            if delta is None:
                return None, None
            dirty |= delta.changed
            node = delta.parent
            if has_cache(node):
                return node, frozenset(dirty)

    # ------------------------------------------------------------------
    # projections and extension mappings (section 4.1-4.2)
    # ------------------------------------------------------------------
    def pi(self, s: EntityType | str, e: EntityType | str) -> Relation:
        """``pi_e^s(R_s)`` — project the specialisation's instances onto D_e."""
        s, e = self._resolve(s), self._resolve(e)
        if not e.attributes <= s.attributes:
            raise ExtensionError(
                f"pi is only defined from a specialisation: {s.name!r} does not "
                f"carry all attributes of {e.name!r}"
            )
        return project(self.R(s), e.attributes)

    def E(self, e: EntityType | str, s: EntityType | str) -> Relation:
        """``E_e(s) = pi_e^s(R_s)`` for ``s in S_e`` — the extension mapping.

        "With this definition we take care of the situation that
        information about entity type instances might be 'stored' within
        its specialisations only."
        """
        s, e = self._resolve(s), self._resolve(e)
        if s not in self.spec.S(e):
            raise ExtensionError(f"{s.name!r} is not a specialisation of {e.name!r}")
        return self.pi(s, e)

    # ------------------------------------------------------------------
    # Containment Condition
    # ------------------------------------------------------------------
    def containment_violations(self) -> list[tuple[EntityType, EntityType, Relation]]:
        """All pairs ``(s, e)`` where ``pi_e^s(R_s)`` escapes ``R_e``.

        Returns the offending projected tuples as a relation per pair;
        empty list means the Containment Condition holds.  Each pair is a
        cached id-level projection and a set difference in the shared
        symbol space — no tuples are built unless a violation exists; the
        object-level sweep is retained as
        :func:`containment_violations_naive`.

        Re-audits of an update chain are *dirty-context* sweeps: the
        per-pair verdicts are cached on each audited state, and a
        successor re-judges only the pairs whose relations changed since
        the nearest audited ancestor, merging the cached verdicts for
        the rest.
        """
        cache = self._containment_cache
        if cache is None:
            anc, dirty = self._dirty_since(
                lambda n: n._containment_cache is not None)
            prior = anc._containment_cache if anc is not None else None
            kern = None
            cache = {}
            for e in self.schema:
                for s in self.spec.S(e):
                    if s == e:
                        continue
                    pair = (s.name, e.name)
                    if (prior is not None and s.name not in dirty
                            and e.name not in dirty):
                        cache[pair] = prior[pair]
                        continue
                    if kern is None:
                        kern = self.kernel
                    stray = kern.stray_projection(s.name, e.attributes, e.name)
                    if stray:
                        cache[pair] = Relation._trusted(
                            e.attributes,
                            (Tuple._trusted(items) for items in
                             kern.decode_named(e.attributes, stray)),
                        )
                    else:
                        cache[pair] = None
            self._containment_cache = cache
        out: list[tuple[EntityType, EntityType, Relation]] = []
        for e in self.schema:
            for s in self.spec.S(e):
                if s == e:
                    continue
                stray_rel = cache[(s.name, e.name)]
                if stray_rel is not None:
                    out.append((s, e, stray_rel))
        return out

    def containment_violations_naive(self) -> list[tuple[EntityType, EntityType, Relation]]:
        """Reference oracle for :meth:`containment_violations`."""
        out: list[tuple[EntityType, EntityType, Relation]] = []
        for e in self.schema:
            r_e = self.R(e)
            for s in self.spec.S(e):
                if s == e:
                    continue
                projected = self.pi(s, e)
                stray = projected.tuples - r_e.tuples
                if stray:
                    out.append((s, e, Relation(e.attributes, stray)))
        return out

    def satisfies_containment(self) -> bool:
        """Whether the Containment Condition holds everywhere."""
        return not self.containment_violations()

    def require_containment(self) -> None:
        """Raise :class:`ContainmentError` describing the first violation."""
        violations = self.containment_violations()
        if violations:
            s, e, stray = violations[0]
            raise ContainmentError(
                f"pi_{e.name}^{s.name}(R_{s.name}) has {len(stray)} tuple(s) "
                f"missing from R_{e.name}"
            )

    # ------------------------------------------------------------------
    # Extension Axiom
    # ------------------------------------------------------------------
    def contributor_join(self, e: EntityType | str) -> Relation:
        """``join of E_c(c) over c in CO_e`` — the bound on a compound type.

        The n-ary join runs entirely in the shared id space (one hash
        join per contributor, no per-pair symbol translations) and each
        output row is decoded once; the pairwise object-level fold is
        retained as :meth:`contributor_join_naive`.
        """
        e = self._resolve(e)
        cos = self.contributors.contributors(e)
        if not cos:
            raise ExtensionError(f"{e.name!r} has no contributors; the join is undefined")
        names, rows = self.kernel.join_named(c.name for c in sorted(cos))
        return Relation._trusted(
            frozenset(names),
            (Tuple._trusted(items) for items in
             self.kernel.decode_named(names, rows)),
        )

    def contributor_join_naive(self, e: EntityType | str) -> Relation:
        """Reference oracle for :meth:`contributor_join`."""
        e = self._resolve(e)
        cos = self.contributors.contributors(e)
        if not cos:
            raise ExtensionError(f"{e.name!r} has no contributors; the join is undefined")
        return join_all(self.R(c) for c in sorted(cos))

    def extension_axiom_violations(self, e: EntityType | str) -> dict[str, object]:
        """Diagnose the Extension Axiom for one compound type.

        The injective ``i`` sends a compound instance to its combination
        of contributor instances, i.e. to its projection onto the union of
        contributor attributes.  Two failure modes:

        * ``unsupported``: compound tuples whose contributor projection is
          not in the contributor join (information not represented by the
          contributors), and
        * ``collisions``: groups of distinct compound tuples mapping to the
          same combination (injectivity failure — "an employee can be a
          manager in at most one way" would be violated).

        Membership of a full combined-width row in the contributor join
        factorises through the contributors, so the kernel probes each
        compound row against every contributor's row set directly and the
        join is never materialised; the join-building sweep is retained
        as :meth:`extension_axiom_violations_naive`.

        Reports are cached per compound type on the state; a successor
        in an update chain re-judges a compound only when its relation
        or one of its contributors' changed since the nearest audited
        ancestor, reusing the cached report otherwise.
        """
        e = self._resolve(e)
        cos = self.contributors.contributors(e)
        if not cos:
            return {"unsupported": Relation(e.attributes), "collisions": []}
        cached = self._ea_cache.get(e.name)
        if cached is not None:
            return _copy_ea_report(cached)
        anc, dirty = self._dirty_since(lambda n: e.name in n._ea_cache)
        if anc is not None:
            touched = {e.name} | {c.name for c in cos}
            if not (touched & dirty):
                report = anc._ea_cache[e.name]
                self._ea_cache[e.name] = report
                return _copy_ea_report(report)
        kern = self.kernel
        raw_unsupported, raw_collisions = kern.compound_report(
            e.name, (c.name for c in sorted(cos))
        )
        inst = kern.instance(e.name)
        collisions = sorted(
            (sorted((Tuple._trusted(inst.decode_row(row)) for row in group),
                    key=repr)
             for group in raw_collisions),
            key=repr,
        )
        report = {
            "unsupported": Relation._trusted(
                e.attributes,
                (Tuple._trusted(inst.decode_row(row))
                 for row in raw_unsupported),
            ),
            "collisions": collisions,
        }
        self._ea_cache[e.name] = report
        return _copy_ea_report(report)

    def extension_axiom_violations_naive(self, e: EntityType | str) -> dict[str, object]:
        """Reference oracle for :meth:`extension_axiom_violations`
        (materialises the contributor join)."""
        e = self._resolve(e)
        cos = self.contributors.contributors(e)
        if not cos:
            return {"unsupported": Relation(e.attributes), "collisions": []}
        joined = self.contributor_join_naive(e)
        combined_attrs = frozenset().union(*(c.attributes for c in cos))
        unsupported: list[Tuple] = []
        groups: dict[Tuple, list[Tuple]] = {}
        for t in self.R(e).tuples:
            image = t.project(combined_attrs)
            if image not in joined.tuples:
                unsupported.append(t)
            groups.setdefault(image, []).append(t)
        # Group order is pinned (like the in-group order) so reports are
        # reproducible regardless of which route — or which predecessor
        # state's interning — produced them.
        collisions = sorted(
            (sorted(g, key=repr) for g in groups.values() if len(g) > 1),
            key=repr,
        )
        return {
            "unsupported": Relation(e.attributes, unsupported),
            "collisions": collisions,
        }

    def satisfies_extension_axiom(self, e: EntityType | str | None = None) -> bool:
        """Whether the Extension Axiom holds (for one type or all compounds)."""
        if e is not None:
            report = self.extension_axiom_violations(e)
            return not len(report["unsupported"]) and not report["collisions"]
        return all(
            self.satisfies_extension_axiom(c)
            for c in self.contributors.compound_types()
        )

    def is_consistent(self) -> bool:
        """Containment plus the Extension Axiom for every compound type."""
        return self.satisfies_containment() and self.satisfies_extension_axiom()

    # ------------------------------------------------------------------
    # updates with semantic propagation
    # ------------------------------------------------------------------
    def insert(self, e: EntityType | str, row: Mapping, propagate: bool = True) -> "DatabaseExtension":
        """Insert a tuple into ``R_e``; optionally repair containment upward.

        With ``propagate`` the projections of the new tuple are inserted
        into every proper generalisation, keeping the Containment
        Condition invariant — the semantic reading of "each manager should
        be an employee".

        The row delta lands through :meth:`apply_changes`, so the
        successor is delta-derived: only the genuinely added tuples are
        kept, untouched relations are shared, and the successor's kernel
        and audits patch the predecessor's instead of rebuilding.  An
        insert that changes nothing returns ``self``.
        """
        e = self._resolve(e)
        t = _as_tuple(e, row)
        check_domains(self.schema.universe, e.name, t)
        added = {e.name: (t,)}
        if propagate:
            for g in self.gen.proper_generalisations(e):
                added[g.name] = (t.project(g.attributes),)
        # The projections of a validated tuple are valid too.
        return self.apply_changes(added, validate=False)

    def delete(self, e: EntityType | str, row: Mapping, propagate: bool = True) -> "DatabaseExtension":
        """Delete a tuple from ``R_e``; optionally cascade to specialisations.

        With ``propagate`` every specialisation tuple projecting onto the
        deleted one is removed too, keeping containment — deleting a
        person deletes the employee and manager facts about them.

        Like :meth:`insert`, the row delta lands through
        :meth:`apply_changes`; a delete that changes nothing returns
        ``self``.  The cascade victims are found through the kernel's
        cached partition indexes when this state already interned,
        instead of projecting every specialisation tuple.
        """
        e = self._resolve(e)
        t = _as_tuple(e, row)
        removed = {e.name: (t,)}
        if propagate:
            for s in self.spec.proper_specialisations(e):
                removed[s.name] = self._projecting_onto(s, e, t)
        # Removal introduces no tuple, and the victims are R_s's own.
        return self.apply_changes(removed=removed, validate=False)

    def _projecting_onto(self, s: EntityType, e: EntityType,
                         t: Tuple) -> list[Tuple]:
        """The tuples of ``R_s`` whose projection onto ``A_e`` is ``t``.

        Routed through a partition index when an ancestor on this
        state's delta chain (or the state itself) has interned: that
        ancestor's group for ``t`` (one key lookup), plus the rows the
        chain added to ``R_s`` since, kept if still present.  This
        state's own kernel is never derived for it.  The walk to the
        ancestor costs a step per state and a check per added row, so
        it stops once that exceeds ``|R_s|``, the cost of the per-tuple
        projection scan that serves the rest: chains that never
        interned, or that are long against a small ``R_s``.
        """
        present = self.R(s).tuples
        budget = len(present)
        node, added = self, []
        while node._kernel is None and node._delta is not None \
                and budget > 0:
            delta = node._delta
            grown = delta.added.get(s.name, ())
            added.extend(grown)
            budget -= 1 + len(grown)
            node = delta.parent
        if node._kernel is None:
            return [u for u in present if u.project(e.attributes) == t]
        hits = dict.fromkeys(
            u for u in _indexed_group(node._kernel.instance(s.name),
                                      e.attributes, t)
            if u in present)
        hits.update((u, None) for u in added
                    if u in present and u.project(e.attributes) == t)
        return list(hits)

    def remove_tuples(self, e: EntityType | str, rows: Iterable) -> "DatabaseExtension":
        """Bulk non-propagating delete of ``rows`` from ``R_e``.

        The repair loops (:func:`repro.workloads.enforce_extension_axiom`)
        drop batches of victims from one relation at a time.  Rows not
        present are ignored; removing nothing returns ``self``.
        """
        return self.apply_changes(removed={self._resolve(e).name: rows})

    def replace(self, e: EntityType | str, relation: Relation | Iterable) -> "DatabaseExtension":
        """A copy with ``R_e`` wholesale replaced (no propagation).

        ``relation`` is shape-checked as ``R_e``, then lands as the row
        patch ``(relation - R_e, R_e - relation)`` through
        :meth:`apply_changes`, which domain-checks only the rows it
        brings; a replace that changes no row returns ``self``.
        """
        e = self._resolve(e)
        old = self._relations[e].tuples
        new = self._checked(e, relation, validate=False).tuples
        return self.apply_changes({e.name: new - old}, {e.name: old - new})

    def apply_changes(self,
                      added: Mapping[str, Iterable] | None = None,
                      removed: Mapping[str, Iterable] | None = None,
                      validate: bool = True) -> "DatabaseExtension":
        """Apply one batched delta in a single derivation step.

        The one successor builder: every update method above and the
        transactional store's commit land here, so a whole delta —
        tuples added, tuples removed — becomes *one* :class:`StateDelta`,
        and the successor pays one relation copy per touched relation
        and one kernel patch per step.  No semantic propagation happens
        here; the caller (an update method or a :class:`Transaction`)
        has already expanded its operations into their net row effect.

        ``added``/``removed`` map relation names to row iterables;
        rows already present (for ``added``) or absent (for ``removed``)
        are filtered out, so the recorded delta is the genuine set
        difference.  With ``validate=False`` the shape and domain checks
        on :class:`Tuple` rows are skipped — only for rows the caller has
        itself validated (an update method's projections and cascade
        victims, a transaction's buffered rows, a store replaying its
        own write-ahead log).  Returns ``self`` when nothing changes.
        """
        added, removed = added or {}, removed or {}
        trusted = not validate
        new = dict(self._relations)
        net_added: dict[str, list[Tuple]] = {}
        net_removed: dict[str, list[Tuple]] = {}
        for name, rows in removed.items():
            e = self._resolve(name)
            present = new[e].tuples
            doomed = [t for row in rows
                      if (t := _as_tuple(e, row, trusted)) in present]
            if doomed:
                new[e] = Relation._trusted(e.attributes,
                                           present.difference(doomed))
                net_removed[e.name] = doomed
        for name, rows in added.items():
            e = self._resolve(name)
            present = new[e].tuples
            fresh: dict[Tuple, None] = {}
            for row in rows:  # a loop: the common delta is one row
                t = _as_tuple(e, row, trusted)
                if t not in present:
                    fresh[t] = None
            if fresh:
                if validate:
                    for t in fresh:
                        check_domains(self.schema.universe, e.name, t)
                # _trusted: the fresh tuples were validated above (or by
                # the caller) and the existing ones by their own state.
                new[e] = Relation._trusted(e.attributes, present.union(fresh))
                net_added[e.name] = list(fresh)
        if not net_added and not net_removed:
            return self
        return DatabaseExtension._derived(self, new, net_added, net_removed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseExtension):
            return NotImplemented
        return self.schema == other.schema and self._relations == other._relations

    def __repr__(self) -> str:
        return (f"DatabaseExtension({len(self.schema)} types, "
                f"{self.total_instances()} instances)")


def check_domains(universe, relation: str, t: Tuple) -> None:
    """Raise :class:`ExtensionError` unless every value of ``t`` is a
    member of its attribute's atomic value set as stored (see
    :meth:`~repro.core.attributes.AtomicValueSet.admits`: ``True`` is
    not the member ``1``) — one pass over the tuple's items (the caller
    has already checked ``t``'s shape against ``A_e``).  So equal rows
    are the same values, and encode alike."""
    for a, value in t:
        domain = universe.domain(a)
        if not domain.admits(value):
            raise ExtensionError(
                f"value {value!r} for attribute {a!r} of {relation!r} is "
                f"outside its atomic value set {domain.name!r}")


def _as_tuple(e: EntityType, row, trusted: bool = False) -> Tuple:
    """``row`` as a :class:`Tuple`, refused unless its schema is ``A_e``;
    a ``trusted`` :class:`Tuple` (validated by the caller) passes as is."""
    t = row if isinstance(row, Tuple) else Tuple(dict(row))
    if not (trusted and t is row) and not t.has_schema(e.attributes):
        raise ExtensionError(
            f"tuple schema {sorted(t.schema)} does not match {e.name!r}")
    return t


def _indexed_group(inst, attrs: frozenset, t: Tuple) -> list[Tuple]:
    """The rows of the interned instance ``inst`` whose projection onto
    ``attrs`` is ``t``, through its cached partition index."""
    idxs = inst.indices_of(attrs)
    key = []
    # Tuple iterates sorted by attribute, matching the sorted column
    # positions of ``idxs``.
    for i, (_, value) in zip(idxs, t):
        sid = inst.tables[i].get(value)
        if sid is None:
            return []
        key.append(sid)
    rows = inst.rows
    return [Tuple._trusted(inst.decode_row(rows[r]))
            for r in inst.partition(idxs).get(tuple(key), ())]


def _copy_ea_report(report: dict) -> dict:
    """A caller-owned copy of a cached Extension-Axiom report.

    Reports are cached on the state (and inherited along delta chains),
    and their collision groups are plain lists — handing out the cached
    object would let a caller's mutation corrupt every later audit.
    Relations and Tuples are immutable, so one level of list copying
    restores the pre-caching ownership contract.
    """
    return {
        "unsupported": report["unsupported"],
        "collisions": [list(group) for group in report["collisions"]],
    }
