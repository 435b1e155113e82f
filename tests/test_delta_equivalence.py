"""Delta-derived kernel state vs. full rebuilds: seeded differential suites.

PR 4's contract extends the established one: the incremental layer
(:mod:`repro.kernel.delta`, the chained dirty-context audit caches, and
the patched topology maintenance) is only allowed to be *faster* than
re-interning / re-auditing / regenerating from scratch, never different.
Each property drives a seeded random update chain (or subbase/point
edit) through both routes and asserts exact agreement — decoded rows,
partition and projection indexes, audit findings, constraint verdicts,
and generated opens — including the corners: empty relations, inserts of
never-seen symbols, >64-symbol columns, no-op updates, and wholesale
replaces interleaved with patches.
"""

from __future__ import annotations

import random

import pytest

from generators import (
    random_database_states,
    random_instance_fd,
    random_relation,
    random_update_sequence,
)

from repro.core import (
    EntityFD,
    FunctionalConstraint,
    Schema,
    SubsetConstraint,
    check_all,
    check_all_naive,
)
from repro.core.evolution import (
    AddAttribute,
    AddEntityType,
    RemoveAttribute,
    RemoveEntityType,
    RenameEntityType,
    analyse,
    evolved_structure,
)
from repro.core.generalisation import GeneralisationStructure
from repro.core.specialisation import SpecialisationStructure
from repro.errors import EvolutionError, ExtensionError, SchemaError
from repro.kernel import CheckSet, InstanceKernel, derive_instance
from repro.relational import Relation, Tuple
from repro.topology import (
    space_with_subbase_member,
    space_without_subbase_member,
    topology_from_subbase,
)

N_CASES = 200
# Update-chain properties walk ~8 states per seed, so fewer seeds still
# yield well over 200 differential state comparisons per property.
N_CHAIN_SEEDS = 30
ATTRS = ["a", "b", "c", "d"]


def seeded(offset: int, n: int = N_CASES) -> list[random.Random]:
    return [random.Random(0xDE17A + offset * 10_007 + i) for i in range(n)]


def interned_state(kern, schema) -> dict:
    """A canonical, order-free view of a kernel's interned contents:
    decoded row sets, plus every cached partition and projection index
    decoded back to value space."""
    out = {}
    for e in schema:
        inst = kern.instance(e.name)
        decode = inst.decode_row
        rows = frozenset(decode(r) for r in inst.row_set)
        parts = {}
        for idxs, part in inst._partitions.items():
            names = tuple(inst.attrs[i] for i in idxs)
            columns = tuple(inst.symbols[i] for i in idxs)
            parts[names] = {
                tuple(columns[p][key[p]] for p in range(len(idxs))):
                    frozenset(decode(inst.rows[r]) for r in group)
                for key, group in part.items()
            }
        projs = {}
        for idxs, proj in inst._projections.items():
            names = tuple(inst.attrs[i] for i in idxs)
            columns = tuple(inst.symbols[i] for i in idxs)
            projs[names] = frozenset(
                tuple(columns[p][key[p]] for p in range(len(idxs)))
                for key in proj
            )
        out[e.name] = (rows, parts, projs)
    return out


def warmed(kern, schema, rng: random.Random):
    """Touch a few partition/projection indexes so patches have caches
    to maintain."""
    for e in schema:
        inst = kern.instance(e.name)
        attrs = sorted(e.attributes)
        for _ in range(2):
            subset = rng.sample(attrs, rng.randint(1, len(attrs)))
            idxs = inst.indices_of(subset)
            inst.partition(idxs)
            inst.projection(idxs)
    return kern


def chain_states(rng: random.Random, audit_every=None, constraints=None):
    """Random consistent + violating root states driven through a random
    update chain, with the root kernel warm (the delta path's trigger)."""
    out = []
    for schema, db in random_database_states(rng, n_attrs=5, n_types=4,
                                             rows_per_leaf=2):
        warmed(db.kernel, schema, rng)
        out.append((schema, random_update_sequence(
            rng, db, n_ops=8, audit_every=audit_every,
            constraints=constraints)))
    return out


# ----------------------------------------------------------------------
# Delta-derived kernels == fresh interns of the final state
# ----------------------------------------------------------------------
class TestDeltaKernelAgainstFresh:
    @pytest.mark.parametrize("rng", seeded(1, N_CHAIN_SEEDS))
    def test_update_chain_matches_fresh_intern(self, rng):
        """Every state of a random update chain: the chain-derived
        kernel equals a from-scratch intern — rows, cached partitions,
        cached projections — after decoding both to value space."""
        for schema, states in chain_states(rng):
            for db in states:
                derived = db.kernel
                fresh = db.kernel_naive()
                # Warm the fresh kernel's caches at the same indexes the
                # derived one carries, so the comparison covers them.
                for e in schema:
                    d_inst = derived.instance(e.name)
                    f_inst = fresh.instance(e.name)
                    for idxs in list(d_inst._partitions):
                        names = [d_inst.attrs[i] for i in idxs]
                        f_inst.partition(f_inst.indices_of(names))
                    for idxs in list(d_inst._projections):
                        names = [d_inst.attrs[i] for i in idxs]
                        f_inst.projection(f_inst.indices_of(names))
                assert interned_state(derived, schema) == \
                    interned_state(fresh, schema)

    @pytest.mark.parametrize("rng", seeded(2, N_CHAIN_SEEDS))
    def test_shared_tables_stay_consistent(self, rng):
        """Derived kernels share append-only symbol tables: every value
        of every live row decodes back to itself through the shared
        tables, and untouched relations share instances by reference."""
        for schema, states in chain_states(rng):
            for prev, db in zip(states, states[1:]):
                kern = db.kernel
                changed = db._delta.changed if db._delta is not None else None
                for e in schema:
                    inst = kern.instance(e.name)
                    for t in db.R(e).tuples:
                        items = tuple(t)
                        for pos, (_, value) in enumerate(items):
                            sid = inst.tables[pos][value]
                            assert inst.symbols[pos][sid] == value
                    if changed is not None and e.name not in changed \
                            and prev._kernel is not None:
                        assert inst is prev._kernel.instance(e.name)

    @pytest.mark.parametrize("rng", seeded(3, 60))
    def test_instance_patch_corners(self, rng):
        """derive_instance on raw relations: empty instances, no-op
        deltas, never-seen symbols, >64-symbol columns, and add+remove
        of the same row in one step all match a fresh intern."""
        wide = rng.random() < 0.3
        domain = 90 if wide else 3
        rel = random_relation(rng, ATTRS, max_rows=0 if rng.random() < 0.2
                              else 100 if wide else 8, domain=domain)
        parent = InstanceKernel(rel)
        attrs = sorted(rel.schema)
        idxs = parent.indices_of(rng.sample(attrs, 2))
        parent.partition(idxs)
        parent.projection(idxs)

        def row_items(values):
            return tuple(zip(attrs, values))

        added = [row_items([rng.randint(0, domain + 40) for _ in attrs])
                 for _ in range(rng.randint(0, 4))]
        removed = [tuple(t) for t in
                   rng.sample(sorted(rel.tuples, key=repr),
                              min(len(rel), rng.randint(0, 3)))]
        removed += [row_items([rng.randint(0, domain + 80) for _ in attrs])]
        if added and rng.random() < 0.5:
            removed.append(added[0])  # add+remove the same row
        groups = {key: list(group)
                  for key, group in parent.partition(idxs).items()}
        derived, delta = derive_instance(parent, added, removed)
        # The child never appends to its parent's groups; without
        # removals it shares every group its added rows leave alone.
        assert parent.partition(idxs) == groups
        if delta and not delta.removed:
            touched = {tuple(r[i] for i in idxs) for r in delta.added}
            assert {key for key, group in derived.partition(idxs).items()
                    if group is parent.partition(idxs).get(key)} \
                == set(groups) - touched
        survivors = {tuple(t) for t in rel.tuples} - set(removed)
        survivors |= set(added)
        fresh_rel = Relation(attrs, [dict(r) for r in survivors])
        fresh = InstanceKernel(fresh_rel)
        assert {derived.decode_row(r) for r in derived.row_set} == \
            {fresh.decode_row(r) for r in fresh.row_set}
        assert derived.n_rows == len(derived.row_set) == len(fresh_rel)
        # patched partition agrees with a freshly built one
        part = derived.partition(idxs)
        names = [derived.attrs[i] for i in idxs]
        fresh_part = fresh.partition(fresh.indices_of(names))
        decode = derived.decode_row
        fdecode = fresh.decode_row
        assert {
            frozenset(decode(derived.rows[r]) for r in group)
            for group in part.values()
        } == {
            frozenset(fdecode(fresh.rows[r]) for r in group)
            for group in fresh_part.values()
        }
        if not delta:
            assert derived is parent


# ----------------------------------------------------------------------
# Dirty-context audits == full audits
# ----------------------------------------------------------------------
def state_constraints(schema: Schema) -> list:
    """A small constraint set over whatever ISA pairs the schema has."""
    out = []
    spec = SpecialisationStructure(schema)
    for e in sorted(schema, key=lambda t: t.name):
        for s in sorted(spec.proper_specialisations(e)):
            out.append(SubsetConstraint(s, e))
            out.append(FunctionalConstraint(EntityFD(e, e, s)))
            if len(out) >= 6:
                return out
    return out


class TestDirtyContextAudits:
    @pytest.mark.parametrize("rng", seeded(4, N_CHAIN_SEEDS))
    def test_chained_audits_match_naive(self, rng):
        """Auditing every state of an update chain (caches warm from the
        predecessors) produces exactly the findings of the naive
        per-state audit."""
        for schema, states in chain_states(rng):
            constraints = state_constraints(schema)
            for db in states:
                routed = check_all(schema, db, constraints=constraints)
                naive = check_all_naive(schema, db, constraints=constraints)
                assert routed.findings == naive.findings

    @pytest.mark.parametrize("rng", seeded(5, N_CHAIN_SEEDS))
    def test_interleaved_audit_cadence(self, rng):
        """Audits at a coarser cadence than the updates (the bench's
        shape: several updates per audit) still agree with naive."""
        for schema, states in chain_states(rng, audit_every=3):
            constraints = state_constraints(schema)
            db = states[-1]
            routed = check_all(schema, db, constraints=constraints)
            naive = check_all_naive(schema, db, constraints=constraints)
            assert routed.findings == naive.findings
            assert db.containment_violations() == \
                db.containment_violations_naive()
            for e in sorted(db.contributors.compound_types()):
                got = db.extension_axiom_violations(e)
                want = db.extension_axiom_violations_naive(e)
                assert got["unsupported"] == want["unsupported"]
                assert got["collisions"] == want["collisions"]

    @pytest.mark.parametrize("rng", seeded(6, N_CHAIN_SEEDS))
    def test_enforce_on_derived_states_matches_naive(self, rng):
        """The repair loop (now patch-delta per iteration) reaches the
        same fixpoint as the object-level loop, also when started from a
        chain-derived state."""
        for schema, states in chain_states(rng):
            from repro.workloads import (
                enforce_extension_axiom,
                enforce_extension_axiom_naive,
            )
            db = states[-1]
            assert enforce_extension_axiom(db) == \
                enforce_extension_axiom_naive(db)


# ----------------------------------------------------------------------
# CheckSet.recheck == a fresh recorded run
# ----------------------------------------------------------------------
class TestCheckSetRecheck:
    @pytest.mark.parametrize("rng", seeded(7))
    def test_recheck_matches_fresh_run(self, rng):
        """After a row delta, rechecking only the dirty lhs-groups gives
        the verdicts of a full fresh sweep — across chained deltas."""
        rel = random_relation(rng, ATTRS, max_rows=10)
        parent = InstanceKernel(rel)
        fds = [random_instance_fd(rng, ATTRS) for _ in range(3)]
        checks = CheckSet(parent)
        for i, fd in enumerate(fds):
            checks.add_fd(("fd", i), fd.lhs, fd.rhs)
        first = checks.run(record=True)
        assert {k: v.ok for k, v in checks.run().items()} == \
            {k: v.ok for k, v in first.items()}
        inst = parent
        live = checks
        attrs = sorted(rel.schema)
        for _ in range(3):
            added = [tuple(zip(attrs, [rng.randint(0, 4) for _ in attrs]))
                     for _ in range(rng.randint(0, 3))]
            removed = [inst.decode_row(r) for r in
                       rng.sample(sorted(inst.row_set),
                                  min(len(inst.row_set), rng.randint(0, 2)))]
            inst, delta = derive_instance(inst, added, removed)
            live = live.rebound(inst)
            got = live.recheck(delta.added, delta.removed)
            fresh = CheckSet(inst)
            for i, fd in enumerate(fds):
                fresh.add_fd(("fd", i), fd.lhs, fd.rhs)
            want = fresh.run()
            assert {k: v.ok for k, v in got.items()} == \
                {k: v.ok for k, v in want.items()}

    def test_recheck_requires_recorded_run(self):
        inst = InstanceKernel(Relation(ATTRS))
        checks = CheckSet(inst).add_fd("k", {"a"}, {"b"})
        checks.run()
        with pytest.raises(ValueError):
            checks.recheck((), ())


# ----------------------------------------------------------------------
# Incremental topology maintenance == regeneration
# ----------------------------------------------------------------------
def random_named_types(rng: random.Random, attrs, n_max=7):
    from repro.core.entity_types import EntityType

    seen, types = set(), []
    for i in range(rng.randint(1, n_max)):
        s = frozenset(rng.sample(attrs, rng.randint(1, len(attrs))))
        if s not in seen:
            seen.add(s)
            types.append(EntityType(f"t{i}", s))
    return types, seen


@pytest.fixture(scope="module")
def topo_universe():
    from repro.core.attributes import AttributeUniverse

    attrs = list("abcdef")
    return attrs, AttributeUniverse.from_values({a: [0, 1] for a in attrs})


class TestIncrementalTopology:
    @pytest.mark.parametrize("rng", seeded(8))
    def test_structures_evolve_like_regeneration(self, rng, topo_universe):
        """with_type_added/removed on built specialisation and
        generalisation structures equal full regeneration — opens,
        carrier, and every minimal open."""
        from repro.core.entity_types import EntityType

        attrs, auni = topo_universe
        types, seen = random_named_types(rng, attrs)
        schema = Schema(auni, types)
        spec = SpecialisationStructure(schema)
        gen = GeneralisationStructure(schema)
        spec.space, gen.space  # build both

        new_set = frozenset(rng.sample(attrs, rng.randint(1, len(attrs))))
        if new_set not in seen:
            t = EntityType("fresh", new_set)
            grown = schema.with_entity_type(t)
            for derived, oracle in (
                (spec.with_type_added(grown, t), SpecialisationStructure(grown)),
                (gen.with_type_added(grown, t), GeneralisationStructure(grown)),
            ):
                assert derived.space.opens == oracle.space.opens
                assert derived.space.points == oracle.space.points
                assert all(derived.space.minimal_open(p)
                           == oracle.space.minimal_open(p)
                           for p in oracle.space.points)
        if len(types) > 1:
            victim = rng.choice(types)
            shrunk = schema.without_entity_type(victim.name)
            for derived, oracle in (
                (spec.with_type_removed(shrunk, victim),
                 SpecialisationStructure(shrunk)),
                (gen.with_type_removed(shrunk, victim),
                 GeneralisationStructure(shrunk)),
            ):
                assert derived.space.opens == oracle.space.opens
                assert derived.space.points == oracle.space.points
                assert all(derived.space.minimal_open(p)
                           == oracle.space.minimal_open(p)
                           for p in oracle.space.points)

    @pytest.mark.parametrize("rng", seeded(9))
    def test_subbase_member_edits_match_regeneration(self, rng):
        """The generic subbase-member add/remove patches equal the
        section-3.1 generation on the edited family — including empty
        members, duplicate members, and the whole-carrier member."""
        pts = [f"p{i}" for i in range(rng.randint(1, 8))]
        fam = [frozenset(rng.sample(pts, rng.randint(0, len(pts))))
               for _ in range(rng.randint(0, 5))]
        space = topology_from_subbase(pts, fam)
        member = rng.choice(
            [frozenset(rng.sample(pts, rng.randint(0, len(pts)))),
             frozenset(pts), frozenset()])
        grown = space_with_subbase_member(space, member)
        assert grown.opens == topology_from_subbase(pts, fam + [member]).opens
        assert all(grown.minimal_open(p) ==
                   topology_from_subbase(pts, fam + [member]).minimal_open(p)
                   for p in grown.points)
        if fam:
            gone = rng.choice(fam)
            rest = [m for m in fam if m != gone]
            shrunk = space_without_subbase_member(space, rest, gone)
            assert shrunk.opens == topology_from_subbase(pts, rest).opens

    @pytest.mark.parametrize("rng", seeded(10, 80))
    def test_evolution_analysis_uses_patched_spaces(self, rng, topo_universe):
        """analyse() with the incremental space derivation produces the
        same embedding verdict as regenerating both spaces."""
        from repro.core.evolution import intension_map
        from repro.core.extension import DatabaseExtension

        attrs, auni = topo_universe
        types, seen = random_named_types(rng, attrs, n_max=5)
        schema = Schema(auni, types)
        db = DatabaseExtension(schema)
        changes = [RenameEntityType(types[0].name, "renamed")]
        new_set = frozenset(rng.sample(attrs, rng.randint(1, len(attrs))))
        if new_set not in seen:
            changes.append(AddEntityType("fresh", new_set))
        if len(types) > 1:
            changes.append(RemoveEntityType(types[-1].name))
        victim = rng.choice(types)
        missing = [a for a in attrs if a not in victim.attributes]
        if missing and (victim.attributes | {missing[0]}) not in seen:
            changes.append(AddAttribute(victim.name, missing[0], default=0))
        if len(victim.attributes) > 1:
            gone = sorted(victim.attributes)[0]
            if (victim.attributes - {gone}) not in seen:
                changes.append(RemoveAttribute(victim.name, gone))
        for change in changes:
            try:
                new_schema = change.apply(schema)
            except (SchemaError, EvolutionError):
                continue
            derived = evolved_structure(db.spec, change, new_schema)
            oracle = SpecialisationStructure(new_schema)
            assert derived.space.opens == oracle.space.opens
            assert derived.space.points == oracle.space.points
            report = analyse(db, change)
            mapping = change.type_mapping(schema, new_schema)
            try:
                embeds = intension_map(schema, new_schema, mapping).is_embedding()
            except EvolutionError:
                embeds = False
            assert report.intension_embeds == embeds


# ----------------------------------------------------------------------
# Update-method validation (satellite bugfixes) and memo behaviour
# ----------------------------------------------------------------------
class TestUpdateValidation:
    @pytest.fixture()
    def db(self):
        schema = Schema.from_attribute_sets(
            {"person": {"name"}, "employee": {"name", "dept"}},
            domains={"name": ["a", "b", "c"], "dept": [1, 2]},
        )
        from repro.core.extension import DatabaseExtension

        return DatabaseExtension(schema, {
            "person": [{"name": "a"}],
            "employee": [{"name": "a", "dept": 1}],
        })

    def test_delete_rejects_mismatched_schema(self, db):
        """delete used to silently no-op on a row of the wrong shape;
        it must validate exactly as insert does."""
        with pytest.raises(ExtensionError):
            db.delete("person", {"name": "a", "dept": 1})
        with pytest.raises(ExtensionError):
            db.delete("employee", {"name": "a"})

    def test_remove_tuples_rejects_mismatched_schema(self, db):
        with pytest.raises(ExtensionError):
            db.remove_tuples("person", [{"bogus": 1}])

    def test_replace_rejects_wrong_attribute_relation(self, db):
        with pytest.raises(ExtensionError):
            db.replace("person", Relation({"name", "dept"},
                                          [{"name": "a", "dept": 1}]))
        with pytest.raises(ExtensionError):  # no rows to check, still refused
            db.replace("person", Relation({"name", "dept"}))
        with pytest.raises(ExtensionError):
            db.replace("person", [{"name": "zzz-not-in-domain"}])

    def test_noop_updates_return_self(self, db):
        assert db.insert("person", {"name": "a"}) is db
        assert db.delete("person", {"name": "c"}, propagate=False) is db
        assert db.remove_tuples("employee", []) is db
        assert db.replace("person", db.R("person")) is db
        assert db.replace("employee", [{"name": "a", "dept": 1}]) is db

    def test_delete_validation_happens_before_mutation(self, db):
        before = dict(db._relations)
        try:
            db.delete("person", {"name": "a", "dept": 1})
        except ExtensionError:
            pass
        assert db._relations == before


# ----------------------------------------------------------------------
# apply_changes as the one successor builder
# ----------------------------------------------------------------------
class TestOneSuccessorBuilder:
    """``insert``/``delete``/``remove_tuples``/``replace`` each work out
    a row delta and hand it to ``apply_changes``: the successor records
    exactly the rows that changed, and shares every untouched relation
    with its parent."""

    @pytest.fixture()
    def db(self):
        from repro.core.employee import employee_extension

        return employee_extension()

    def test_propagating_insert_records_only_new_projections(self, db):
        bob = {"name": "bob", "age": 42, "depname": "research"}
        new = db.insert("manager", {**bob, "budget": 100})
        # bob is already an employee and a person: only R_manager grows.
        assert dict(new._delta.added) == {
            "manager": tuple(new.R("manager").tuples
                             - db.R("manager").tuples)}
        assert not new._delta.removed
        for e in db.schema:
            if e.name != "manager":
                assert new._relations[e] is db._relations[e]

        eva = {"name": "eva", "age": 35, "depname": "sales", "budget": 500}
        newer = db.insert("manager", eva)
        manager = db.schema["manager"]
        expected = {"manager", *(g.name for g in
                                 db.gen.proper_generalisations(manager))}
        assert set(newer._delta.added) == expected
        for name in expected:
            assert newer.R(name).tuples - db.R(name).tuples == \
                set(newer._delta.added[name])

    def test_cascading_delete_same_with_and_without_kernel(self):
        """``delete`` finds its cascade victims through the partition
        index of an interned state and by a projection scan otherwise;
        both must pick the same rows."""
        from repro.core.extension import DatabaseExtension
        from repro.workloads.extensions import random_tuple

        compared = 0
        for seed in range(N_CHAIN_SEEDS):
            rng = random.Random(seed)
            (schema, db), *_ = random_database_states(rng)
            interned = db
            interned.kernel  # the partition-index route
            scanned = DatabaseExtension(
                schema, {e.name: db.R(e) for e in schema})
            assert scanned._kernel is None  # the projection-scan route
            for e in sorted(schema, key=lambda t: t.name):
                rows = sorted(db.R(e).tuples, key=repr)[:2]
                rows.append(random_tuple(rng, schema, e.attributes))
                for row in rows:
                    a = interned.delete(e.name, row)
                    b = scanned.delete(e.name, row)
                    assert a == b, f"seed={seed} {e.name} {row}"
                    if a is interned:
                        assert b is scanned
                        continue
                    assert {n: set(ts) for n, ts in a._delta.removed.items()} \
                        == {n: set(ts) for n, ts in b._delta.removed.items()}
                    compared += 1
        assert compared >= 100

    def test_cascading_delete_on_derived_states_matches_the_scan(
            self, monkeypatch):
        """A state derived from an interned root by a random update
        chain (patches and wholesale replaces) finds the same cascade
        victims through the root's partition index as a never-interned
        copy finds by scanning."""
        from repro.core import extension
        from repro.core.extension import DatabaseExtension
        from repro.workloads.extensions import random_tuple

        lookups = []
        group = extension._indexed_group
        monkeypatch.setattr(
            extension, "_indexed_group",
            lambda *args: lookups.append(args) or group(*args))
        compared = 0
        for seed in range(N_CHAIN_SEEDS):
            rng = random.Random(500 + seed)
            (schema, root), *_ = random_database_states(rng)
            root.kernel
            derived = random_update_sequence(rng, root, n_ops=6)[-1]
            scanned = DatabaseExtension(
                schema, {e.name: derived.R(e) for e in schema})
            for e in sorted(schema, key=lambda t: t.name):
                rows = sorted(derived.R(e).tuples, key=repr)[:2]
                rows.append(random_tuple(rng, schema, e.attributes))
                for row in rows:
                    a = derived.delete(e.name, row)
                    b = scanned.delete(e.name, row)
                    assert a == b, f"seed={seed} {e.name} {row}"
                    if a is not derived:
                        assert {n: set(ts) for n, ts
                                in a._delta.removed.items()} == \
                            {n: set(ts) for n, ts
                             in b._delta.removed.items()}
                        compared += 1
        assert compared >= 100 and len(lookups) >= N_CHAIN_SEEDS

    def test_delete_after_interned_root_takes_the_index_route(
            self, monkeypatch):
        """A propagating delete on a state a few inserts past an
        interned root projects only the rows those inserts added, not
        every tuple of the specialisation, and derives no kernel."""
        from repro.relational import Tuple
        from repro.workloads.sessions import manager_stream, serving_state

        schema, root, _ = serving_state(30)
        root.kernel
        new_rows = manager_stream(30, 3)
        state = root
        for row in new_rows:
            state = state.insert("manager", row)
        victim = {k: new_rows[0][k]
                  for k in schema["worksfor"].attributes}
        projected = []
        project = Tuple.project
        monkeypatch.setattr(
            Tuple, "project",
            lambda t, attrs: projected.append(t) or project(t, attrs))
        after = state.delete("worksfor", victim)
        monkeypatch.undo()
        assert state._kernel is None
        assert len(projected) <= len(new_rows) < len(state.R("manager"))
        assert after.R("manager").tuples == state.R("manager").tuples - {
            Tuple(new_rows[0])}

    def test_remove_tuples_and_replace_record_their_delta(self, db):
        ann = {"name": "ann", "age": 31, "depname": "sales", "budget": 250}
        ghost = {"name": "dee", "age": 53, "depname": "sales", "budget": 100}
        dropped = db.remove_tuples("manager", [ann, ghost])
        assert [t.as_dict() for t in dropped._delta.removed["manager"]] \
            == [ann]  # the absent row is not recorded
        assert not dropped._delta.added
        assert dropped.R("employee") is db.R("employee")  # no cascade

    def test_replace_records_a_row_patch(self, db):
        old = db.R("department").tuples
        utrecht = Tuple({"depname": "sales", "location": "utrecht"})
        swapped = db.replace("department", [utrecht.as_dict()])
        assert swapped._delta.added == {"department": (utrecht,)}
        assert set(swapped._delta.removed["department"]) == old - {utrecht}
        assert swapped._delta.changed == {"department"}
        assert swapped.R("department").tuples == {utrecht}
        for e in db.schema:
            if e.name != "department":
                assert swapped._relations[e] is db._relations[e]


class TestInstanceMemoLRU:
    def test_eviction_is_lru_not_wholesale(self):
        from repro.kernel import instance as instance_mod

        saved_memo = dict(instance_mod._INSTANCE_MEMO)
        saved_cap = instance_mod._INSTANCE_MEMO_CAP
        try:
            instance_mod._INSTANCE_MEMO.clear()
            instance_mod._INSTANCE_MEMO_CAP = 3
            rels = [Relation(["a"], [{"a": i}]) for i in range(4)]
            first = [InstanceKernel.of(r) for r in rels[:3]]
            # Touch rels[0] so rels[1] is the LRU entry, then overflow.
            assert InstanceKernel.of(rels[0]) is first[0]
            InstanceKernel.of(rels[3])
            assert rels[1] not in instance_mod._INSTANCE_MEMO
            assert InstanceKernel.of(rels[0]) is first[0]
            assert InstanceKernel.of(rels[2]) is first[2]
        finally:
            instance_mod._INSTANCE_MEMO.clear()
            instance_mod._INSTANCE_MEMO.update(saved_memo)
            instance_mod._INSTANCE_MEMO_CAP = saved_cap
