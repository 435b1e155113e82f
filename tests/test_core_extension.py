"""Unit tests for database extensions (section 4)."""

import pytest

from repro.core import DatabaseExtension
from repro.errors import ContainmentError, ExtensionError
from repro.relational import Relation, Tuple


class TestConstruction:
    def test_missing_relations_default_empty(self, schema):
        db = DatabaseExtension(schema)
        for e in schema:
            assert len(db.R(e)) == 0

    def test_schema_shape_checked(self, schema):
        with pytest.raises(ExtensionError):
            DatabaseExtension(schema, {"person": [{"name": "ann"}]})

    def test_domain_membership_checked(self, schema):
        with pytest.raises(ExtensionError):
            DatabaseExtension(schema, {
                "person": [{"name": "ann", "age": 999}],
            })

    def test_lookup_by_name_or_type(self, db, schema):
        assert db.R("person") == db.R(schema["person"])

    def test_unknown_type_rejected(self, db):
        from repro.core import EntityType

        with pytest.raises(ExtensionError):
            db.R(EntityType("alien", {"name"}))

    def test_total_instances(self, db):
        assert db.total_instances() == sum(len(db.R(e)) for e in db.schema)


class TestProjections:
    def test_pi_projects(self, db, schema):
        projected = db.pi("manager", "person")
        assert projected.schema == schema["person"].attributes
        assert len(projected) == 1

    def test_pi_requires_specialisation(self, db):
        with pytest.raises(ExtensionError):
            db.pi("person", "manager")

    def test_E_mapping(self, db, schema):
        """E_e(s): information about e stored in its specialisation s."""
        via_manager = db.E("person", "manager")
        assert via_manager.is_subset_of(db.R("person"))

    def test_E_requires_s_in_S_e(self, db):
        with pytest.raises(ExtensionError):
            db.E("manager", "person")


class TestContainment:
    def test_clean_state(self, db):
        assert db.satisfies_containment()
        assert db.containment_violations() == []
        db.require_containment()

    def test_violation_detected(self, db, schema):
        broken = db.insert(
            "manager",
            {"name": "eva", "age": 47, "depname": "admin", "budget": 100},
            propagate=False,
        )
        violations = broken.containment_violations()
        assert violations
        pairs = {(s.name, e.name) for s, e, _ in violations}
        assert ("manager", "employee") in pairs
        with pytest.raises(ContainmentError):
            broken.require_containment()

    def test_propagating_insert_keeps_containment(self, db):
        grown = db.insert(
            "manager",
            {"name": "eva", "age": 47, "depname": "admin", "budget": 100},
        )
        assert grown.satisfies_containment()
        assert {"name": "eva", "age": 47} in grown.R("person")

    def test_propagating_delete_cascades(self, db):
        shrunk = db.delete("person", {"name": "ann", "age": 31})
        assert len(shrunk.R("manager")) == 0
        assert shrunk.satisfies_containment()

    def test_nonpropagating_delete_breaks_containment(self, db):
        shrunk = db.delete("person", {"name": "ann", "age": 31}, propagate=False)
        assert not shrunk.satisfies_containment()


class TestExtensionAxiom:
    def test_clean_state(self, db):
        assert db.satisfies_extension_axiom()
        assert db.is_consistent()

    def test_contributor_join(self, db, schema):
        joined = db.contributor_join("worksfor")
        assert joined.schema == schema["worksfor"].attributes
        assert db.R("worksfor").is_subset_of(joined)

    def test_join_undefined_for_primitive(self, db):
        with pytest.raises(ExtensionError):
            db.contributor_join("person")

    def test_injectivity_violation_detected(self, db):
        # A second manager tuple for the same employee: "an employee can
        # be a manager in at most one way" fails.
        broken = db.replace("manager", db.R("manager").with_tuples([
            {"name": "ann", "age": 31, "depname": "sales", "budget": 500},
        ]))
        report = broken.extension_axiom_violations("manager")
        assert report["collisions"]
        assert not broken.satisfies_extension_axiom("manager")

    def test_unsupported_tuple_detected(self, db):
        broken = db.replace("worksfor", db.R("worksfor").with_tuples([
            {"name": "fay", "age": 53, "depname": "admin", "location": "delft"},
        ]))
        report = broken.extension_axiom_violations("worksfor")
        assert len(report["unsupported"]) == 1

    def test_replace_keeps_original(self, db):
        patched = db.replace("person", [])
        assert len(db.R("person")) == 4
        assert len(patched.R("person")) == 0


class TestEquality:
    def test_value_equality(self, schema, db):
        from repro.core.employee import employee_extension

        assert db == employee_extension(schema)

    def test_insert_changes_equality(self, db):
        grown = db.insert("person", {"name": "fay", "age": 28})
        assert grown != db


class TestChainCap:
    """The delta-chain severing cap (the module constant
    ``DEFAULT_CHAIN_CAP``, 1024)."""

    def test_default_cap(self):
        from repro.core.extension import DEFAULT_CHAIN_CAP

        assert DEFAULT_CHAIN_CAP == 1024

    def test_cap_of_two_severs_and_still_audits(self, schema, monkeypatch):
        from repro.core import check_all, extension
        from repro.core.employee import employee_extension

        db = employee_extension(schema)
        rows = [
            {"name": "fay", "age": 28},
            {"name": "eva", "age": 47},
            {"name": "dee", "age": 42},
            {"name": "cas", "age": 53},
        ]
        uncapped = db
        for row in rows:
            uncapped = uncapped.insert("person", row)
        monkeypatch.setattr(extension, "DEFAULT_CHAIN_CAP", 2)
        current = DatabaseExtension(
            schema, {e.name: db.R(e) for e in schema})
        depths = []
        for row in rows:
            current = current.insert("person", row)
            depths.append(current._depth)
        # depth never reaches the cap: 1, then severed back to 0
        assert depths == [1, 0, 1, 0]
        assert current._delta is None or current._depth < 2
        # severed states re-intern from scratch and audit identically
        report = check_all(schema, current)
        naive = current.kernel_naive()
        assert report.ok()
        assert {name: inst.n_rows for name, inst in
                current.kernel.instances.items()} == \
            {name: inst.n_rows for name, inst in naive.instances.items()}
        assert current == uncapped
