"""Unit tests for attributes and value sets (repro.core.attributes)."""

import pytest

from repro.core import Attribute, AtomicValueSet, AttributeUniverse, is_atomic_value
from repro.errors import AxiomViolationError, SchemaError


class TestAtomicity:
    def test_scalars_atomic(self):
        for value in (1, "x", 3.5, True, None):
            assert is_atomic_value(value)

    def test_containers_not_atomic(self):
        for value in ((1, 2), frozenset({1})):
            assert not is_atomic_value(value)

    def test_mutable_containers_not_atomic(self):
        for value in ([1], {1}, {"a": 1}):
            assert not is_atomic_value(value)


class TestAtomicValueSet:
    def test_construction(self):
        ages = AtomicValueSet("ages", range(5))
        assert len(ages) == 5
        assert 3 in ages

    def test_rejects_decomposable_value(self):
        with pytest.raises(AxiomViolationError) as exc:
            AtomicValueSet("bad", [(1, 2)])
        assert exc.value.axiom == "Attribute Axiom"

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            AtomicValueSet("empty", [])

    def test_rejects_bad_name(self):
        with pytest.raises(SchemaError):
            AtomicValueSet("", [1])

    def test_equality(self):
        assert AtomicValueSet("x", [1, 2]) == AtomicValueSet("x", [2, 1])
        assert AtomicValueSet("x", [1]) != AtomicValueSet("y", [1])

    def test_admits_only_members_as_stored(self):
        """A value equal to a member but of another kind (``True`` or
        ``1.0`` for ``1``, ``-0.0`` for ``0.0``) prints otherwise, so it
        is not admitted."""
        values = AtomicValueSet("x", [1, 0.0, 2.5, "a", None])
        for v in (1, 0.0, 2.5, "a", None):
            assert values.admits(v)
        for v in (True, 1.0, -0.0, False, 0, 2, "b"):
            assert not values.admits(v)


class TestAttribute:
    def test_construction(self):
        a = Attribute("age", 31)
        assert a.name == "age" and a.value == 31

    def test_rejects_decomposable(self):
        with pytest.raises(AxiomViolationError):
            Attribute("age", (1, 2))

    def test_equality_hash(self):
        assert Attribute("a", 1) == Attribute("a", 1)
        assert hash(Attribute("a", 1)) == hash(Attribute("a", 1))
        assert Attribute("a", 1) != Attribute("a", 2)


class TestUniverse:
    def test_from_values(self):
        universe = AttributeUniverse.from_values({"age": range(3), "name": ["x"]})
        assert universe.property_names == frozenset({"age", "name"})
        assert 2 in universe.domain("age")

    def test_unknown_property(self):
        universe = AttributeUniverse.from_values({"age": range(3)})
        with pytest.raises(SchemaError):
            universe.domain("nope")

    def test_validate_attribute(self):
        universe = AttributeUniverse.from_values({"age": range(3)})
        universe.validate_attribute(Attribute("age", 2))
        with pytest.raises(AxiomViolationError):
            universe.validate_attribute(Attribute("age", 99))

    def test_shared_concepts(self):
        names = AtomicValueSet("strings", ["a", "b"])
        universe = AttributeUniverse({"pname": names, "dname": names})
        shared = universe.shared_concepts()
        assert frozenset({"pname", "dname"}) in shared.values()

    def test_paper_separates_name_concepts(self):
        """The employee example keeps name and depname in distinct sets."""
        from repro.core.employee import employee_schema

        universe = employee_schema().universe
        assert universe.domain("name") != universe.domain("depname")
