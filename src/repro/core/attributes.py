"""Property names, atomic value sets, and attributes (section 2).

The paper starts from "a symbolic name space, the non-literals, and value
space, the literals": property names on one side, a family of atomic value
sets on the other.  An *attribute* associates a property name with a value
drawn from a single atomic value set — the **Attribute Axiom** demands that
each attribute has a single non-decomposable semantic interpretation.

Structurally we enforce what is machine-checkable: every property name is
bound to exactly one atomic value set, and the values themselves are
atomic (not containers), so no attribute smuggles in decomposable
structure.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from repro.errors import AxiomViolationError, SchemaError

PropertyName = str
Value = Hashable

_CONTAINER_TYPES = (tuple, list, set, frozenset, dict)

# What AtomicValueSet.admits finds for a value equal to no member.
_ABSENT = object()


def is_atomic_value(value: object) -> bool:
    """Whether ``value`` is acceptable as an atomic (non-decomposable) value.

    Containers are rejected: an attribute whose values are tuples or sets
    "plays multiple semantic roles or represents an aggregation of smaller
    entities" (section 2) and must be split into several attributes.
    """
    return isinstance(value, Hashable) and not isinstance(value, _CONTAINER_TYPES)


class AtomicValueSet:
    """A named, finite set of atomic values — one semantic concept.

    Parameters
    ----------
    name:
        The concept name, e.g. ``"person-names"``; distinct concepts must
        use distinct names.
    values:
        The finite carrier.  Section 4.1: "an attribute value is just a
        member of a finite set".
    """

    __slots__ = ("name", "values", "_members")

    def __init__(self, name: str, values: Iterable[Value]):
        if not isinstance(name, str) or not name:
            raise SchemaError("an atomic value set needs a nonempty string name")
        # Atomicity is judged *before* hashing into the frozenset, so an
        # unhashable composite (a list from a JSON document, say) is
        # reported as the Attribute Axiom violation it is rather than as
        # a bare TypeError.
        values = tuple(values)
        for v in values:
            if not is_atomic_value(v):
                raise AxiomViolationError(
                    "Attribute Axiom",
                    f"value {v!r} in set {name!r} is decomposable",
                    offenders=(name, v),
                )
        values = frozenset(values)
        if not values:
            raise SchemaError(f"atomic value set {name!r} is empty")
        self.name = name
        self.values = values
        self._members = {v: v for v in values}

    def __contains__(self, value: object) -> bool:
        return value in self.values

    def admits(self, value: object) -> bool:
        """Whether ``value`` is a member as stored, not only equal to
        one.  ``True`` and ``1.0`` equal the member ``1``, and ``-0.0``
        equals ``0.0``, yet each prints and encodes otherwise; a row
        holding one would be equal to, but not the same as, the row
        holding the member."""
        member = self._members.get(value, _ABSENT)
        return type(member) is type(value) and (
            type(value) is not float or repr(member) == repr(value))

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomicValueSet):
            return NotImplemented
        return self.name == other.name and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.name, self.values))

    def __repr__(self) -> str:
        return f"AtomicValueSet({self.name!r}, {len(self.values)} values)"


class Attribute:
    """An association of a property name and an atomic value.

    "It represents a single non-decomposable piece of information extracted
    from the Universe-Of-Discourse.  The property name gives the value in
    the attribute a specific semantic role."
    """

    __slots__ = ("name", "value")

    def __init__(self, name: PropertyName, value: Value):
        if not isinstance(name, str) or not name:
            raise SchemaError("an attribute needs a nonempty string property name")
        if not is_atomic_value(value):
            raise AxiomViolationError(
                "Attribute Axiom",
                f"attribute {name!r} carries a decomposable value {value!r}",
                offenders=(name, value),
            )
        self.name = name
        self.value = value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Attribute):
            return NotImplemented
        return self.name == other.name and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.name, self.value))

    def __repr__(self) -> str:
        return f"Attribute({self.name!r}, {self.value!r})"


class AttributeUniverse:
    """The designer's property-name set ``A`` with its domain assignment.

    Binding every property name to exactly one :class:`AtomicValueSet` is
    the structural content of the Attribute Axiom: "to avoid
    mis-interpretation one should ensure that an attribute takes an element
    from a single atomic value set".

    Parameters
    ----------
    domains:
        Mapping from property name to its atomic value set.
    """

    __slots__ = ("_domains",)

    def __init__(self, domains: Mapping[PropertyName, AtomicValueSet]):
        self._domains: dict[PropertyName, AtomicValueSet] = {}
        for name, domain in domains.items():
            if not isinstance(name, str) or not name:
                raise SchemaError(f"bad property name: {name!r}")
            if not isinstance(domain, AtomicValueSet):
                raise SchemaError(f"domain of {name!r} is not an AtomicValueSet")
            self._domains[name] = domain

    @classmethod
    def from_values(cls, assignment: Mapping[PropertyName, Iterable[Value]]) -> "AttributeUniverse":
        """Convenience: build one value set per property name.

        The value set is named after the property, matching the common
        case where the semantic concept is private to the property.
        """
        return cls({
            name: AtomicValueSet(f"{name}-values", values)
            for name, values in assignment.items()
        })

    @property
    def property_names(self) -> frozenset[PropertyName]:
        """The set ``A`` of property names."""
        return frozenset(self._domains)

    def domain(self, name: PropertyName) -> AtomicValueSet:
        """The atomic value set bound to ``name``."""
        if name not in self._domains:
            raise SchemaError(f"unknown property name: {name!r}")
        return self._domains[name]

    def validate_attribute(self, attribute: Attribute) -> None:
        """Raise unless the attribute's value lies in its bound value set."""
        domain = self.domain(attribute.name)
        if attribute.value not in domain:
            raise AxiomViolationError(
                "Attribute Axiom",
                f"value {attribute.value!r} of {attribute.name!r} is outside "
                f"its atomic value set {domain.name!r}",
                offenders=(attribute,),
            )

    def shared_concepts(self) -> dict[AtomicValueSet, frozenset[PropertyName]]:
        """Group property names by shared atomic value set.

        Sharing a value set is legitimate (the paper's example separates
        persons' *name* from departments' *depname* precisely so they do
        NOT share a concept); this report lets the designer audit the
        sharing that remains.
        """
        groups: dict[AtomicValueSet, set[PropertyName]] = {}
        for name, domain in self._domains.items():
            groups.setdefault(domain, set()).add(name)
        return {d: frozenset(names) for d, names in groups.items() if len(names) > 1}

    def __contains__(self, name: object) -> bool:
        return name in self._domains

    def __len__(self) -> int:
        return len(self._domains)

    def __repr__(self) -> str:
        return f"AttributeUniverse({sorted(self._domains)})"
