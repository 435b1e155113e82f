"""Relations and tuples — the extensional substrate.

Section 4 of the paper defines the domain of an entity type as the product
of its attribute domains and its instance set ``R_e`` as a member of the
powerset of that product; "in the old terminology: R_e is a relation over e
and t_e is a tuple in R_e".  This module supplies that old terminology as a
first-class, immutable value model: a :class:`Tuple` is a frozen mapping
from attribute names to atomic values and a :class:`Relation` is a frozen
set of equal-schema tuples.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from operator import itemgetter

from repro.errors import RelationError

AttrName = str
Value = Hashable

_attr_of = itemgetter(0)


class Tuple:
    """An immutable attribute-to-value mapping.

    Equality and hashing are value-based, so tuples behave as members of
    sets — exactly the semantics the paper needs for ``R_e``.

    Examples
    --------
    >>> t = Tuple({"name": "ann", "age": 31})
    >>> t["age"]
    31
    >>> t.project({"name"})
    Tuple({'name': 'ann'})
    """

    __slots__ = ("_items", "_hash", "_proj")

    def __init__(self, items: Mapping[AttrName, Value]):
        for attr, value in items.items():
            if not isinstance(attr, str):
                raise RelationError(f"attribute names must be strings, got {attr!r}")
            if not isinstance(value, Hashable):
                raise RelationError(f"value for {attr!r} is unhashable: {value!r}")
        self._items: tuple[tuple[AttrName, Value], ...] = tuple(sorted(items.items()))
        self._hash = hash(self._items)
        self._proj: dict | None = None

    @property
    def schema(self) -> frozenset[AttrName]:
        """The attribute names this tuple is defined on."""
        return frozenset(attr for attr, _ in self._items)

    def has_schema(self, attrs: frozenset[AttrName]) -> bool:
        """Whether this tuple is defined on exactly ``attrs``.

        The shape check of every constructor and buffered row: it reads
        the names in place instead of building :attr:`schema`.  The
        names are distinct, so equal counts plus containment is
        equality."""
        items = self._items
        return len(items) == len(attrs) and attrs.issuperset(
            map(_attr_of, items))

    def __getitem__(self, attr: AttrName) -> Value:
        for name, value in self._items:
            if name == attr:
                return value
        raise KeyError(attr)

    def get(self, attr: AttrName, default: Value | None = None) -> Value | None:
        try:
            return self[attr]
        except KeyError:
            return default

    def as_dict(self) -> dict[AttrName, Value]:
        """A fresh mutable dict copy of the tuple."""
        return dict(self._items)

    def project(self, attrs: Iterable[AttrName]) -> "Tuple":
        """The tuple restricted to ``attrs`` (the projection pi of section 4).

        Items are already sorted and validated, and filtering preserves
        both, so the projection goes through the trusted constructor.
        Projections are the store's per-commit hot path (probe keys,
        propagation) and the same tuple is asked
        for the same few attribute sets again and again, so results are
        memoised on the tuple (lazily — only tuples that are projected
        allocate the cache, and the key space is bounded by the attr
        sets the schema's checks use).
        """
        wanted = attrs if isinstance(attrs, frozenset) else frozenset(attrs)
        cache = self._proj
        if cache is None:
            cache = {}
            self._proj = cache
        else:
            hit = cache.get(wanted)
            if hit is not None:
                return hit
        items = tuple(item for item in self._items if item[0] in wanted)
        if len(items) != len(wanted):
            missing = wanted - self.schema
            raise RelationError(
                f"cannot project on absent attributes: {sorted(missing)}")
        out = Tuple._trusted(items)
        cache[wanted] = out
        return out

    def merge(self, other: "Tuple") -> "Tuple":
        """Combine two tuples that agree on shared attributes.

        Raises :class:`RelationError` on a join conflict.
        """
        mine = self.as_dict()
        for attr, value in other._items:
            if attr in mine and mine[attr] != value:
                raise RelationError(f"join conflict on {attr!r}: {mine[attr]!r} vs {value!r}")
            mine[attr] = value
        return Tuple(mine)

    def joinable(self, other: "Tuple") -> bool:
        """Whether the two tuples agree on every shared attribute."""
        shared = self.schema & other.schema
        return all(self[a] == other[a] for a in shared)

    def rename(self, renaming: Mapping[AttrName, AttrName]) -> "Tuple":
        """A copy with attributes renamed by ``renaming`` (others kept)."""
        return Tuple({renaming.get(a, a): v for a, v in self._items})

    @classmethod
    def _trusted(cls, items: tuple) -> "Tuple":
        """Wrap pre-sorted, pre-validated ``(attr, value)`` items.

        The decode path of :mod:`repro.kernel.instance` emits items
        already in sorted order with known-hashable values, so the
        constructor's re-sort and validation would be pure overhead.
        The randomized kernel-equivalence suite guards this shortcut.
        """
        t = object.__new__(cls)
        t._items = items
        t._hash = hash(items)
        t._proj = None
        return t

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a!r}: {v!r}" for a, v in self._items)
        return "Tuple({" + inner + "})"


class Relation:
    """A finite set of tuples sharing a schema.

    Parameters
    ----------
    schema:
        The attribute names; may be empty (the two zero-ary relations are
        the classical TRUE ``{()}`` and FALSE ``{}``).
    tuples:
        Tuples (or plain mappings) whose schema must equal ``schema``.
    """

    __slots__ = ("_schema", "_tuples")

    def __init__(self, schema: Iterable[AttrName], tuples: Iterable = ()):
        self._schema: frozenset[AttrName] = frozenset(schema)
        normalised: set[Tuple] = set()
        for t in tuples:
            if not isinstance(t, Tuple):
                t = Tuple(t)
            if not t.has_schema(self._schema):
                raise RelationError(
                    f"tuple schema {sorted(t.schema)} does not match "
                    f"relation schema {sorted(self._schema)}"
                )
            normalised.add(t)
        self._tuples: frozenset[Tuple] = frozenset(normalised)

    @property
    def schema(self) -> frozenset[AttrName]:
        return self._schema

    @property
    def tuples(self) -> frozenset[Tuple]:
        return self._tuples

    @classmethod
    def _trusted(cls, schema: Iterable[AttrName], tuples: Iterable) -> "Relation":
        """Wrap tuples already known to share ``schema``.

        Kernel decode produces equal-schema :class:`Tuple` values by
        construction, so the per-tuple schema validation of the public
        constructor is skipped — the same trusted-construction policy as
        ``FiniteSpace._trusted`` in the topology layer.
        """
        r = object.__new__(cls)
        r._schema = frozenset(schema)
        r._tuples = frozenset(tuples)
        return r

    @classmethod
    def from_rows(cls, schema: Iterable[AttrName], rows: Iterable[Iterable[Value]]) -> "Relation":
        """Build a relation from positional rows, in the order ``schema`` lists.

        ``schema`` must therefore be a sequence (its iteration order gives
        each row's column order).
        """
        attrs = list(schema)
        if len(set(attrs)) != len(attrs):
            raise RelationError(f"duplicate attributes in schema: {attrs}")
        tuples = []
        for row in rows:
            row = list(row)
            if len(row) != len(attrs):
                raise RelationError(f"row {row!r} has arity {len(row)}, schema needs {len(attrs)}")
            tuples.append(Tuple(dict(zip(attrs, row))))
        return cls(attrs, tuples)

    def __contains__(self, t: object) -> bool:
        if isinstance(t, Mapping):
            t = Tuple(t)
        return t in self._tuples

    def __iter__(self):
        return iter(sorted(self._tuples, key=repr))

    def __len__(self) -> int:
        return len(self._tuples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self._tuples == other._tuples

    def __hash__(self) -> int:
        return hash((self._schema, self._tuples))

    def __repr__(self) -> str:
        return f"Relation({sorted(self._schema)}, {len(self._tuples)} tuples)"

    def is_subset_of(self, other: "Relation") -> bool:
        """Set containment over identical schemas.

        This is the shape of the paper's Containment Condition
        ``pi_e^s(R_s) subseteq R_e``.
        """
        if self._schema != other._schema:
            raise RelationError("containment requires identical schemas")
        return self._tuples <= other._tuples

    def with_tuples(self, extra: Iterable) -> "Relation":
        """A new relation with ``extra`` tuples added."""
        return Relation(self._schema, list(self._tuples) + list(extra))

    def without_tuples(self, gone: Iterable) -> "Relation":
        """A new relation with the given tuples removed."""
        gone_set = {t if isinstance(t, Tuple) else Tuple(t) for t in gone}
        return Relation(self._schema, self._tuples - gone_set)
