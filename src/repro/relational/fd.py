"""Attribute-level functional dependencies and the classical Armstrong system.

The paper lifts functional dependencies from attribute sets to entity types
(section 5).  To validate that lift — and to serve as the baseline of
ablation experiment A3 — this module implements the textbook machinery the
paper cites from Armstrong [1]: FDs ``X -> Y`` over attribute sets, the
attribute-set closure algorithm, implication, minimal covers, and candidate
keys.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from repro.errors import DependencyError
from repro.kernel import CheckSet, FDKernel, InstanceKernel
from repro.relational.relation import AttrName, Relation, Tuple


class FD:
    """A functional dependency ``lhs -> rhs`` over attribute names."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Iterable[AttrName], rhs: Iterable[AttrName]):
        self.lhs: frozenset[AttrName] = frozenset(lhs)
        self.rhs: frozenset[AttrName] = frozenset(rhs)
        if not self.rhs:
            raise DependencyError("an FD needs a nonempty right-hand side")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FD):
            return NotImplemented
        return self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs))

    def __repr__(self) -> str:
        left = ",".join(sorted(self.lhs)) or "{}"
        right = ",".join(sorted(self.rhs))
        return f"{left} -> {right}"

    def is_trivial(self) -> bool:
        """Armstrong axiom 1: an FD with ``rhs subseteq lhs`` always holds."""
        return self.rhs <= self.lhs

    def decompose(self) -> frozenset["FD"]:
        """Split into single-attribute right-hand sides."""
        return frozenset(FD(self.lhs, {a}) for a in self.rhs)


def holds_in(fd: FD, relation: Relation) -> bool:
    """Whether ``relation`` satisfies ``fd`` (the semantic definition).

    Runs on the interned instance (symbol-id rows grouped by the cached
    lhs partition) instead of projecting dict-tuples per row; the
    original sweep is retained as :func:`holds_in_naive`.  Repeated
    checks against one relation — dependency sweeps, Armstrong-relation
    search — reuse the interning via the instance memo.
    """
    if not (fd.lhs | fd.rhs) <= relation.schema:
        raise DependencyError(
            f"FD {fd!r} mentions attributes outside schema {sorted(relation.schema)}"
        )
    return InstanceKernel.of(relation).fd_holds(fd.lhs, fd.rhs)


def holds_in_naive(fd: FD, relation: Relation) -> bool:
    """Reference oracle for :func:`holds_in` (witness-dict sweep)."""
    if not (fd.lhs | fd.rhs) <= relation.schema:
        raise DependencyError(
            f"FD {fd!r} mentions attributes outside schema {sorted(relation.schema)}"
        )
    witness: dict = {}
    for t in relation.tuples:
        key = t.project(fd.lhs)
        value = t.project(fd.rhs)
        if key in witness and witness[key] != value:
            return False
        witness[key] = value
    return True


def violating_pairs(fd: FD, relation: Relation) -> list[tuple]:
    """All tuple pairs witnessing a violation of ``fd`` in ``relation``.

    Runs on the batch engine: one walk over the cached lhs partition,
    bucketing each group by its rhs projection and emitting only the
    cross-bucket pairs — output-sensitive instead of the all-pairs scan
    retained as :func:`violating_pairs_naive`.  Pair and list order match
    the oracle (both sort by tuple repr).
    """
    if not (fd.lhs | fd.rhs) <= relation.schema:
        raise DependencyError(
            f"FD {fd!r} mentions attributes outside schema {sorted(relation.schema)}"
        )
    inst = InstanceKernel.of(relation)
    verdict = CheckSet(inst).add_fd(0, fd.lhs, fd.rhs).run(witnesses=True)[0]
    return decode_witness_pairs(inst, verdict.witness)


def decode_witness_pairs(inst: InstanceKernel, witness) -> list[tuple]:
    """Decode kernel ``(row, row)`` witnesses into repr-ordered pairs.

    Matches the naive producers' ordering: each pair is repr-sorted and
    the list is sorted lexicographically by the pair's reprs.
    """
    pairs = []
    for ra, rb in witness:
        ta = Tuple._trusted(inst.decode_row(ra))
        tb = Tuple._trusted(inst.decode_row(rb))
        pairs.append((ta, tb) if repr(ta) <= repr(tb) else (tb, ta))
    return sorted(pairs, key=lambda p: (repr(p[0]), repr(p[1])))


def violating_pairs_naive(fd: FD, relation: Relation) -> list[tuple]:
    """Reference oracle for :func:`violating_pairs` (all-pairs scan)."""
    tuples = sorted(relation.tuples, key=repr)
    out = []
    for i, t1 in enumerate(tuples):
        for t2 in tuples[i + 1:]:
            if t1.project(fd.lhs) == t2.project(fd.lhs) and \
                    t1.project(fd.rhs) != t2.project(fd.rhs):
                out.append((t1, t2))
    return out


# Below this many FDs the C-speed frozenset sweep beats the kernel's
# per-call attribute interning; above it the Beeri–Bernstein counters win
# (the sweep is quadratic on derivation chains).  Callers issuing many
# queries against one FD set should hold an :class:`FDKernel` instead,
# which pays the encoding once.
_KERNEL_MIN_FDS = 24


def closure(attrs: Iterable[AttrName], fds: Iterable[FD]) -> frozenset[AttrName]:
    """The attribute-set closure ``attrs+`` under ``fds``.

    Large dependency sets route through the bitset kernel's
    Beeri–Bernstein counter algorithm (linear in the dependency-set
    size); small ones use the frozenset sweep directly, which is faster
    below the interning overhead.  :func:`closure_naive` is the retained
    reference oracle.
    """
    fds = fds if isinstance(fds, (list, tuple)) else list(fds)
    if len(fds) >= _KERNEL_MIN_FDS:
        return FDKernel(fds).closure(attrs)
    result = set(attrs)
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if fd.lhs <= result and not fd.rhs <= result:
                result |= fd.rhs
                changed = True
    return frozenset(result)


def closure_naive(attrs: Iterable[AttrName], fds: Iterable[FD]) -> frozenset[AttrName]:
    """Reference oracle for :func:`closure` (quadratic fixpoint sweep)."""
    result = set(attrs)
    fds = list(fds)
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if fd.lhs <= result and not fd.rhs <= result:
                result |= fd.rhs
                changed = True
    return frozenset(result)


def implies(fds: Iterable[FD], candidate: FD) -> bool:
    """Whether ``fds |= candidate`` (via the closure test)."""
    return candidate.rhs <= closure(candidate.lhs, fds)


def equivalent(first: Iterable[FD], second: Iterable[FD]) -> bool:
    """Whether two FD sets imply each other."""
    first, second = list(first), list(second)
    return all(implies(second, fd) for fd in first) and \
        all(implies(first, fd) for fd in second)


def minimal_cover(fds: Iterable[FD]) -> frozenset[FD]:
    """A canonical cover: singleton RHS, no redundant FDs, reduced LHS."""
    work: set[FD] = set()
    for fd in fds:
        work |= fd.decompose()
    # Reduce left-hand sides.  The dependency set is fixed throughout the
    # reduction, so large inputs compile one kernel for every query;
    # small ones stay on closure's direct sweep (cheaper than interning).
    if len(work) < _KERNEL_MIN_FDS:
        work_list = sorted(work, key=repr)
        query = lambda attrs: closure(attrs, work_list)  # noqa: E731
    else:
        query = FDKernel(work).closure
    reduced: set[FD] = set()
    for fd in sorted(work, key=repr):
        lhs = set(fd.lhs)
        for attr in sorted(fd.lhs):
            if len(lhs) > 1 and fd.rhs <= query(lhs - {attr}):
                lhs.discard(attr)
        reduced.add(FD(lhs, fd.rhs))
    # Remove redundant FDs.
    final = set(reduced)
    for fd in sorted(reduced, key=repr):
        if fd in final and implies(final - {fd}, fd):
            final.discard(fd)
    return frozenset(final)


def candidate_keys(schema: Iterable[AttrName], fds: Iterable[FD]) -> frozenset[frozenset[AttrName]]:
    """All minimal attribute sets whose closure is the full schema."""
    schema_set = frozenset(schema)
    fds = list(fds)
    if len(fds) < _KERNEL_MIN_FDS:
        keys: list[frozenset[AttrName]] = []
        for size in range(len(schema_set) + 1):
            for combo in combinations(sorted(schema_set), size):
                candidate = frozenset(combo)
                if any(key <= candidate for key in keys):
                    continue
                if closure(candidate, fds) == schema_set:
                    keys.append(candidate)
        return frozenset(keys)
    kern = FDKernel(fds, attrs=sorted(schema_set))
    target = kern.universe.encode(schema_set)
    found: list[frozenset[AttrName]] = []
    key_masks: list[int] = []
    for size in range(len(schema_set) + 1):
        for combo in combinations(sorted(schema_set), size):
            mask = kern.universe.encode(combo)
            if any(key & ~mask == 0 for key in key_masks):
                continue
            if kern.closure_mask_of(mask) == target:
                found.append(frozenset(combo))
                key_masks.append(mask)
    return frozenset(found)


def is_superkey(attrs: Iterable[AttrName], schema: Iterable[AttrName],
                fds: Iterable[FD]) -> bool:
    """Whether ``attrs`` functionally determines the whole schema."""
    return frozenset(schema) <= closure(attrs, fds)


def all_implied_fds(schema: Iterable[AttrName], fds: Iterable[FD]) -> frozenset[FD]:
    """Every implied single-attribute-RHS FD over ``schema`` (exponential).

    Useful only for small schemas in tests; the closure test should be
    preferred for single questions.
    """
    schema_set = frozenset(schema)
    kern = FDKernel(fds, attrs=sorted(schema_set))
    out: set[FD] = set()
    subsets: list[frozenset[AttrName]] = [frozenset()]
    for attr in sorted(schema_set):
        subsets += [s | {attr} for s in subsets]
    for lhs in subsets:
        for attr in kern.closure(lhs):
            out.add(FD(lhs, {attr}))
    return frozenset(out)
