"""Batch constraint engine and shared extension interning.

The paper's design axioms are *set-of-constraints* statements: an
Extension or Integrity axiom audit probes one database state against many
FDs, MVDs, and join dependencies at once.  :class:`CheckSet` compiles a
heterogeneous constraint set against one interned instance and evaluates
it in a single sweep — constraints are grouped by their left-hand-side
attribute set, so each partition index is built once (and cached on the
instance) and every constraint sharing it is judged inside the same group
loop, with optional kernel-side witnesses (violating row pairs, missing
swap rows, spurious join rows) as raw id rows.

:class:`ExtensionKernel` lifts the interning from one relation to a whole
``DatabaseExtension``: every relation is interned against *one symbol
table per attribute name*, so the cross-relation comparisons behind the
Containment Condition and the Extension Axiom — projections of a
specialisation landing inside a generalisation, compound rows embedding
in their contributor join — are pure id-space hash lookups with no
per-pair translation tables.  Membership of a full-width tuple in the
contributor join factorises through the components
(``t in R_1 * ... * R_n`` iff every projection ``pi_i(t)`` is in
``R_i``), so the Extension Axiom check never materialises the join.

Layering: like the rest of :mod:`repro.kernel`, this module never imports
the object level.  ``CheckSet`` wraps an :class:`InstanceKernel`;
``ExtensionKernel`` consumes a ``{name: relation-shaped object}`` mapping
and produces raw verdicts and id rows for the :mod:`repro.core` layer to
decode.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping

from repro.kernel.instance import AttrName, IdRow, InstanceKernel, join_id_rows

# Module-level sweep counters.  The kernel never imports the serving
# layers, so it cannot hold a reference to a metrics registry; instead
# the counts accumulate here and the server samples them into its
# registry snapshot (``kernel.sweep.*`` metrics).  One short lock per
# CheckSet call, not per row — negligible against the sweep itself.
_SWEEP_LOCK = threading.Lock()
_SWEEP_COUNTS = {"runs": 0, "rechecks": 0, "groups_swept": 0,
                 "dirty_groups": 0}


def _count_sweep(key: str, n: int = 1) -> None:
    with _SWEEP_LOCK:
        _SWEEP_COUNTS[key] += n


def sweep_counts() -> dict[str, int]:
    """A snapshot of the process-wide :class:`CheckSet` sweep counters:
    full ``run`` sweeps, incremental ``recheck`` passes, lhs-groups
    walked by full sweeps, and dirty lhs-groups re-judged by rechecks."""
    with _SWEEP_LOCK:
        return dict(_SWEEP_COUNTS)


def dirty_group_keys(idx_sets: Iterable[tuple[int, ...]],
                     rows: Iterable[IdRow],
                     ) -> dict[tuple[int, ...], set[IdRow]]:
    """The group keys a row delta touches, per grouping column tuple.

    This is the granularity of incremental constraint re-evaluation
    (:meth:`CheckSet.recheck` re-sweeps exactly these lhs-groups) and of
    the store's commit footprints: two updates can interact with a
    grouped sweep only where their key sets for some grouping overlap,
    so disjoint key footprints commute.
    """
    rows = list(rows)
    return {
        idxs: {tuple(row[i] for i in idxs) for row in rows}
        for idxs in idx_sets
    }


class BatchVerdict:
    """One constraint's outcome: the verdict plus raw id-row witnesses.

    ``witness`` is a tuple whose element shape depends on the constraint
    kind — ``(row, row)`` pairs for FDs, missing full-width rows for
    MVDs, spurious full-width rows for JDs — and is empty unless the
    sweep ran with ``witnesses=True``.
    """

    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness: tuple = ()):
        self.ok = ok
        self.witness = witness

    def __repr__(self) -> str:
        return f"BatchVerdict(ok={self.ok}, witnesses={len(self.witness)})"


class CheckSet:
    """A compiled heterogeneous constraint set over one interned instance.

    Add constraints under caller-chosen keys, then :meth:`run` the whole
    set: FDs and MVDs are grouped by their lhs column tuple so each
    partition is walked once for all of them, and JDs reuse the
    instance's cached id-level projections.  Verdict-only runs drop a
    violated constraint from the sweep immediately; witness runs keep
    scanning to collect every witness.

    Running with ``record=True`` additionally remembers, per constraint,
    *which* lhs-groups violated it; :meth:`recheck` then re-judges a
    delta-derived successor instance by re-sweeping only the lhs-groups
    the delta touched, merging the recorded verdicts for the rest.
    """

    __slots__ = ("instance", "_fds", "_mvds", "_jds", "_keys", "_violating")

    def __init__(self, instance: InstanceKernel):
        self.instance = instance
        self._fds: list[tuple] = []    # (key, lhs_idxs, rhs_idxs)
        self._mvds: list[tuple] = []   # (key, x_idxs, y_idxs, z_idxs)
        self._jds: list[tuple] = []    # (key, tuple of component idx tuples)
        self._keys: set = set()
        # key -> set of violating lhs keys (JDs use the sentinel key ()),
        # populated by run(record=True) and kept current by recheck().
        self._violating: dict | None = None

    def _claim(self, key) -> None:
        if key in self._keys:
            raise ValueError(f"duplicate CheckSet key: {key!r}")
        self._keys.add(key)

    def add_fd(self, key, lhs_attrs: Iterable[AttrName],
               rhs_attrs: Iterable[AttrName]) -> "CheckSet":
        """Register ``lhs -> rhs`` under ``key``."""
        self._claim(key)
        inst = self.instance
        self._fds.append(
            (key, inst.indices_of(lhs_attrs), inst.indices_of(rhs_attrs))
        )
        return self

    def add_mvd(self, key, lhs_attrs: Iterable[AttrName],
                rhs_attrs: Iterable[AttrName]) -> "CheckSet":
        """Register ``lhs ->> rhs`` (universe = the instance schema)."""
        self._claim(key)
        x, y, z = self.instance.mvd_indices(lhs_attrs, rhs_attrs)
        self._mvds.append((key, x, y, z))
        return self

    def add_jd(self, key,
               components: Iterable[Iterable[AttrName]]) -> "CheckSet":
        """Register ``JD[components]`` (components must cover the schema)."""
        self._claim(key)
        inst = self.instance
        self._jds.append(
            (key, tuple(inst.indices_of(c) for c in components))
        )
        return self

    def lhs_index_sets(self) -> tuple[tuple[int, ...], ...]:
        """The distinct grouping column tuples of the compiled FDs and
        MVDs — the granularity :func:`dirty_group_keys` (and therefore
        :meth:`recheck` and the store's commit footprints) works at."""
        return tuple(self._grouped_entries())

    def _grouped_entries(self) -> dict[tuple[int, ...], list[list]]:
        """FD/MVD entries grouped by lhs column tuple.

        Entry layout: ``[key, kind, cols, ok, witness-list, violating-keys]``.
        """
        by_lhs: dict[tuple[int, ...], list[list]] = {}
        for key, lhs, rhs in self._fds:
            by_lhs.setdefault(lhs, []).append([key, "fd", rhs, True, [], set()])
        for key, x, y, z in self._mvds:
            by_lhs.setdefault(x, []).append(
                [key, "mvd", (y, z), True, [], set()])
        return by_lhs

    def run(self, witnesses: bool = False, record: bool = False) -> dict:
        """Evaluate every registered constraint in one grouped sweep.

        With ``record=True`` the sweep never retires a violated
        constraint early: it visits every lhs-group and remembers the
        violating group keys, arming :meth:`recheck`.
        """
        results: dict = {}
        recorded: dict = {} if record else None
        by_lhs = self._grouped_entries()
        _count_sweep("runs")
        if by_lhs:
            _count_sweep("groups_swept", len(by_lhs))
        for lhs, entries in by_lhs.items():
            self._sweep_lhs_group(lhs, entries, witnesses, record)
            for key, _, _, ok, wit, vkeys in entries:
                results[key] = BatchVerdict(ok, tuple(wit))
                if record:
                    recorded[key] = vkeys
        row_set = self.instance.row_set
        for key, parts in self._jds:
            if witnesses:
                joined = self.instance.joined_projection_rows(list(parts))
                spurious = joined - row_set
                verdict = BatchVerdict(not spurious, tuple(spurious))
            else:
                verdict = BatchVerdict(self.instance._joins_back(list(parts)))
            results[key] = verdict
            if record:
                recorded[key] = set() if verdict.ok else {()}
        if record:
            self._violating = recorded
        return results

    def _sweep_lhs_group(self, lhs: tuple[int, ...], entries: list[list],
                         witnesses: bool, record: bool = False) -> None:
        """One walk over the lhs partition, judging every entry in it."""
        rows = self.instance.rows
        live = list(entries)
        for group_key, group in self.instance.partition(lhs).items():
            if len(group) < 2 or not live:
                if not live:
                    break
                continue
            group_rows = [rows[r] for r in group]
            still = []
            for entry in live:
                kind = entry[1]
                if kind == "fd":
                    violated = self._judge_fd(group_rows, entry, witnesses)
                else:
                    violated = self._judge_mvd(group_rows, entry, witnesses)
                if violated:
                    entry[3] = False
                    if record:
                        entry[5].add(group_key)
                # Witness and recording runs keep scanning every group;
                # verdict-only runs retire a constraint at its first
                # violation.
                if witnesses or record or not violated:
                    still.append(entry)
            live = still

    # ------------------------------------------------------------------
    # incremental re-evaluation
    # ------------------------------------------------------------------
    def rebound(self, instance: InstanceKernel) -> "CheckSet":
        """A copy of this compiled set bound to a successor instance.

        ``instance`` must be delta-derived from (and therefore share the
        symbol tables and attribute layout of) the instance this set was
        compiled against — the compiled column indices and the recorded
        violating lhs keys stay meaningful only in that shared id space.
        The copy owns its recorded state, so rechecking it never mutates
        the original (which may still serve other successors).
        """
        twin = object.__new__(CheckSet)
        twin.instance = instance
        twin._fds = self._fds
        twin._mvds = self._mvds
        twin._jds = self._jds
        twin._keys = self._keys
        twin._violating = None if self._violating is None else {
            key: set(vkeys) for key, vkeys in self._violating.items()
        }
        return twin

    def recheck(self, added_rows: Iterable[IdRow] = (),
                removed_rows: Iterable[IdRow] = ()) -> dict:
        """Re-judge after a row delta, sweeping only dirty lhs-groups.

        Requires a prior :meth:`run` with ``record=True`` (possibly on
        an ancestor instance, carried over via :meth:`rebound`).
        ``added_rows``/``removed_rows`` are the full-width id rows the
        delta touched; every FD/MVD is re-judged only at the lhs keys
        those rows project to, while the recorded verdicts stand for
        every other group.  JDs are global (any delta can create or
        destroy spurious join rows), so they re-join in full.  The
        recorded state is updated, so rechecks chain.
        """
        if self._violating is None:
            raise ValueError("recheck needs a prior run(record=True)")
        changed = tuple(added_rows) + tuple(removed_rows)
        results: dict = {}
        rows = self.instance.rows
        by_lhs = self._grouped_entries()
        dirty_keys = dirty_group_keys(by_lhs, changed)
        _count_sweep("rechecks")
        dirty_total = sum(len(keys) for keys in dirty_keys.values())
        if dirty_total:
            _count_sweep("dirty_groups", dirty_total)
        for lhs, entries in by_lhs.items():
            dirty = dirty_keys[lhs]
            part = self.instance.partition(lhs) if dirty else {}
            judged: dict[tuple, list | None] = {
                key: part.get(key) for key in dirty
            }
            for entry in entries:
                key = entry[0]
                vkeys = self._violating[key] - dirty
                for group_key, group in judged.items():
                    if group is None or len(group) < 2:
                        continue
                    group_rows = [rows[r] for r in group]
                    if entry[1] == "fd":
                        violated = self._judge_fd(group_rows, entry, False)
                    else:
                        violated = self._judge_mvd(group_rows, entry, False)
                    if violated:
                        vkeys.add(group_key)
                self._violating[key] = vkeys
                results[key] = BatchVerdict(not vkeys)
        for key, parts in self._jds:
            ok = self.instance._joins_back(list(parts))
            self._violating[key] = set() if ok else {()}
            results[key] = BatchVerdict(ok)
        return results

    @staticmethod
    def _judge_fd(group_rows: list[IdRow], entry: list,
                  witnesses: bool) -> bool:
        rhs = entry[2]
        if not witnesses:
            first = group_rows[0]
            for row in group_rows[1:]:
                for i in rhs:
                    if row[i] != first[i]:
                        return True
            return False
        buckets: dict[IdRow, list[IdRow]] = {}
        for row in group_rows:
            buckets.setdefault(tuple(row[i] for i in rhs), []).append(row)
        if len(buckets) < 2:
            return False
        wit = entry[4]
        blocks = list(buckets.values())
        for bi, block in enumerate(blocks):
            for other in blocks[bi + 1:]:
                for ra in block:
                    for rb in other:
                        wit.append((ra, rb))
        return True

    @staticmethod
    def _judge_mvd(group_rows: list[IdRow], entry: list,
                   witnesses: bool) -> bool:
        y, z = entry[2]
        ys = {tuple(row[i] for i in y) for row in group_rows}
        zs = {tuple(row[i] for i in z) for row in group_rows}
        if len(ys) * len(zs) == len(group_rows):
            return False
        if witnesses:
            wit = entry[4]
            present = set(group_rows)
            base = list(group_rows[0])
            for yv in ys:
                for i, v in zip(y, yv):
                    base[i] = v
                for zv in zs:
                    for i, v in zip(z, zv):
                        base[i] = v
                    candidate = tuple(base)
                    if candidate not in present:
                        wit.append(candidate)
        return True


class ExtensionKernel:
    """Shared per-attribute interning across all relations of an extension.

    Every relation is interned through one ``{attr: (table, symbols)}``
    map, so equal values of one attribute receive equal ids in *every*
    relation and cross-relation row comparisons need no translation.
    Relations (and therefore instances) are immutable; a
    ``DatabaseExtension`` builds one kernel lazily and keeps it for life.
    """

    __slots__ = ("shared", "instances")

    def __init__(self, relations: Mapping[str, object]):
        self.shared: dict[AttrName, tuple[dict, list]] = {}
        self.instances: dict[str, InstanceKernel] = {
            name: InstanceKernel(rel, shared=self.shared)
            for name, rel in sorted(relations.items())
        }

    def instance(self, name: str) -> InstanceKernel:
        """The shared-space interned instance of relation ``name``."""
        return self.instances[name]

    # ------------------------------------------------------------------
    # cross-relation id-space operations
    # ------------------------------------------------------------------
    def project_named(self, name: str,
                      attrs: Iterable[AttrName]) -> set[IdRow]:
        """Distinct id rows of ``pi_attrs(R_name)``, columns in sorted
        attribute order, in the shared symbol space (cached)."""
        inst = self.instances[name]
        return inst.projection(inst.indices_of(attrs))

    def stray_projection(self, s_name: str, e_attrs: Iterable[AttrName],
                         e_name: str) -> set[IdRow]:
        """``pi_e(R_s) - R_e`` as id rows — the Containment Condition's
        violation set for one (specialisation, generalisation) pair.

        Both sides are full-width rows over ``e_attrs`` in sorted order
        and share every attribute's symbol table, so the difference is a
        plain set subtraction.
        """
        return self.project_named(s_name, e_attrs) - \
            self.instances[e_name].row_set

    def join_named(self, names: Iterable[str],
                   ) -> tuple[tuple[AttrName, ...], set[IdRow]]:
        """The n-ary natural join of whole relations, in id space.

        Column labels are attribute *names* (``join_id_rows`` treats
        labels opaquely), which is sound exactly because the symbol
        spaces coincide per attribute.  Returns the sorted output
        attributes and the joined rows.
        """
        names = list(names)
        first = self.instances[names[0]]
        attrs: tuple = first.attrs
        rows: set[IdRow] = first.row_set
        for name in names[1:]:
            inst = self.instances[name]
            if rows:
                attrs, rows = join_id_rows(attrs, rows, inst.attrs,
                                           inst.row_set)
            else:
                # An empty intermediate join stays empty, but the output
                # schema must still be the full attribute union.
                attrs = tuple(sorted(set(attrs) | set(inst.attrs)))
        return attrs, rows

    def compound_report(self, e_name: str, contributor_names: Iterable[str],
                        ) -> tuple[list[IdRow], list[list[IdRow]]]:
        """The Extension Axiom's two failure modes for one compound type.

        Returns ``(unsupported, collisions)`` over full-width id rows of
        ``R_e``: rows whose contributor projection is missing from the
        contributor join, and groups of >=2 rows sharing one contributor
        combination.  Join membership of a row spanning the combined
        attributes factorises through the components, so each contributor
        costs one projected-key lookup per compound row and the join
        itself is never materialised.
        """
        e_inst = self.instances[e_name]
        probes = []
        combined: set[AttrName] = set()
        for c_name in contributor_names:
            c_inst = self.instances[c_name]
            combined.update(c_inst.attrs)
            probes.append((e_inst.indices_of(c_inst.attrs), c_inst.row_set))
        image_idxs = e_inst.indices_of(combined)
        unsupported: list[IdRow] = []
        groups: dict[IdRow, list[IdRow]] = {}
        for row in e_inst.rows:
            for idxs, c_rows in probes:
                if tuple(row[i] for i in idxs) not in c_rows:
                    unsupported.append(row)
                    break
            groups.setdefault(
                tuple(row[i] for i in image_idxs), []
            ).append(row)
        collisions = [g for g in groups.values() if len(g) > 1]
        return unsupported, collisions

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------
    def decode_named(self, attrs: Iterable[AttrName], rows: Iterable[IdRow]):
        """Decode id rows over ``attrs`` (sorted-attribute column order)
        into sorted ``(attr, value)`` item tuples via the shared tables."""
        names = tuple(sorted(attrs))
        columns = tuple(self.shared[a][1] for a in names)
        width = range(len(names))
        for row in rows:
            yield tuple((names[p], columns[p][row[p]]) for p in width)
