"""Incremental derivation of kernel objects across database updates.

The object level treats every database state as an immutable value: an
``insert``/``delete``/``replace`` produces a *new* ``DatabaseExtension``,
and until now each new state re-interned every relation from zero.  The
paper's §4/§6 reading is different — successive states are related by a
mapping, not strangers — and the kernel can exploit exactly that: the
per-attribute symbol tables of :class:`~repro.kernel.batch.ExtensionKernel`
are **append-only**, so a successor state's kernel can share its
predecessor's tables by reference and patch only what changed.

Sharing contract (why this is sound):

* Symbol tables only grow.  An id assigned to a value never moves, so a
  predecessor's interned rows stay valid when a successor appends new
  symbols to the shared tables, and id rows of the two states remain
  directly comparable.
* Untouched relations share their :class:`InstanceKernel` objects by
  reference — rows, row sets, and every cached partition/projection
  index come along for free.
* A touched relation gets a *patched* instance: the new row list is the
  old one minus the removed id rows plus the added ones, and every
  cached partition/projection index is patched at the id level instead
  of being rebuilt from the object level.  An insert-only patch shares
  the parent's untouched partition groups and copies only the groups it
  appends to; a patch that removes rows renumbers the surviving rows,
  so it remaps every group in one pass over the row list.

The functions here return the raw id-row changes
(:class:`InstanceDelta`) alongside each derived object, because the
dirty-context audit layer (``CheckSet.recheck``, the chained caches on
``DatabaseExtension``) needs to know which lhs-groups an update touched.

Layering: like the rest of :mod:`repro.kernel`, nothing here imports the
object level.  Added and removed rows arrive as sorted ``(attr, value)``
item tuples — the exact shape ``Tuple`` iteration produces — and leave
as id rows in the shared symbol space.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.kernel.batch import ExtensionKernel
from repro.kernel.instance import IdRow, InstanceKernel, intern_row


class InstanceDelta:
    """The id rows one derivation step actually added and removed.

    Both are in the instance's (shared) symbol space; rows whose
    insertion was a no-op (already present) or whose removal could not
    match (value never interned, row absent) are filtered out, so the
    delta describes the real set difference between the two states.
    """

    __slots__ = ("added", "removed")

    def __init__(self, added: tuple = (), removed: tuple = ()):
        self.added = added
        self.removed = removed

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)

    def __repr__(self) -> str:
        return f"InstanceDelta(+{len(self.added)}, -{len(self.removed)})"


class KernelDelta:
    """Per-relation :class:`InstanceDelta` of one kernel derivation step;
    relation names absent from ``instances`` were untouched."""

    __slots__ = ("instances",)

    def __init__(self, instances: Mapping[str, InstanceDelta]):
        self.instances = dict(instances)

    def __repr__(self) -> str:
        return f"KernelDelta({sorted(self.instances)})"


def _encode_known(tables: list, items) -> IdRow | None:
    """Encode a row without growing the tables; ``None`` when some value
    was never interned (such a row cannot be present in the instance)."""
    row = []
    for pos, (_, value) in enumerate(items):
        sid = tables[pos].get(value)
        if sid is None:
            return None
        row.append(sid)
    return tuple(row)


def derive_instance(parent: InstanceKernel,
                    added_items: Iterable = (),
                    removed_items: Iterable = (),
                    ) -> tuple[InstanceKernel, InstanceDelta]:
    """The successor instance ``(parent - removed) + added``, patched.

    ``added_items``/``removed_items`` are rows as sorted ``(attr,
    value)`` item tuples over the parent's schema.  The derived instance
    shares the parent's attribute layout and symbol tables by reference
    (append-only, so the parent stays valid) and carries patched copies
    of every partition/projection index the parent had cached.  Without
    removals a partition shares every group the added rows leave alone
    (no derivation appends to a list it did not build); with removals
    every group is remapped to the new row numbers.

    Returns the instance together with the :class:`InstanceDelta` of id
    rows that actually changed.  A no-op delta returns the parent
    itself.
    """
    tables, symbols = parent.tables, parent.symbols
    removed: set[IdRow] = set()
    for items in removed_items:
        row = _encode_known(tables, items)
        if row is not None and row in parent.row_set:
            removed.add(row)
    added: list[IdRow] = []
    added_set: set[IdRow] = set()
    for items in added_items:
        row = intern_row(tables, symbols, items)
        if row in added_set:
            continue
        if row in parent.row_set and row not in removed:
            continue
        added_set.add(row)
        added.append(row)
    if not added and not removed:
        return parent, InstanceDelta()

    old_rows = parent.rows
    if removed:
        new_rows: list[IdRow] = []
        remap: list[int] = []
        for row in old_rows:
            if row in removed:
                remap.append(-1)
            else:
                remap.append(len(new_rows))
                new_rows.append(row)
    else:
        new_rows = list(old_rows)
        remap = None
    base = len(new_rows)
    new_rows.extend(added)
    inst = InstanceKernel._from_parts(parent, new_rows)

    for idxs, part in parent._partitions.items():
        if remap is None:
            new_part = dict(part)
        else:
            new_part = {}
            for key, group in part.items():
                kept = [remap[r] for r in group if remap[r] >= 0]
                if kept:
                    new_part[key] = kept
        for i, row in enumerate(added):
            key = tuple(row[j] for j in idxs)
            group = new_part.get(key)
            if group is None or group is part.get(key):  # copy on write
                group = new_part[key] = list(group or ())
            group.append(base + i)
        inst._partitions[idxs] = new_part
    for idxs, proj in parent._projections.items():
        part = inst._partitions.get(idxs)
        if part is not None:
            # A projection onto idxs is exactly the key set of the
            # partition on idxs.
            inst._projections[idxs] = set(part)
        elif remap is None:
            grown = set(proj)
            for row in added:
                grown.add(tuple(row[j] for j in idxs))
            inst._projections[idxs] = grown
        else:
            # A removed row may or may not have been a key's last
            # support; without the partition's counts, rebuild from the
            # (id-level) rows — still no object-level work.
            inst._projections[idxs] = {
                tuple(row[j] for j in idxs) for row in new_rows
            }
    return inst, InstanceDelta(tuple(added), tuple(removed))


def derive_extension_kernel(parent: ExtensionKernel,
                            patches: Mapping[str, tuple] = {},
                            ) -> tuple[ExtensionKernel, KernelDelta]:
    """The successor state's kernel, derived from ``parent``.

    ``patches`` maps relation names to ``(added_items, removed_items)``
    row-delta pairs (sorted item tuples).  Untouched relations share
    their instances by reference.

    Returns the kernel plus the :class:`KernelDelta` describing what
    changed at the id level.
    """
    kern = object.__new__(ExtensionKernel)
    kern.shared = parent.shared
    instances = dict(parent.instances)
    deltas: dict[str, InstanceDelta] = {}
    for name, (added, removed) in patches.items():
        inst, delta = derive_instance(instances[name], added, removed)
        instances[name] = inst
        deltas[name] = delta
    kern.instances = instances
    return kern, KernelDelta(deltas)
