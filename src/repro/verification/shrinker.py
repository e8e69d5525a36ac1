"""Automatic minimization of failing instances.

A fuzz failure on a 30-row, 7-column table is evidence; a 4-row,
3-column table reproducing the same failure is a bug report.  The
shrinker takes an instance plus a *predicate* (truthy while the failure
reproduces) and greedily minimizes:

1. **columns** — drop one attribute at a time while the predicate stays
   true (restarting after every success, so interacting columns fall
   out in any order),
2. **rows** — classic ddmin: remove progressively smaller chunks of
   rows, falling back to finer granularity when nothing can go,
3. repeat until a full pass changes nothing.

The result is turned into a ready-to-paste pytest reproduction by
:func:`to_pytest_repro` — a self-contained test module literal that the
CI fuzz job uploads as an artifact on failure.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.model.instance import RelationInstance
from repro.model.schema import Relation

__all__ = ["shrink_instance", "to_pytest_repro"]

Predicate = Callable[[RelationInstance], bool]


def shrink_instance(
    instance: RelationInstance,
    predicate: Predicate,
    max_evaluations: int = 3000,
) -> RelationInstance:
    """Minimize ``instance`` while ``predicate`` keeps returning True.

    ``predicate(instance)`` must already be True on entry (the failure
    reproduces on the input); raises :class:`ValueError` otherwise, so a
    flaky predicate is caught at the call site instead of producing a
    bogus "minimal" table.  ``max_evaluations`` bounds the number of
    predicate calls; on exhaustion the best instance found so far is
    returned.
    """
    budget = [max_evaluations]

    def holds(candidate: RelationInstance) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        return bool(predicate(candidate))

    if not predicate(instance):
        raise ValueError("predicate does not hold on the initial instance")

    current = instance
    changed = True
    while changed and budget[0] > 0:
        changed = False
        shrunk = _shrink_columns(current, holds)
        if shrunk is not None:
            current, changed = shrunk, True
        shrunk = _shrink_rows(current, holds)
        if shrunk is not None:
            current, changed = shrunk, True
    return current


# ----------------------------------------------------------------------
# Column pass
# ----------------------------------------------------------------------
def _shrink_columns(
    instance: RelationInstance, holds: Predicate
) -> RelationInstance | None:
    current = instance
    improved = False
    index = 0
    while current.arity > 1 and index < current.arity:
        keep = [i for i in range(current.arity) if i != index]
        candidate = _project_columns(current, keep)
        if holds(candidate):
            current = candidate
            improved = True
            index = 0  # dropping one column can unlock earlier ones
        else:
            index += 1
    return current if improved else None


def _project_columns(
    instance: RelationInstance, keep: Sequence[int]
) -> RelationInstance:
    relation = Relation(
        instance.name, tuple(instance.columns[i] for i in keep)
    )
    return RelationInstance(
        relation, [list(instance.columns_data[i]) for i in keep]
    )


# ----------------------------------------------------------------------
# Row pass (ddmin)
# ----------------------------------------------------------------------
def _shrink_rows(
    instance: RelationInstance, holds: Predicate
) -> RelationInstance | None:
    rows = list(range(instance.num_rows))
    if len(rows) <= 1:
        return None
    improved = False
    granularity = 2
    while len(rows) >= 2:
        chunk_size = max(1, len(rows) // granularity)
        removed_any = False
        start = 0
        while start < len(rows):
            survivor = rows[:start] + rows[start + chunk_size :]
            if survivor and holds(_keep_rows(instance, survivor)):
                rows = survivor
                removed_any = True
                improved = True
                # stay at the same start: the next chunk slid into place
            else:
                start += chunk_size
        if removed_any:
            granularity = max(granularity - 1, 2)
        elif chunk_size == 1:
            break
        else:
            granularity = min(granularity * 2, len(rows))
    return _keep_rows(instance, rows) if improved else None


def _keep_rows(
    instance: RelationInstance, rows: Sequence[int]
) -> RelationInstance:
    relation = Relation(instance.name, instance.columns)
    return RelationInstance(
        relation,
        [[column[row] for row in rows] for column in instance.columns_data],
    )


# ----------------------------------------------------------------------
# Reproduction emission
# ----------------------------------------------------------------------
def to_pytest_repro(
    instance: RelationInstance,
    failure_expr: str,
    imports: Sequence[str] = (),
    test_name: str = "test_shrunk_repro",
    comment: str | None = None,
) -> str:
    """Render a self-contained pytest module reproducing the failure.

    ``failure_expr`` is a Python expression over the local name
    ``instance`` that is truthy while the bug reproduces; the emitted
    test asserts its falsity, so pasting the module into ``tests/``
    yields a red test until the bug is fixed.
    """
    lines = ["from repro.model.instance import RelationInstance"]
    lines.append("from repro.model.schema import Relation")
    lines.extend(imports)
    lines.append("")
    lines.append("")
    lines.append(f"def {test_name}():")
    if comment:
        for row in comment.splitlines():
            lines.append(f"    # {row}")
    columns = ", ".join(repr(name) for name in instance.columns)
    trailing = "," if instance.arity == 1 else ""
    lines.append("    instance = RelationInstance(")
    lines.append(f"        Relation({instance.name!r}, ({columns}{trailing})),")
    lines.append("        [")
    for column in instance.columns_data:
        lines.append(f"            {list(column)!r},")
    lines.append("        ],")
    lines.append("    )")
    lines.append(f"    assert not ({failure_expr})")
    lines.append("")
    return "\n".join(lines)
