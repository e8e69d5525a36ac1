"""Approximate functional dependencies and data-error reporting.

Two of the paper's observations motivate this extension:

* §1: "The FD Postcode → City … is commonly believed to be true
  although it is usually violated by exceptions" — on real data the
  semantically *true* constraint often holds only approximately,
* §9: "Another open research question is how normalization processes
  should handle dynamic data and errors in the data."

An *approximate FD* (AFD) ``X → A`` holds with error ``g3(X → A) ≤ ε``
where ``g3`` is TANE's error measure: the minimal fraction of records
whose removal makes the FD exact.  Within each ``X``-group, keeping
only the most frequent ``A`` value is optimal, so

    g3 = (n − Σ_groups max_value_count) / n.

Because ``g3`` never increases when the LHS grows, "error ≤ ε" is an
upward-monotone predicate and the generic boundary search of
:mod:`repro.discovery.lattice` enumerates the minimal approximate LHSs
exactly — the same machinery DUCC uses.

:func:`violating_rows` reports the concrete exception records, which is
the actionable half of the "errors in the data" question: a user can
inspect, fix, or exclude them before normalizing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.discovery.lattice import find_minimal_satisfying
from repro.model.attributes import bits_of, full_mask, iter_bits
from repro.model.instance import RelationInstance
from repro.runtime.governor import checkpoint

__all__ = ["AFD", "discover_afds", "g3_error", "violating_rows"]


@dataclass(frozen=True, slots=True)
class AFD:
    """An approximate FD ``lhs → rhs_attr`` with its g3 error."""

    lhs: int
    rhs_attr: int
    error: float

    def to_str(self, columns) -> str:
        lhs = ",".join(columns[i] for i in iter_bits(self.lhs)) or "{}"
        return f"{lhs} -> {columns[self.rhs_attr]} (g3={self.error:.3f})"


def g3_error(
    instance: RelationInstance,
    lhs: int,
    rhs_attr: int,
    null_equals_null: bool = True,
) -> float:
    """TANE's g3: minimal fraction of rows to drop for ``lhs → rhs_attr``."""
    rows = instance.num_rows
    if rows == 0:
        return 0.0
    checkpoint("g3-error", units=max(rows // 256, 1))
    probes = instance.encoded(null_equals_null).codes
    lhs_bits = bits_of(lhs)
    groups: dict[tuple, Counter] = {}
    for row in range(rows):
        key = tuple(probes[i][row] for i in lhs_bits)
        groups.setdefault(key, Counter())[probes[rhs_attr][row]] += 1
    kept = sum(counter.most_common(1)[0][1] for counter in groups.values())
    return (rows - kept) / rows


def discover_afds(
    instance: RelationInstance,
    max_error: float,
    max_lhs_size: int | None = None,
    null_equals_null: bool = True,
) -> list[AFD]:
    """All minimal approximate FDs with ``g3 ≤ max_error``.

    With ``max_error = 0`` this degenerates to exact minimal-FD
    discovery (and is tested against the exact discoverers).  LHSs
    wider than ``max_lhs_size`` are omitted, mirroring §4.3 pruning.
    """
    if not 0.0 <= max_error < 1.0:
        raise ValueError("max_error must be within [0, 1)")
    arity = instance.arity
    results: list[AFD] = []
    everything = full_mask(arity)
    for rhs_attr in range(arity):
        universe = everything & ~(1 << rhs_attr)

        def within_error(lhs: int) -> bool:
            return (
                g3_error(instance, lhs, rhs_attr, null_equals_null)
                <= max_error
            )

        for lhs in find_minimal_satisfying(within_error, universe):
            if max_lhs_size is not None and lhs.bit_count() > max_lhs_size:
                continue
            results.append(
                AFD(
                    lhs,
                    rhs_attr,
                    g3_error(instance, lhs, rhs_attr, null_equals_null),
                )
            )
    return results


def violating_rows(
    instance: RelationInstance,
    lhs: int,
    rhs_attr: int,
    null_equals_null: bool = True,
) -> list[int]:
    """The exception records of an approximate FD.

    Returns the (minimal) set of row indices whose removal makes
    ``lhs → rhs_attr`` exact: within every LHS group, all rows that do
    not carry the group's majority RHS value.  Ties break towards the
    value seen first, so the result is deterministic.
    """
    probes = instance.encoded(null_equals_null).codes
    lhs_bits = bits_of(lhs)
    groups: dict[tuple, list[int]] = {}
    for row in range(instance.num_rows):
        key = tuple(probes[i][row] for i in lhs_bits)
        groups.setdefault(key, []).append(row)
    exceptions: list[int] = []
    for rows in groups.values():
        counts: Counter = Counter(probes[rhs_attr][row] for row in rows)
        majority = max(counts.items(), key=lambda item: (item[1], -_first_row(rows, probes, rhs_attr, item[0])))[0]
        exceptions.extend(
            row for row in rows if probes[rhs_attr][row] != majority
        )
    return sorted(exceptions)


def _first_row(rows, probes, rhs_attr, value) -> int:
    for row in rows:
        if probes[rhs_attr][row] == value:
            return row
    return -1  # pragma: no cover - value always stems from rows
