"""Pure-Python kernel backend — the reference loops and fallback.

These are the original interpreted hot loops of the partition engine,
moved here verbatim from :mod:`repro.structures.partitions` and
:mod:`repro.structures.encoding` so both backends sit behind one
dispatch seam.  This backend is always available (no dependencies),
runs every kernel call below ``repro.kernels.SMALL_INPUT_THRESHOLD``
driving elements, and doubles as the differential oracle the numpy
backend is tested against.

All kernels operate on raw buffers — ``array('i')`` CSR pairs
(``row_data``, ``offsets``), value-id code vectors, and row-index
sequences — never on :class:`StrippedPartition` objects, so the module
imports nothing from the structures layer and cannot create cycles.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

__all__ = [
    "agree_one_to_many",
    "agree_pairs",
    "find_violating_pair",
    "find_violations",
    "from_value_ids",
    "intersect",
    "intersect_ids",
    "lattice_any_violation",
    "lattice_find_generalization",
    "lattice_violations",
    "name",
    "refines_column",
    "reset_scratch",
]

name = "python"


# One shared probe buffer for all intersections (single-threaded library).
# Entries are -1 except while an intersect() call is in flight; each call
# restores the entries it wrote — element-wise when few were touched, via
# a C-speed slice copy from the constant -1 pool when most were — so
# consecutive products of any partitions reuse the buffer without
# allocating O(num_rows) scratch per call.
_PROBE_BUFFER = array("i")
_NEG_ONES = array("i")


def _probe_buffer(num_rows: int) -> array:
    if len(_PROBE_BUFFER) < num_rows:
        grow = [-1] * (num_rows - len(_PROBE_BUFFER))
        _PROBE_BUFFER.extend(grow)
        _NEG_ONES.extend(grow)
    return _PROBE_BUFFER


def reset_scratch() -> None:
    """Reinitialize the shared probe buffer (fork hygiene).

    A child forked while a parent ``intersect`` was in flight would
    otherwise inherit a buffer with live (non ``-1``) entries and
    silently corrupt its first product.  Dropping the capacity also
    releases memory the worker never needs.
    """
    del _PROBE_BUFFER[:]
    del _NEG_ONES[:]


# ----------------------------------------------------------------------
# Partition construction and refinement
# ----------------------------------------------------------------------
def from_value_ids(
    codes: Sequence[int], null_code: int | None
) -> tuple[array, array]:
    """Group rows by value id into stripped CSR (NULL cluster last)."""
    groups: dict[int, list[int]] = {}
    for row, code in enumerate(codes):
        group = groups.get(code)
        if group is None:
            groups[code] = [row]
        else:
            group.append(row)
    null_group = groups.pop(null_code, None) if null_code is not None else None
    row_data = array("i")
    offsets = array("i", [0])
    for cluster in groups.values():
        if len(cluster) > 1:
            row_data.extend(cluster)
            offsets.append(len(row_data))
    if null_group is not None and len(null_group) > 1:
        row_data.extend(null_group)
        offsets.append(len(row_data))
    return row_data, offsets


def intersect(
    row_data: array,
    offsets: array,
    num_rows: int,
    other_rows: array,
    other_offsets: array,
) -> tuple[array, array]:
    """Stripped product of two CSR partitions via the probe buffer."""
    probe = _probe_buffer(num_rows)
    try:
        for cluster_id in range(len(other_offsets) - 1):
            for row in other_rows[
                other_offsets[cluster_id] : other_offsets[cluster_id + 1]
            ]:
                probe[row] = cluster_id
        new_rows = array("i")
        new_offsets = array("i", [0])
        sub: dict[int, list[int]] = {}
        for cluster_id in range(len(offsets) - 1):
            sub.clear()
            for row in row_data[offsets[cluster_id] : offsets[cluster_id + 1]]:
                other_id = probe[row]
                if other_id >= 0:
                    group = sub.get(other_id)
                    if group is None:
                        sub[other_id] = [row]
                    else:
                        group.append(row)
            for rows in sub.values():
                if len(rows) > 1:
                    new_rows.extend(rows)
                    new_offsets.append(len(new_rows))
    finally:
        if 2 * len(other_rows) >= num_rows:
            probe[:num_rows] = _NEG_ONES[:num_rows]
        else:
            for row in other_rows:
                probe[row] = -1
    return new_rows, new_offsets


def intersect_ids(
    row_data: array, offsets: array, num_rows: int, codes: Sequence[int]
) -> tuple[array, array]:
    """Product with a single attribute given as its value-id vector."""
    new_rows = array("i")
    new_offsets = array("i", [0])
    sub: dict[int, list[int]] = {}
    for cluster_id in range(len(offsets) - 1):
        sub.clear()
        for row in row_data[offsets[cluster_id] : offsets[cluster_id + 1]]:
            value_id = codes[row]
            group = sub.get(value_id)
            if group is None:
                sub[value_id] = [row]
            else:
                group.append(row)
        for rows in sub.values():
            if len(rows) > 1:
                new_rows.extend(rows)
                new_offsets.append(len(new_rows))
    return new_rows, new_offsets


# ----------------------------------------------------------------------
# Violation scans
# ----------------------------------------------------------------------
def refines_column(row_data: array, offsets: array, probe: Sequence[int]) -> bool:
    """True iff every cluster agrees on ``probe`` values (FD check)."""
    for cluster_id in range(len(offsets) - 1):
        start = offsets[cluster_id]
        first = probe[row_data[start]]
        for row in row_data[start + 1 : offsets[cluster_id + 1]]:
            if probe[row] != first:
                return False
    return True


def find_violating_pair(
    row_data: array, offsets: array, probe: Sequence[int]
) -> tuple[int, int] | None:
    """One row pair agreeing on the partition but differing on the probe."""
    for cluster_id in range(len(offsets) - 1):
        start = offsets[cluster_id]
        first_row = row_data[start]
        first = probe[first_row]
        for row in row_data[start + 1 : offsets[cluster_id + 1]]:
            if probe[row] != first:
                return (first_row, row)
    return None


def find_violations(
    row_data: array,
    offsets: array,
    rhs_attrs: Sequence[int],
    probes: Sequence[Sequence[int]],
) -> dict[int, tuple[int, int]]:
    """Refute many RHS candidates in one sweep over the clusters."""
    violations: dict[int, tuple[int, int]] = {}
    remaining = list(zip(rhs_attrs, probes))
    if not remaining:
        return violations
    for cluster_id in range(len(offsets) - 1):
        start = offsets[cluster_id]
        first_row = row_data[start]
        rest = row_data[start + 1 : offsets[cluster_id + 1]]
        survivors = []
        for attr, probe in remaining:
            first = probe[first_row]
            for row in rest:
                if probe[row] != first:
                    violations[attr] = (first_row, row)
                    break
            else:
                survivors.append((attr, probe))
        remaining = survivors
        if not remaining:
            break
    return violations


# ----------------------------------------------------------------------
# Agree sets
# ----------------------------------------------------------------------
def agree_pairs(
    codes: Sequence[Sequence[int]],
    lefts: Sequence[int],
    rights: Sequence[int],
) -> list[int]:
    """Attribute-agreement bitmask per ``(lefts[i], rights[i])`` pair."""
    masks = []
    for left, right in zip(lefts, rights):
        agree = 0
        bit = 1
        for column in codes:
            if column[left] == column[right]:
                agree |= bit
            bit <<= 1
        masks.append(agree)
    return masks


def agree_one_to_many(
    codes: Sequence[Sequence[int]], left: int, rights: Sequence[int]
) -> list[int]:
    """Agreement bitmask of row ``left`` against each row in ``rights``."""
    masks = []
    for right in rights:
        agree = 0
        bit = 1
        for column in codes:
            if column[left] == column[right]:
                agree |= bit
            bit <<= 1
        masks.append(agree)
    return masks


# ----------------------------------------------------------------------
# FD-tree lattice sweeps (repro.structures.fdtree)
# ----------------------------------------------------------------------
# The level-indexed FDTree owns its per-level entry arrays (plain
# Python-int lists) and inlines these sweeps for speed; they are not
# dispatched through the registry.  These loops are the normative
# oracles the tree's inlined copies are pinned against
# (tests/test_fdtree_differential.py).


def lattice_find_generalization(
    lhs_rows: Sequence[int],
    rhs_rows: Sequence[int],
    lhs: int,
    rhs_bit: int,
) -> bool:
    """True iff some entry has ``lhs_rows[i] ⊆ lhs`` and ``rhs & rhs_bit``."""
    outside = ~lhs
    for stored, rhs in zip(lhs_rows, rhs_rows):
        if rhs & rhs_bit and stored & outside == 0:
            return True
    return False


def lattice_violations(
    lhs_rows: Sequence[int],
    rhs_rows: Sequence[int],
    agree_set: int,
    disagree: int,
) -> list[int]:
    """Positions with ``lhs_rows[i] ⊆ agree_set`` and ``rhs & disagree``."""
    outside = ~agree_set
    out = []
    for pos, stored in enumerate(lhs_rows):
        if rhs_rows[pos] & disagree and stored & outside == 0:
            out.append(pos)
    return out


def lattice_specialization_screen(
    lhs_rows: Sequence[int],
    rhs_rows: Sequence[int],
    allowed: int,
    rhs_bit: int,
) -> list[int]:
    """Positions with ``lhs_rows[i] ⊆ allowed`` and ``rhs & rhs_bit``.

    Oracle for the minimal-specialization prefilter: ``allowed`` is the
    base LHS unioned with every candidate extension bit, so any stored
    generalization of any candidate passes; the caller applies the
    exact empty-or-single-extension test to the surviving rows.
    """
    outside = ~allowed
    return [
        pos
        for pos, stored in enumerate(lhs_rows)
        if rhs_rows[pos] & rhs_bit and stored & outside == 0
    ]


def lattice_any_violation(
    lhs_rows: Sequence[int],
    rhs_rows: Sequence[int],
    agree_set: int,
    disagree: int,
) -> bool:
    """Early-exit form of :func:`lattice_violations`."""
    outside = ~agree_set
    for stored, rhs in zip(lhs_rows, rhs_rows):
        if rhs & disagree and stored & outside == 0:
            return True
    return False
