"""Shared test utilities: semantic FD checks and canonical forms."""

from __future__ import annotations

from repro.model.attributes import iter_bits
from repro.model.fd import FDSet
from repro.model.instance import RelationInstance
from repro.structures.encoding import EncodedRelation
from repro.structures.partitions import column_value_ids

__all__ = [
    "assert_encodings_identical",
    "canon_fds",
    "fd_holds",
    "is_minimal_fd",
    "semantic_closure_of_set",
]


def fd_holds(
    instance: RelationInstance,
    lhs: int,
    rhs: int,
    null_equals_null: bool = True,
) -> bool:
    """Definition-level FD check: grouping rows by LHS values."""
    probes = [
        column_value_ids(instance.columns_data[i], null_equals_null)
        for i in range(instance.arity)
    ]
    lhs_bits = list(iter_bits(lhs))
    rhs_bits = list(iter_bits(rhs))
    seen: dict[tuple, tuple] = {}
    for row in range(instance.num_rows):
        key = tuple(probes[i][row] for i in lhs_bits)
        value = tuple(probes[i][row] for i in rhs_bits)
        if key in seen:
            if seen[key] != value:
                return False
        else:
            seen[key] = value
    return True


def is_minimal_fd(
    instance: RelationInstance,
    lhs: int,
    rhs_attr: int,
    null_equals_null: bool = True,
) -> bool:
    """True iff ``lhs → rhs_attr`` holds and no immediate generalization does."""
    rhs = 1 << rhs_attr
    if not fd_holds(instance, lhs, rhs, null_equals_null):
        return False
    for attr in iter_bits(lhs):
        if fd_holds(instance, lhs & ~(1 << attr), rhs, null_equals_null):
            return False
    return True


def canon_fds(fds: FDSet) -> set[tuple[int, int]]:
    """Canonical single-RHS form: set of (lhs_mask, rhs_attr_index)."""
    out = set()
    for lhs, rhs in fds.items():
        for attr in iter_bits(rhs):
            out.add((lhs, attr))
    return out


def semantic_closure_of_set(
    instance: RelationInstance, lhs: int, null_equals_null: bool = True
) -> int:
    """Attribute closure of ``lhs`` straight from the data (no FD set)."""
    closure = lhs
    for attr in range(instance.arity):
        bit = 1 << attr
        if closure & bit:
            continue
        if fd_holds(instance, lhs, bit, null_equals_null):
            closure |= bit
    return closure


def assert_encodings_identical(left: EncodedRelation, right: EncodedRelation) -> None:
    """Codes, cardinalities, NULL codes and shape all equal."""
    assert [list(column) for column in left.codes] == [
        list(column) for column in right.codes
    ]
    assert left.cardinalities == right.cardinalities
    assert left.null_codes == right.null_codes
    assert left.num_rows == right.num_rows
    assert left.null_equals_null == right.null_equals_null
