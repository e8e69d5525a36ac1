"""Multi-valued dependency (MVD) discovery.

Paper §6: "constructing 4NF requires all multi-valued dependencies
(MVDs) and, hence, an algorithm that discovers MVDs."  This module is
that algorithm, data-driven like the rest of the system.

An MVD ``X ↠ Y`` holds in ``r`` iff, within every group of records
agreeing on ``X``, the combinations of ``Y``-values and ``Z``-values
(``Z = R − X − Y``) form a full cross product — the ``Y`` side varies
independently of the ``Z`` side.  Every FD is an MVD; the interesting
MVDs are the non-FD ones (join dependencies hiding in the data).

For each LHS ``X``, the valid RHSs form a Boolean algebra whose atoms
are the *dependency basis* of ``X`` (Beeri 1980): the unique partition
of ``R − X`` such that ``X ↠ W`` holds iff ``W`` is a union of basis
blocks.  We compute the basis directly from the data by iterative
refinement, which keeps the per-LHS cost polynomial; LHS enumeration
is bounded by ``max_lhs_size`` because the lattice is exponential —
exactly the paper's §4.3 pruning argument, and short LHSs are again
the semantically plausible ones.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

from repro.model.attributes import bits_of, full_mask, iter_bits, mask_of
from repro.model.instance import RelationInstance

__all__ = ["MVD", "dependency_basis", "discover_mvds", "mvd_holds"]


@dataclass(frozen=True, slots=True)
class MVD:
    """A multi-valued dependency ``lhs ↠ rhs`` (masks, disjoint)."""

    lhs: int
    rhs: int

    def to_str(self, columns) -> str:
        lhs = ",".join(columns[i] for i in iter_bits(self.lhs)) or "{}"
        rhs = ",".join(columns[i] for i in iter_bits(self.rhs))
        return f"{lhs} ->> {rhs}"


def _group_rows(
    probes: Sequence[Sequence[int]], mask: int, num_rows: int
) -> dict[tuple, list[int]]:
    bits = bits_of(mask)
    groups: dict[tuple, list[int]] = {}
    for row in range(num_rows):
        groups.setdefault(tuple(probes[i][row] for i in bits), []).append(row)
    return groups


def mvd_holds(
    instance: RelationInstance,
    lhs: int,
    rhs: int,
    null_equals_null: bool = True,
) -> bool:
    """Definition-level MVD check: cross product within every LHS group.

    Trivial cases (``rhs ⊆ lhs`` or ``lhs ∪ rhs = R``) hold by
    definition.
    """
    everything = full_mask(instance.arity)
    rhs &= ~lhs
    other = everything & ~(lhs | rhs)
    if not rhs or not other:
        return True
    probes = instance.encoded(null_equals_null).codes
    rhs_bits = bits_of(rhs)
    other_bits = bits_of(other)
    for rows in _group_rows(probes, lhs, instance.num_rows).values():
        ys = set()
        zs = set()
        pairs = set()
        for row in rows:
            y = tuple(probes[i][row] for i in rhs_bits)
            z = tuple(probes[i][row] for i in other_bits)
            ys.add(y)
            zs.add(z)
            pairs.add((y, z))
        if len(pairs) != len(ys) * len(zs):
            return False
    return True


def dependency_basis(
    instance: RelationInstance,
    lhs: int,
    null_equals_null: bool = True,
) -> list[int]:
    """The dependency basis of ``lhs``: the atoms of its valid MVD RHSs.

    Computed by refinement: start from the single block ``R − X`` and
    repeatedly split a block ``B`` into ``W`` / ``B − W`` whenever a
    proper non-empty ``W ⊂ B`` with ``X ↠ W`` exists.  Valid RHSs are
    closed under difference, so both halves stay unions of atoms, and a
    block splits iff it is not an atom — the refinement terminates at
    exactly the basis.

    The result is sorted and forms a partition of ``R − lhs``.
    """
    everything = full_mask(instance.arity)
    remaining = everything & ~lhs
    if not remaining:
        return []
    blocks = [remaining]
    changed = True
    while changed:
        changed = False
        next_blocks: list[int] = []
        for block in blocks:
            split = _find_split(instance, lhs, block, null_equals_null)
            if split is None:
                next_blocks.append(block)
            else:
                next_blocks.append(split)
                next_blocks.append(block & ~split)
                changed = True
        blocks = next_blocks
    return sorted(blocks)


def _find_split(
    instance: RelationInstance,
    lhs: int,
    block: int,
    null_equals_null: bool,
) -> int | None:
    """Find a proper non-empty sub-block ``W ⊂ block`` with ``lhs ↠ W``.

    Candidate sub-blocks are all proper non-empty subsets of the block,
    tested smallest-first so the returned split is an atom candidate.
    Blocks are small in practice (they only shrink), so the local
    exponential stays tame; a hard cap keeps degenerate cases bounded.
    """
    bits = bits_of(block)
    if len(bits) <= 1:
        return None
    max_subset_size = len(bits) - 1
    for size in range(1, max_subset_size + 1):
        for subset in combinations(bits, size):
            candidate = mask_of(subset)
            if mvd_holds(instance, lhs, candidate, null_equals_null):
                return candidate
    return None


def discover_mvds(
    instance: RelationInstance,
    max_lhs_size: int = 2,
    null_equals_null: bool = True,
    include_fd_equivalent: bool = False,
) -> list[MVD]:
    """Enumerate MVDs ``X ↠ Y`` with ``|X| ≤ max_lhs_size``.

    For each LHS the dependency basis is computed and each non-trivial
    block reported once (unions of blocks are implied and omitted).
    With ``include_fd_equivalent=False`` (default), blocks that are
    single attributes functionally determined by ``X`` are skipped —
    those MVDs are just FDs and the FD pipeline already handles them.
    """
    results: list[MVD] = []
    everything = full_mask(instance.arity)
    attributes = list(range(instance.arity))
    for size in range(0, max_lhs_size + 1):
        for lhs_bits in combinations(attributes, size):
            lhs = mask_of(lhs_bits)
            basis = dependency_basis(instance, lhs, null_equals_null)
            if len(basis) <= 1:
                continue  # only the trivial MVD lhs ->> R - lhs
            for block in basis:
                if lhs | block == everything:
                    continue
                if not include_fd_equivalent and _is_fd_block(
                    instance, lhs, block, null_equals_null
                ):
                    continue
                results.append(MVD(lhs, block))
    return results


def _is_fd_block(
    instance: RelationInstance, lhs: int, block: int, null_equals_null: bool
) -> bool:
    """True iff ``lhs → block`` holds (the MVD degenerates to an FD)."""
    probes = instance.encoded(null_equals_null).codes
    block_bits = bits_of(block)
    for rows in _group_rows(probes, lhs, instance.num_rows).values():
        first = tuple(probes[i][rows[0]] for i in block_bits)
        for row in rows[1:]:
            if tuple(probes[i][row] for i in block_bits) != first:
                return False
    return True
