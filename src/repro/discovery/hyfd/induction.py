"""HyFD induction phase: negative cover → positive cover.

The positive cover is an :class:`~repro.structures.fdtree.FDTree` that
always satisfies two invariants:

* **antichain** — no stored FD has a stored generalization, and
* **covering** — every minimal FD that is valid on the data has a
  stored generalization.

It starts as ``∅ → R`` (everything depends on nothing) and is refined
by *agree sets*: a record pair agreeing exactly on ``V`` violates every
stored ``X → a`` with ``X ⊆ V`` and ``a ∉ V``.  Each violated FD is
removed and replaced by its direct specializations ``X ∪ {b} → a`` for
every ``b`` outside ``V ∪ {a}`` — adding any attribute inside ``V``
would leave the FD violated by the same pair.  Checking for an existing
generalization before inserting keeps the antichain invariant; choosing
``b ∉ V`` keeps the covering invariant (any valid ``Y ⊇ X`` must leave
``V`` through some such ``b``).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.model.attributes import full_mask, iter_bits
from repro.runtime.governor import checkpoint
from repro.structures.fdtree import FDTree

__all__ = [
    "apply_agree_set",
    "apply_agree_sets",
    "build_positive_cover",
    "specialize",
]

#: after this many FD removals since the last compaction, the tree is
#: pruned — removal bursts leave tombstones and stale RHS
#: over-approximations that inflate every later lattice sweep
PRUNE_BURST = 64


def build_positive_cover(
    num_attributes: int,
    agree_sets: Iterable[int],
    max_lhs_size: int | None = None,
) -> FDTree:
    """Build the positive cover from scratch for the given negative cover."""
    tree = FDTree(num_attributes)
    tree.add(0, full_mask(num_attributes))
    apply_agree_sets(tree, agree_sets, max_lhs_size)
    return tree


def apply_agree_sets(
    tree: FDTree, agree_sets: Iterable[int], max_lhs_size: int | None = None
) -> int:
    """Refine the positive cover with a batch of agree sets.

    Agree sets are applied largest-first, the paper's order: large
    agree sets refute the most candidates per tree pass.  The whole
    batch is first screened against the current tree in one
    ``any_violated_batch`` sweep; sets that violate nothing are skipped
    outright.  That screen stays exact while the tree evolves: every
    FD the non-skipped sets insert has an LHS extended *outside* its
    agree set, so an agree set clean against the pre-batch tree can
    never become violated by a later specialization (its cleanliness
    already implied the new FD's RHS attribute lies inside it whenever
    the new, larger LHS does).

    Removal bursts are followed by :meth:`FDTree.prune` so tombstones
    and stale union masks don't inflate the remaining sweeps.  Returns
    the number of FDs removed.
    """
    ordered = sorted(set(agree_sets), key=lambda mask: -mask.bit_count())
    if not ordered:
        return 0
    flags = tree.any_violated_batch(ordered)
    removed = 0
    removed_since_prune = 0
    for agree, violates in zip(ordered, flags):
        if not violates:
            continue
        count = apply_agree_set(tree, agree, max_lhs_size)
        removed += count
        removed_since_prune += count
        if removed_since_prune >= PRUNE_BURST:
            tree.prune()
            removed_since_prune = 0
    return removed


def apply_agree_set(
    tree: FDTree, agree_set: int, max_lhs_size: int | None = None
) -> int:
    """Refine the positive cover with one agree set; return #removed FDs."""
    violated = tree.collect_violated(agree_set)
    removed = 0
    for lhs, rhs_mask in violated:
        checkpoint("hyfd-induct")
        tree.remove(lhs, rhs_mask)
        removed += rhs_mask.bit_count()
        for rhs_attr in iter_bits(rhs_mask):
            specialize(tree, lhs, rhs_attr, agree_set, max_lhs_size)
    return removed


def specialize(
    tree: FDTree,
    lhs: int,
    rhs_attr: int,
    agree_set: int,
    max_lhs_size: int | None = None,
) -> list[int]:
    """Insert the minimal specializations of a just-refuted ``lhs → rhs_attr``
    and return the LHSs added.

    With ``max_lhs_size`` set, specializations that would exceed the
    bound are dropped — this is exactly the paper's §4.3 pruning, which
    HyFD provides "for free".
    """
    rhs_bit = 1 << rhs_attr
    new_size = lhs.bit_count() + 1
    if max_lhs_size is not None and new_size > max_lhs_size:
        return []
    candidates = full_mask(tree.num_attributes) & ~(agree_set | rhs_bit | lhs)
    return tree.add_minimal_specializations(lhs, rhs_attr, candidates)
