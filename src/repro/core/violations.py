"""Violating-FD identification (paper §6, Algorithm 4).

A relation is in BCNF iff every FD's LHS is a key or superkey.  With
the derived keys in a set-trie, the check per FD is one subset query:
if no key is a subset of the LHS, the FD violates BCNF.  On top of the
core check, Algorithm 4 adds three constraint-preservation rules:

* FDs whose LHS contains a NULL are skipped — the LHS would become a
  primary key after decomposition, and SQL forbids NULLs in keys,
* attributes of an existing primary key are removed from the violating
  RHS, so a decomposition can never tear the primary key apart,
* FDs whose decomposition would tear an existing foreign key apart
  (the FK overlaps the RHS but is not fully inside ``lhs ∪ rhs``) are
  skipped.

A ``target="3nf"`` mode additionally drops violating FDs that would
split the LHS of some other FD — 3NF is dependency-preserving, so no
decomposition may break a dependency other than the chosen one (§6).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.model.fd import FD, FDSet
from repro.structures.settrie import SetTrie

__all__ = ["find_violating_fds"]

_TARGETS = ("bcnf", "3nf")


def find_violating_fds(
    extended_fds: FDSet,
    keys: Sequence[int],
    null_mask: int = 0,
    primary_key: int = 0,
    foreign_keys: Sequence[int] = (),
    target: str = "bcnf",
) -> list[FD]:
    """Algorithm 4: the constraint-preserving BCNF (or 3NF) violations.

    ``null_mask`` flags attributes that contain NULLs; ``primary_key``
    and ``foreign_keys`` are masks of the relation's current
    constraints.  The returned FDs carry the (possibly reduced) RHS the
    decomposition step should use.
    """
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}; choose from {_TARGETS}")

    key_trie = SetTrie()
    for key in keys:
        key_trie.insert(key)

    violating: list[FD] = []
    for lhs, rhs in extended_fds.items():
        if lhs == 0:
            # Constant columns: every attribute set determines them, so
            # they travel to R2 with whichever decomposition includes
            # them in its RHS — but an empty LHS can never become a
            # key/foreign key itself (this reproduces the paper's
            # "shippriority lands in REGION" behaviour on TPC-H).
            continue
        if lhs & null_mask:
            continue  # NULL in LHS: cannot become a primary key
        if key_trie.contains_subset_of(lhs):
            continue  # LHS is a key or superkey: BCNF-conform
        if primary_key:
            rhs &= ~primary_key  # never tear the primary key apart
            if not rhs:
                continue
        if _breaks_foreign_key(lhs, rhs, foreign_keys):
            continue
        violating.append(FD(lhs, rhs))

    if target == "3nf":
        violating = _dependency_preserving_only(violating, extended_fds)
    return violating


def _breaks_foreign_key(lhs: int, rhs: int, foreign_keys: Sequence[int]) -> bool:
    """True iff decomposing on ``lhs → rhs`` would split some FK apart.

    After the split, an FK survives iff it lies fully in ``R1``
    (disjoint from the RHS) or fully in ``R2`` (inside ``lhs ∪ rhs``).
    """
    for fk in foreign_keys:
        if fk & rhs and fk & ~(lhs | rhs):
            return True
    return False


def _dependency_preserving_only(violating: list[FD], fds: FDSet) -> list[FD]:
    """Drop violating FDs whose decomposition splits another one's LHS.

    §6: "remove all those groups of violating FDs … that are mutually
    exclusive, i.e., any FD that would split the Lhs of some other FD."
    Splitting on ``X → Y`` produces ``R1 = R \\ Y`` and ``R2 = X ∪ Y``;
    an LHS ``V`` is torn apart iff it fits in neither part, i.e. it
    overlaps ``Y`` *and* reaches outside ``X ∪ Y``.  The check runs
    against the other *violating* FDs (the mutually exclusive
    decomposition options), not against every accidental FD of the
    instance — otherwise spurious FDs would veto almost any split.

    A violating FD vetoes only if its RHS survives left-reduction
    against ``fds``: RHS attributes that a proper subset of its LHS
    already determines are dropped first.  An FD left with nothing is
    not minimal (a projected FD set can keep such FDs), and a split
    that tears its LHS loses no dependency.
    """
    lhs_index: SetTrie | None = None
    essential: dict[FD, bool] = {}

    def is_essential(other: FD) -> bool:
        nonlocal lhs_index
        verdict = essential.get(other)
        if verdict is None:
            if lhs_index is None:
                lhs_index = SetTrie()
                for lhs, _ in fds.items():
                    lhs_index.insert(lhs)
            implied = 0
            for lhs in lhs_index.iter_subsets_of(other.lhs):
                if lhs != other.lhs:
                    implied |= fds.rhs_of(lhs)
            verdict = essential[other] = bool(other.rhs & ~implied)
        return verdict

    kept = []
    for fd in violating:
        splits_some_lhs = any(
            other.lhs != fd.lhs
            and other.lhs & fd.rhs
            and other.lhs & ~(fd.lhs | fd.rhs)
            and is_essential(other)
            for other in violating
        )
        if not splits_some_lhs:
            kept.append(fd)
    return kept
