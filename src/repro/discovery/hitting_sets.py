"""Minimal hitting set enumeration over attribute bitmasks.

Minimal FDs are exactly the minimal hitting sets of the *difference
sets* of the violating record pairs (the FDep view of discovery that
``BruteForceFD`` takes), and DUCC's lattice search uses minimal hitting
sets of the complements of maximal non-uniques to prove its result
complete.  This module provides one shared enumerator for both.

The enumerator branches on the first not-yet-hit difference set and
maintains the MMCS-style *criticality* invariant: every chosen
attribute must be the sole hitter of at least one difference set.
Adding attributes can only destroy criticality, never restore it, so
pruning a branch the moment an attribute loses all critical sets is
safe, and every surviving leaf is a minimal hitting set by definition.
The problem is exponential in the worst case, but the attribute counts
in this library (tens, not thousands) keep it comfortably fast.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.model.attributes import iter_bits
from repro.runtime.governor import checkpoint

__all__ = ["minimal_hitting_sets"]


def minimal_hitting_sets(difference_sets: Iterable[int], universe: int) -> list[int]:
    """Enumerate all minimal subsets of ``universe`` hitting every input set.

    A *hitting set* ``H`` satisfies ``H & D != 0`` for every difference
    set ``D``.  Difference sets are intersected with ``universe`` first;
    if any becomes empty, no hitting set exists and ``[]`` is returned.
    The empty collection of difference sets is hit by the empty set
    (result ``[0]``).
    """
    sets = _minimize_inputs(difference_sets, universe)
    if sets is None:
        return []
    if not sets:
        return [0]
    found: set[int] = set()
    _extend(0, sets, found)
    return sorted(found)


def _minimize_inputs(
    difference_sets: Iterable[int], universe: int
) -> list[int] | None:
    """Restrict to the universe and drop supersets of other difference sets.

    Returns ``None`` when some difference set cannot be hit at all.
    Hitting all inclusion-minimal difference sets hits every set, so
    supersets are redundant.
    """
    restricted = []
    for mask in difference_sets:
        mask &= universe
        if mask == 0:
            return None
        restricted.append(mask)
    restricted = sorted(set(restricted), key=lambda mask: mask.bit_count())
    kept: list[int] = []
    for mask in restricted:
        if not any(other & ~mask == 0 for other in kept):
            kept.append(mask)
    return kept


def _extend(current: int, sets: Sequence[int], found: set[int]) -> None:
    checkpoint("hitting-sets")
    unhit = next((mask for mask in sets if not mask & current), None)
    if unhit is None:
        found.add(current)
        return
    for bit_index in iter_bits(unhit):
        candidate = current | (1 << bit_index)
        if candidate in found:
            continue
        if _all_critical(candidate, sets):
            _extend(candidate, sets, found)


def _all_critical(candidate: int, sets: Sequence[int]) -> bool:
    """True iff every bit of ``candidate`` is the sole hitter of some set."""
    pending = candidate
    for mask in sets:
        hit = mask & candidate
        if hit and not (hit & (hit - 1)):  # exactly one bit set
            pending &= ~hit
            if not pending:
                return True
    return not pending
