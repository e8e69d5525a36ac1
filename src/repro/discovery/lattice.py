"""Shared lattice search for minimal satisfying attribute sets.

DUCC (unique column combinations) and approximate-FD discovery
(:mod:`repro.extensions.approximate`) solve the same abstract problem:
given an *upward monotone* predicate over subsets of a universe
(supersets of a satisfying set satisfy it too), find all
inclusion-minimal satisfying sets.  DUCC's machinery does it: record
minimal satisfying sets and maximal non-satisfying sets, and use the
*minimal hitting sets of the complements of the maximal non-satisfying
sets* to find unexplored holes and to prove completeness.

The DUCC and DFD papers prime those boundary sets with random walks.
The hitting-set completion loop below is exact without them, and on
every input measured the walks made no search faster (DESIGN.md §2), so
the search starts from the trivial boundaries and its result depends on
the predicate alone.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.discovery.hitting_sets import minimal_hitting_sets
from repro.model.attributes import iter_bits
from repro.runtime.errors import BudgetExceeded
from repro.runtime.governor import checkpoint
from repro.structures.settrie import SetTrie

__all__ = ["find_minimal_satisfying"]


class _Classifier:
    """Memoized predicate with minimal/maximal boundary pruning.

    The boundary sets are :class:`SetTrie` stores, so the
    per-evaluation subset/superset screens walk only the trie paths the
    query can reach.
    """

    __slots__ = ("predicate", "universe", "min_sat", "max_unsat", "cache")

    def __init__(self, predicate: Callable[[int], bool], universe: int) -> None:
        self.predicate = predicate
        self.universe = universe
        self.min_sat = SetTrie()
        self.max_unsat = SetTrie()
        self.cache: dict[int, bool] = {}

    def satisfies(self, mask: int) -> bool:
        if self.min_sat.contains_subset_of(mask):
            return True
        if self.max_unsat.contains_superset_of(mask):
            return False
        cached = self.cache.get(mask)
        if cached is None:
            checkpoint("lattice-eval")
            cached = self.predicate(mask)
            self.cache[mask] = cached
        return cached

    def maximize(self, mask: int) -> int:
        """Walk up to an inclusion-maximal non-satisfying superset."""
        changed = True
        while changed:
            changed = False
            for attr in iter_bits(self.universe & ~mask):
                bigger = mask | (1 << attr)
                if not self.satisfies(bigger):
                    mask = bigger
                    changed = True
                    break
        return mask


def find_minimal_satisfying(
    predicate: Callable[[int], bool], universe: int
) -> list[int]:
    """Return all minimal subsets of ``universe`` satisfying ``predicate``,
    sorted; ``predicate`` must be upward monotone."""
    classifier = _Classifier(predicate, universe)

    try:
        # Trivial boundaries first.
        if classifier.satisfies(0):
            return [0]
        if not classifier.satisfies(universe):
            return []

        return _complete_with_hitting_sets(classifier)
    except BudgetExceeded as exc:
        # Minimal satisfying sets found so far are exact facts; DUCC's
        # caller keys a relation with them.
        raise exc.attach_partial(
            sorted(classifier.min_sat.iter_all()), exact=True
        )


def _complete_with_hitting_sets(classifier: _Classifier) -> list[int]:
    """The duality loop: candidates are minimal hitting sets of the
    complements of known maximal non-satisfying sets.

    Each round either confirms a candidate as a (new) minimal satisfying
    set or discovers a new maximal non-satisfying set; both sets are
    finite, so the loop terminates — and at a fixpoint, duality makes
    the result provably complete.
    """
    universe = classifier.universe
    while True:
        checkpoint("lattice-round")
        complements = [
            universe & ~non_sat for non_sat in classifier.max_unsat.iter_all()
        ]
        candidates = minimal_hitting_sets(complements, universe)
        new_unsat: list[int] = []
        progressed = False
        # One membership screen for the whole round: candidates are
        # pairwise distinct (minimal_hitting_sets dedups), so the
        # mid-round min_sat inserts below can never be hits for later
        # candidates and the pre-round screen is exact.
        known = [candidate in classifier.min_sat for candidate in candidates]
        for candidate, already_minimal in zip(candidates, known):
            if already_minimal:
                continue
            progressed = True
            if classifier.satisfies(candidate):
                # A satisfying minimal hitting set is a minimal
                # satisfying set (its minimization also hits every
                # complement, so minimality of the hitting set pins it).
                classifier.min_sat.insert(candidate)
            else:
                new_unsat.append(classifier.maximize(candidate))
        for mask in new_unsat:
            classifier.max_unsat.insert(mask)
        if not progressed:
            return sorted(classifier.min_sat.iter_all())
