"""DFD — FD discovery via lattice random walks (Abedjan et al., 2014).

DFD treats each attribute ``A`` as a potential RHS and searches the
lattice of LHS candidates (subsets of ``R \\ {A}``) for the minimal
dependencies.  "X → A holds" is an upward-monotone predicate — if
``X → A`` holds then ``XZ → A`` holds — so the search is exactly the
generic boundary search of :mod:`repro.discovery.lattice`: random walks
classify nodes, minimal dependencies and maximal non-dependencies prune
the space, and minimal hitting sets of the non-dependency complements
find unexplored holes and certify completeness.

The FD predicate itself is the classic partition-refinement check:
``X → A`` iff every cluster of the stripped partition π(X) agrees on
the value of ``A``.
"""

from __future__ import annotations

from repro.discovery.base import FDAlgorithm
from repro.discovery.lattice import find_minimal_satisfying
from repro.model.attributes import full_mask
from repro.model.fd import FDSet
from repro.model.instance import RelationInstance
from repro.runtime.errors import BudgetExceeded
from repro.runtime.governor import checkpoint
from repro.structures.partitions import PLICache

__all__ = ["DFD"]


class DFD(FDAlgorithm):
    """Complete minimal-FD discovery via per-RHS lattice walks."""

    name = "dfd"

    def __init__(
        self,
        null_equals_null: bool = True,
        max_lhs_size: int | None = None,
        seed: int = 42,
        random_walks: int = 8,
    ) -> None:
        super().__init__(null_equals_null, max_lhs_size)
        self.seed = seed
        self.random_walks = random_walks
        self.last_cache_stats = None

    def discover(self, instance: RelationInstance) -> FDSet:
        arity = instance.arity
        result = FDSet(arity)
        if arity == 0:
            return result
        cache = PLICache(instance, self.null_equals_null)
        self.last_cache_stats = cache.stats
        everything = full_mask(arity)
        for rhs_attr in range(arity):
            checkpoint("dfd-rhs")
            rhs_bit = 1 << rhs_attr
            universe = everything & ~rhs_bit
            probe = cache.probe(rhs_attr)

            def holds(lhs: int) -> bool:
                return cache.get(lhs).refines_column(probe)

            try:
                minimal_lhss = find_minimal_satisfying(
                    holds,
                    universe,
                    seed=self.seed + rhs_attr,
                    random_walks=self.random_walks,
                )
            except BudgetExceeded as exc:
                # Completed RHS attributes are exact; the in-flight one
                # contributes the minimal LHSs its lattice search pinned.
                if isinstance(exc.partial, list):
                    for lhs in exc.partial:
                        if self._within_lhs_bound(lhs):
                            result.add_masks(lhs, rhs_bit)
                exc.partial = None
                raise exc.attach_partial(result, exact=True)
            for lhs in minimal_lhss:
                if self._within_lhs_bound(lhs):
                    result.add_masks(lhs, rhs_bit)
        return result
