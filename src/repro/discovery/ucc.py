"""Unique column combination (UCC / key candidate) discovery.

The primary-key selection component of Normalize (paper §5/§7.1) must
find *all* minimal keys of relations that did not inherit one from a
decomposition.  The paper delegates this to DUCC [Heise et al. 2013];
we provide three implementations:

* :class:`DuccUCC` — DUCC-style boundary search: "π(X) has no
  non-singleton cluster" is upward monotone, so the generic lattice
  machinery (hitting-set completion) applies directly,
* :class:`NaiveUCC` — an Apriori-levelwise enumerator used as the test
  oracle,
* :class:`~repro.discovery.hyucc.HyUCC` — the hybrid
  sampling/validation variant (separate module).

Both return the minimal UCCs as attribute bitmasks.  Note that a UCC is
a key *candidate*; NULL handling follows the same convention as FD
discovery, and Normalize separately refuses NULL-containing primary
keys.
"""

from __future__ import annotations

import itertools

from repro.discovery.base import algorithm_class
from repro.discovery.lattice import find_minimal_satisfying
from repro.model.attributes import full_mask, iter_bits
from repro.model.instance import RelationInstance
from repro.runtime.errors import BudgetExceeded
from repro.runtime.governor import checkpoint
from repro.structures.partitions import PLICache
from repro.structures.settrie import SetTrie

__all__ = ["DuccUCC", "NaiveUCC", "discover_uccs"]

#: UCC discoverers by name, as ``module.Class`` (see
#: :func:`~repro.discovery.base.algorithm_class`).
UCC_ALGORITHMS = {
    "ducc": "repro.discovery.ucc.DuccUCC",
    "hyucc": "repro.discovery.hyucc.HyUCC",
    "naive": "repro.discovery.ucc.NaiveUCC",
}


class DuccUCC:
    """DUCC-style minimal-UCC discovery via lattice boundary search."""

    name = "ducc"

    def __init__(self, null_equals_null: bool = True) -> None:
        self.null_equals_null = null_equals_null
        self.last_cache_stats = None

    def discover(self, instance: RelationInstance) -> list[int]:
        """Return all minimal unique column combinations as bitmasks."""
        arity = instance.arity
        if arity == 0:
            return []
        cache = PLICache(instance, self.null_equals_null)
        self.last_cache_stats = cache.stats

        def is_unique(mask: int) -> bool:
            return cache.get(mask).is_unique

        return find_minimal_satisfying(is_unique, full_mask(arity))


class NaiveUCC:
    """Levelwise (Apriori) minimal-UCC discovery — the test oracle."""

    name = "naive-ucc"

    def __init__(self, null_equals_null: bool = True) -> None:
        self.null_equals_null = null_equals_null
        self.last_cache_stats = None

    def discover(self, instance: RelationInstance) -> list[int]:
        """Return all minimal unique column combinations as bitmasks."""
        arity = instance.arity
        if arity == 0:
            return []
        cache = PLICache(instance, self.null_equals_null)
        self.last_cache_stats = cache.stats
        if cache.get(0).is_unique:  # ≤ 1 row: the empty set is unique
            return [0]
        minimal = SetTrie()
        try:
            level = [1 << attr for attr in range(arity)]
            while level:
                checkpoint("naive-ucc", units=len(level))
                survivors = []
                for mask in level:
                    if minimal.contains_subset_of(mask):
                        continue
                    if cache.get(mask).is_unique:
                        minimal.insert(mask)
                    else:
                        survivors.append(mask)
                level = _next_level(survivors)
        except BudgetExceeded as exc:
            raise exc.attach_partial(sorted(minimal.iter_all()), exact=True)
        return sorted(minimal.iter_all())


def _next_level(survivors: list[int]) -> list[int]:
    """Prefix-join generation with the all-subsets-survive check."""
    survivor_set = set(survivors)
    blocks: dict[int, list[int]] = {}
    for mask in survivors:
        top = 1 << (mask.bit_length() - 1)
        blocks.setdefault(mask & ~top, []).append(mask)
    next_level = []
    for block in blocks.values():
        block.sort()
        for first, second in itertools.combinations(block, 2):
            candidate = first | second
            if all(
                candidate & ~(1 << attr) in survivor_set
                for attr in iter_bits(candidate)
            ):
                next_level.append(candidate)
    return next_level


def resolve_ucc_algorithm(algorithm: str = "ducc", **kwargs):
    """Instantiate a UCC discoverer by name.

    Algorithms: ``"ducc"`` (default), ``"hyucc"``, ``"naive"``.
    """
    return algorithm_class(UCC_ALGORITHMS, "UCC", algorithm)(**kwargs)


def discover_uccs(
    instance: RelationInstance, algorithm: str = "ducc", **kwargs
) -> list[int]:
    """Convenience front door for UCC discovery (see :func:`resolve_ucc_algorithm`)."""
    return resolve_ucc_algorithm(algorithm, **kwargs).discover(instance)
