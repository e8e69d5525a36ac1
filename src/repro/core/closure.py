"""Closure calculation over sets of functional dependencies (paper §4).

Given FDs ``F``, the closure ``F+`` extends each FD's RHS with every
attribute transitively reachable from its LHS, so that for each
``X → Y ∈ F+`` we have ``X ∪ Y = X+``.  Reflexivity stays implicit
(LHS attributes are never copied to the RHS) and augmentation is never
needed, exactly as the paper argues.

Three algorithms, in the paper's order:

* :func:`naive_closure` (Algorithm 1) — repeated full passes over all
  FD pairs until a fixpoint; O(|fds|³),
* :func:`improved_closure` (Algorithm 2) — one LHS-trie per RHS
  attribute, so only FDs that can deliver a *missing* attribute are
  examined, with the change loop moved inside the FD loop; works for
  arbitrary FD sets; O(|fds|²),
* :func:`optimized_closure` (Algorithm 3) — requires the input to be a
  *complete set of minimal FDs*; Lemma 1 then guarantees that a single
  pass checking subsets of the (original) LHS suffices; O(|fds|).

All three run serially.  The paper parallelizes Algorithms 2 and 3
over 32 cores.  Sharding their FD loop over this reproduction's process
pool saved about 0.05 s of a Figure 4 job whose HyFD alone takes 7–8 s,
and won only 24 of 30 alternating pairs, so that path was deleted (see
docs/PARALLEL.md).
"""

from __future__ import annotations

from repro.model.attributes import iter_bits
from repro.model.fd import FDSet
from repro.runtime.governor import checkpoint
from repro.structures.settrie import SetTrie

__all__ = [
    "calculate_closure",
    "improved_closure",
    "naive_closure",
    "optimized_closure",
]


def naive_closure(fds: FDSet) -> FDSet:
    """Algorithm 1: iterate all FD pairs until nothing changes."""
    pairs = [[lhs, rhs] for lhs, rhs in fds.items()]
    something_changed = True
    while something_changed:
        something_changed = False
        for fd in pairs:
            checkpoint("closure-naive", units=len(pairs))
            for other in pairs:
                if other[0] & ~(fd[0] | fd[1]):
                    continue  # other's LHS not contained in this FD
                additional = other[1] & ~(fd[0] | fd[1])
                if additional:
                    fd[1] |= additional
                    something_changed = True
    return _to_fdset(pairs, fds.num_attributes)


def improved_closure(fds: FDSet) -> FDSet:
    """Algorithm 2: per-RHS-attribute LHS tries + inner change loop.

    Correct for *arbitrary* FD sets (useful beyond normalization, e.g.
    query optimization or data cleansing, as the paper notes).
    """
    pairs = [[lhs, rhs] for lhs, rhs in fds.items()]
    _extend_all(pairs, fds.num_attributes, _extend_improved)
    return _to_fdset(pairs, fds.num_attributes)


def optimized_closure(fds: FDSet) -> FDSet:
    """Algorithm 3: single pass; requires a complete set of minimal FDs.

    By Lemma 1, if ``X → A`` is valid then some minimal ``X' ⊂ X`` with
    ``X' → A`` is in the input, so testing subsets of the *LHS alone*,
    once per missing attribute, is enough.
    """
    pairs = [[lhs, rhs] for lhs, rhs in fds.items()]
    _extend_all(pairs, fds.num_attributes, _extend_optimized)
    return _to_fdset(pairs, fds.num_attributes)


def calculate_closure(fds: FDSet, algorithm: str = "optimized") -> FDSet:
    """Front door: compute ``F+`` with a named algorithm.

    ``"optimized"`` (default) assumes complete minimal input — which is
    what every discoverer in :mod:`repro.discovery` produces.
    """
    registry = {
        "naive": naive_closure,
        "improved": improved_closure,
        "optimized": optimized_closure,
    }
    key = algorithm.lower()
    if key not in registry:
        raise ValueError(
            f"unknown closure algorithm {algorithm!r}; choose from {sorted(registry)}"
        )
    return registry[key](fds)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _build_lhs_tries(pairs: list[list[int]], num_attributes: int) -> list[SetTrie]:
    """One trie per RHS attribute holding the LHSs that deliver it."""
    tries = [SetTrie() for _ in range(num_attributes)]
    for lhs, rhs in pairs:
        checkpoint("closure-tries", units=rhs.bit_count())
        for attr in iter_bits(rhs):
            tries[attr].insert(lhs)
    return tries


def _extend_improved(fd: list[int], tries: list[SetTrie], all_attrs: int) -> None:
    """Algorithm 2's per-FD extension: inner change loop over the tries."""
    checkpoint("closure-improved", units=_missing(fd, all_attrs))
    something_changed = True
    while something_changed:
        something_changed = False
        for attr in iter_bits(all_attrs & ~(fd[0] | fd[1])):
            if tries[attr] and tries[attr].contains_subset_of(fd[0] | fd[1]):
                fd[1] |= 1 << attr
                something_changed = True


def _extend_optimized(fd: list[int], tries: list[SetTrie], all_attrs: int) -> None:
    """Algorithm 3's per-FD extension: one LHS-subset pass (Lemma 1)."""
    checkpoint("closure-optimized", units=_missing(fd, all_attrs))
    for attr in iter_bits(all_attrs & ~(fd[0] | fd[1])):
        if tries[attr] and tries[attr].contains_subset_of(fd[0]):
            fd[1] |= 1 << attr


def _missing(fd: list[int], all_attrs: int) -> int:
    """The trie lookups one extension pass makes: the governor ticks
    these, so on wide relations it probes every few FDs."""
    return (all_attrs & ~(fd[0] | fd[1])).bit_count()


def _extend_all(pairs: list[list[int]], num_attributes: int, extend) -> None:
    """Apply a per-FD extension to every FD in order.

    The tries are built from the original pairs before any FD is
    extended, and the extensions only read them.
    """
    tries = _build_lhs_tries(pairs, num_attributes)
    all_attrs = (1 << num_attributes) - 1
    for fd in pairs:
        extend(fd, tries, all_attrs)


def _to_fdset(pairs: list[list[int]], num_attributes: int) -> FDSet:
    out = FDSet(num_attributes)
    for lhs, rhs in pairs:
        out.add_masks(lhs, rhs)
    return out
