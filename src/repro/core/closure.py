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

Algorithms 2 and 3 can shard their FD loop over the process pool
(:mod:`repro.parallel`), reproducing the paper's parallelization: the
tries are built from the *original* FD pairs and never mutated, each
worker extends only its own FDs, so any sharding yields the serial
result exactly (the paper's "workers may, but need not, see other
workers' updates" holds trivially — updates are invisible across
processes).  The former ``ThreadPoolExecutor`` path was a GIL-bound
no-op and has been removed; the cost model keeps small FD sets on the
serial path.
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
            checkpoint("closure-naive")
            for other in pairs:
                if other[0] & ~(fd[0] | fd[1]):
                    continue  # other's LHS not contained in this FD
                additional = other[1] & ~(fd[0] | fd[1])
                if additional:
                    fd[1] |= additional
                    something_changed = True
    return _to_fdset(pairs, fds.num_attributes)


def improved_closure(fds: FDSet, n_workers: int = 1) -> FDSet:
    """Algorithm 2: per-RHS-attribute LHS tries + inner change loop.

    Correct for *arbitrary* FD sets (useful beyond normalization, e.g.
    query optimization or data cleansing, as the paper notes).
    """
    pairs = [[lhs, rhs] for lhs, rhs in fds.items()]
    _run("improved", pairs, fds.num_attributes, n_workers)
    return _to_fdset(pairs, fds.num_attributes)


def optimized_closure(fds: FDSet, n_workers: int = 1) -> FDSet:
    """Algorithm 3: single pass; requires a complete set of minimal FDs.

    By Lemma 1, if ``X → A`` is valid then some minimal ``X' ⊂ X`` with
    ``X' → A`` is in the input, so testing subsets of the *LHS alone*,
    once per missing attribute, is enough.
    """
    pairs = [[lhs, rhs] for lhs, rhs in fds.items()]
    _run("optimized", pairs, fds.num_attributes, n_workers)
    return _to_fdset(pairs, fds.num_attributes)


def calculate_closure(
    fds: FDSet, algorithm: str = "optimized", n_workers: int = 1
) -> FDSet:
    """Front door: compute ``F+`` with a named algorithm.

    ``"optimized"`` (default) assumes complete minimal input — which is
    what every discoverer in :mod:`repro.discovery` produces.
    """
    registry = {
        "naive": lambda f: naive_closure(f),
        "improved": lambda f: improved_closure(f, n_workers),
        "optimized": lambda f: optimized_closure(f, n_workers),
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
        for attr in iter_bits(rhs):
            tries[attr].insert(lhs)
    return tries


def _extend_improved(fd: list[int], tries: list[SetTrie], all_attrs: int) -> None:
    """Algorithm 2's per-FD extension: inner change loop over the tries."""
    checkpoint("closure-improved")
    something_changed = True
    while something_changed:
        something_changed = False
        for attr in iter_bits(all_attrs & ~(fd[0] | fd[1])):
            if tries[attr] and tries[attr].contains_subset_of(fd[0] | fd[1]):
                fd[1] |= 1 << attr
                something_changed = True


def _extend_optimized(fd: list[int], tries: list[SetTrie], all_attrs: int) -> None:
    """Algorithm 3's per-FD extension: one LHS-subset pass (Lemma 1)."""
    checkpoint("closure-optimized")
    for attr in iter_bits(all_attrs & ~(fd[0] | fd[1])):
        if tries[attr] and tries[attr].contains_subset_of(fd[0]):
            fd[1] |= 1 << attr


_EXTENDERS = {"improved": _extend_improved, "optimized": _extend_optimized}


def _run(
    algorithm: str, pairs: list[list[int]], num_attributes: int, n_workers: int
) -> None:
    """Apply the per-FD extension to every FD, sharded over the pool.

    Each worker extends only its own contiguous shard against tries
    built from the original pairs, so the merged result (written back
    in shard order) is exactly the serial one.  The cost model keeps
    small inputs serial; a parallel dispatch that breaches the active
    budget propagates :class:`BudgetExceeded` like a serial checkpoint
    would.
    """
    if n_workers > 1 and len(pairs) > 1:
        if _run_parallel(algorithm, pairs, num_attributes, n_workers):
            return
    extend = _EXTENDERS[algorithm]
    tries = _build_lhs_tries(pairs, num_attributes)
    all_attrs = (1 << num_attributes) - 1
    for fd in pairs:
        extend(fd, tries, all_attrs)


def _run_parallel(
    algorithm: str, pairs: list[list[int]], num_attributes: int, n_workers: int
) -> bool:
    """Dispatch the extension to the process pool; False → go serial."""
    from repro.parallel import RelationRun

    with RelationRun(n_workers) as run:
        if not run.should(len(pairs) * max(num_attributes, 1)):
            return False
        data = [(fd[0], fd[1]) for fd in pairs]
        payloads = [
            {
                "algorithm": algorithm,
                "pairs": data,
                "start": start,
                "stop": stop,
                "num_attributes": num_attributes,
            }
            for start, stop in run.ranges(len(pairs))
        ]
        results = run.map(
            "closure_shard",
            payloads,
            stage=f"closure-{algorithm}",
            items=len(pairs),
        )
    for payload, rhs_values in zip(payloads, results):
        for index, rhs in enumerate(rhs_values, start=payload["start"]):
            pairs[index][1] = rhs
    return True


def _to_fdset(pairs: list[list[int]], num_attributes: int) -> FDSet:
    out = FDSet(num_attributes)
    for lhs, rhs in pairs:
        out.add_masks(lhs, rhs)
    return out
