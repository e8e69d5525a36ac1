"""HyFD validation phase: check positive-cover candidates against the data.

Candidates are validated level by level (by LHS size).  A candidate
``X → a`` is checked with stripped partitions: every cluster of π(X)
must agree on ``a``'s value ids.  All RHS candidates of one LHS node
are validated in a **single pass** over π(X)
(:meth:`~repro.structures.partitions.StrippedPartition.find_violations`),
as in the original HyFD: the partition data is swept once per (LHS,
level) regardless of the RHS fan-out, and every refuted attribute
yields one concrete violating record pair.  An invalid candidate is
removed and specialized — using the violating pair's *full* agree set
(computed on the shared column encoding), which simultaneously
enriches the negative cover.

The "hybrid" switch: if a level refutes more than :data:`SWITCH_THRESHOLD`
of its candidates, validation is interrupted and the sampler runs more
rounds (guided evidence is cheaper than failing validations); the new
evidence is inducted into the tree and the same level is re-collected.
With the sampler exhausted the loop always falls back to pure
validation, so termination and exactness never depend on sampling.
"""

from __future__ import annotations

from repro.discovery.hyfd.induction import apply_agree_sets, specialize
from repro.discovery.hyfd.sampler import Sampler
from repro.model.attributes import iter_bits
from repro.runtime.governor import checkpoint
from repro.structures.fdtree import FDTree
from repro.structures.partitions import PLICache

__all__ = [
    "SAMPLE_ROUNDS_PER_SWITCH",
    "SWITCH_THRESHOLD",
    "validate_shard",
    "validate_tree",
]

#: A level that refutes more than this share of its candidates hands
#: back to the sampler (HyFD's "hybrid" switch).
SWITCH_THRESHOLD = 0.2
#: Sampler rounds run at each switch before the level is re-collected.
SAMPLE_ROUNDS_PER_SWITCH = 4


def validate_tree(
    tree: FDTree,
    cache: PLICache,
    sampler: Sampler | None = None,
    max_lhs_size: int | None = None,
    parallel=None,
) -> None:
    """Mutate ``tree`` until it holds exactly the valid minimal FDs.

    ``parallel`` (a :class:`repro.parallel.RelationRun`) shards large
    levels over the process pool; refutations are applied in serial
    candidate order, so the tree evolves byte-identically either way
    (specialization only creates *deeper* nodes, so candidates within a
    level are independent).
    """
    level = 0
    while level <= tree.depth():
        candidates = list(tree.iter_level(level))
        total = sum(rhs.bit_count() for _, rhs in candidates)
        if total == 0:
            level += 1
            continue
        invalid = _validate_level(tree, cache, candidates, max_lhs_size, parallel)
        if (
            sampler is not None
            and not sampler.exhausted
            and invalid / total > SWITCH_THRESHOLD
        ):
            # Hybrid switch: gather cheap evidence, induct it, redo level.
            fresh: list[int] = []
            for _ in range(SAMPLE_ROUNDS_PER_SWITCH):
                fresh.extend(sampler.next_round())
                if sampler.exhausted:
                    break
            apply_agree_sets(tree, fresh, max_lhs_size)
            continue  # re-collect the same level
        level += 1


def _validate_level(
    tree: FDTree,
    cache: PLICache,
    candidates: list[tuple[int, int]],
    max_lhs_size: int | None,
    parallel=None,
) -> int:
    """Validate one level's candidates; return the number refuted.

    All RHS attributes of one LHS node are checked with a single
    partition sweep (multi-RHS validation); refuted attributes are
    specialized in ascending attribute order, matching the historical
    per-attribute iteration.
    """
    if parallel is not None:
        work = [(lhs, list(iter_bits(rhs_mask))) for lhs, rhs_mask in candidates]
        units = sum(len(rhs) for _, rhs in work) * cache.encoding.num_rows
        if parallel.should(units):
            return _validate_level_parallel(tree, work, max_lhs_size, parallel)
    invalid = 0
    for lhs, rhs_mask in candidates:
        checkpoint("hyfd-validate")
        rhs_attrs = [
            attr
            for attr in iter_bits(rhs_mask)
            if tree.contains_fd(lhs, attr)  # not specialized away meanwhile
        ]
        if rhs_attrs:
            refuted = _refutations(cache, lhs, rhs_attrs)
            invalid += _replay(tree, lhs, refuted, max_lhs_size)
    return invalid


def _validate_level_parallel(
    tree: FDTree,
    work: list[tuple[int, list[int]]],
    max_lhs_size: int | None,
    parallel,
) -> int:
    """Dispatch one level's validations to the pool, merge in order.

    Within a level, no candidate's outcome can affect another's data
    sweep — ``specialize`` only adds deeper nodes and ``remove`` only
    touches the processed ``(lhs, attr)`` — so the full level can be
    snapshot up front; the parent then replays each candidate's
    refutations in serial candidate order.
    """
    handle = parallel.handle
    payloads = [
        {"handle": handle, "items": work[start:stop]}
        for start, stop in parallel.ranges(len(work))
    ]
    shards = parallel.map(
        "hyfd_validate", payloads, stage="hyfd-validate", items=len(work)
    )
    invalid = 0
    refuted_per_candidate = (refuted for shard in shards for refuted in shard)
    for (lhs, _), refuted in zip(work, refuted_per_candidate):
        invalid += _replay(tree, lhs, refuted, max_lhs_size)
    return invalid


def validate_shard(payload: dict) -> list[list[tuple[int, int]]]:
    """Pool task ``hyfd_validate``: the refutations of each candidate
    ``(lhs, rhs attributes)`` in ``payload["items"]``, checked against
    the shared-memory relation ``payload["handle"]`` names."""
    from repro.parallel.tasks import attached_cache

    cache = attached_cache(payload["handle"])
    out = []
    for lhs, rhs_attrs in payload["items"]:
        checkpoint("hyfd-validate")
        out.append(_refutations(cache, lhs, rhs_attrs))
    return out


def _refutations(
    cache: PLICache, lhs: int, rhs_attrs: list[int]
) -> list[tuple[int, int]]:
    """Check ``lhs → a`` for every ``a`` in ``rhs_attrs`` with one sweep.

    Returns the refuted attributes in ascending order, each with the
    full agree set of its violating record pair.  Once the LHS's
    partition is built, the cache forgets every partition below
    ``|lhs| - 1`` attributes: levels only climb, so no later build
    starts from one.  Pool workers run this function too, so their
    caches keep the same frontier.
    """
    probes = [cache.probe(attr) for attr in rhs_attrs]
    partition = cache.get(lhs)
    cache.forget_below(lhs.bit_count() - 1)
    violations = partition.find_violations(rhs_attrs, probes)
    return [
        (attr, cache.agree_set(*violations[attr]))
        for attr in rhs_attrs
        if attr in violations
    ]


def _replay(
    tree: FDTree,
    lhs: int,
    refuted: list[tuple[int, int]],
    max_lhs_size: int | None,
) -> int:
    """Remove each refuted ``lhs → a`` from ``tree`` and add its minimal
    specializations the agree set allows; return how many were refuted."""
    for attr, agree in refuted:
        tree.remove(lhs, 1 << attr)
        specialize(tree, lhs, attr, agree, max_lhs_size)
    return len(refuted)
