"""HyFD orchestrator: sampling → induction → validation.

See the package docstring for the phase overview: a warm-up sampling
pass seeds the negative cover, induction builds the positive cover, and
validation interleaves with further guided sampling until the tree is
exact.  With ``workers > 1`` large validation levels shard over the
process pool (:mod:`repro.parallel`) against a shared-memory export of
the encoded relation; the shard/merge protocol keeps the discovered
cover byte-identical to a serial run (see ``docs/PARALLEL.md``).

A relation with fewer than :data:`ALL_PAIRS_BUDGET` rows per column
skips all of that: HyFD compares every row pair, and induction from
that complete negative cover is already the exact minimal cover
(FDep's argument), so there is nothing left to sample or validate.
"""

from __future__ import annotations

from repro.discovery.base import FDAlgorithm
from repro.discovery.hyfd.induction import apply_agree_sets, build_positive_cover
from repro.discovery.hyfd.sampler import Sampler
from repro.discovery.hyfd.validation import validate_tree
from repro.model.fd import FDSet
from repro.model.instance import RelationInstance
from repro.runtime.errors import BudgetExceeded
from repro.runtime.governor import checkpoint, suspended
from repro.structures.fdtree import FDTree
from repro.structures.partitions import CacheStats, PLICache

__all__ = ["ALL_PAIRS_BUDGET", "HyFD"]

#: A relation with fewer rows than this many per column is discovered by
#: comparing every row pair; 0 sends every relation through sampling and
#: validation.  Comparing pairs costs rows² × columns, while validation
#: pays for candidates that multiply with the columns, so the budget
#: grows with the width.  Set from the sweep of
#: ``benchmarks/bench_discovery_comparison.py`` (docs/ALGORITHMS.md,
#: "HyFD on small relations").
ALL_PAIRS_BUDGET = 8


class HyFD(FDAlgorithm):
    """Hybrid FD discovery — the paper's step-(1) algorithm.

    ``max_lhs_size`` enables the §4.3 pruning: all FDs with a LHS of at
    most that size are still discovered exactly, larger ones are
    discarded during induction (the paper notes Normalize gets this
    "for free" from HyFD).
    """

    name = "hyfd"

    def __init__(
        self,
        null_equals_null: bool = True,
        max_lhs_size: int | None = None,
        workers: int | None = None,
    ) -> None:
        super().__init__(null_equals_null, max_lhs_size)
        self.workers = workers
        self.last_cache_stats = None
        self.last_pool_stats = None

    def discover(self, instance: RelationInstance) -> FDSet:
        arity = instance.arity
        result = FDSet(arity)
        if arity == 0:
            return result
        if instance.num_rows < ALL_PAIRS_BUDGET * arity:
            tree = self._compare_all_pairs(instance)
        else:
            tree = self._sample_and_validate(instance)
        for lhs, rhs_mask in tree.iter_all():
            result.add_masks(lhs, rhs_mask)
        return result

    def _compare_all_pairs(self, instance: RelationInstance) -> FDTree:
        """Induct the cover from the agree set of every row pair.

        Every pair's agree set makes the negative cover complete, so
        the induced tree holds exactly the minimal FDs and validation
        has nothing to refute.  No PLI is built (the cache counters all
        read 0) and no pool is used.
        """
        self.last_cache_stats = CacheStats()
        self.last_pool_stats = None
        arity = instance.arity
        encoding = instance.encoded(self.null_equals_null)
        rows = encoding.num_rows
        agree_sets: set[int] = set()
        tree = None
        try:
            for left in range(rows - 1):
                checkpoint("hyfd-pairs", units=rows - left - 1)
                agree_sets.update(
                    encoding.agree_sets_vs(left, range(left + 1, rows))
                )
            tree = build_positive_cover(arity, (), self.max_lhs_size)
            apply_agree_sets(tree, agree_sets, self.max_lhs_size)
        except BudgetExceeded as exc:
            # Pairs the pass never compared may refute FDs of the cover
            # induced so far, so the partial is not exact.
            with suspended():
                if tree is None:
                    tree = build_positive_cover(
                        arity, agree_sets, self.max_lhs_size
                    )
                partial = FDSet(arity)
                for lhs, rhs_mask in tree.iter_all():
                    partial.add_masks(lhs, rhs_mask)
            raise exc.attach_partial(partial, exact=False)
        return tree

    def _sample_and_validate(self, instance: RelationInstance) -> FDTree:
        from repro.parallel import RelationRun, resolve_workers

        arity = instance.arity
        cache = PLICache(instance, self.null_equals_null)
        self.last_cache_stats = cache.stats
        self.last_pool_stats = None
        workers = resolve_workers(self.workers)
        parallel = (
            RelationRun(workers, cache.encoding) if workers > 1 else None
        )
        tree = None
        try:
            sampler = Sampler(instance, cache)
            sampler.initial_rounds()
            tree = build_positive_cover(
                arity, sampler.negative_cover, self.max_lhs_size
            )
            validate_tree(
                tree,
                cache,
                sampler=sampler,
                max_lhs_size=self.max_lhs_size,
                parallel=parallel,
            )
        except BudgetExceeded as exc:
            # Salvage the positive cover as it stands.  Candidates on
            # levels validation never reached may be refuted by data it
            # never saw, so the partial is explicitly *not* exact.
            with suspended():
                partial = FDSet(arity)
                if tree is not None:
                    for lhs, rhs_mask in tree.iter_all():
                        partial.add_masks(lhs, rhs_mask)
            raise exc.attach_partial(partial, exact=False)
        finally:
            if parallel is not None:
                with suspended():
                    parallel.close()
                self.last_pool_stats = parallel.stats
        return tree
