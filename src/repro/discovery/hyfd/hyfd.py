"""HyFD orchestrator: sampling → induction → validation.

See the package docstring for the phase overview: a warm-up sampling
pass seeds the negative cover, induction builds the positive cover, and
validation interleaves with further guided sampling until the tree is
exact.  With ``workers > 1`` large validation levels shard over the
process pool (:mod:`repro.parallel`) against a shared-memory export of
the encoded relation; the shard/merge protocol keeps the discovered
cover byte-identical to a serial run (see ``docs/PARALLEL.md``).
"""

from __future__ import annotations

from repro.discovery.base import FDAlgorithm
from repro.discovery.hyfd.induction import build_positive_cover
from repro.discovery.hyfd.sampler import Sampler
from repro.discovery.hyfd.validation import validate_tree
from repro.model.fd import FDSet
from repro.model.instance import RelationInstance
from repro.runtime.errors import BudgetExceeded
from repro.runtime.governor import suspended
from repro.structures.partitions import PLICache

__all__ = ["HyFD"]


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
        switch_threshold: float = 0.2,
        sample_rounds_per_switch: int = 4,
        workers: int | None = None,
    ) -> None:
        super().__init__(null_equals_null, max_lhs_size)
        if not 0.0 <= switch_threshold <= 1.0:
            raise ValueError("switch_threshold must be within [0, 1]")
        self.switch_threshold = switch_threshold
        self.sample_rounds_per_switch = sample_rounds_per_switch
        self.workers = workers
        self.last_cache_stats = None
        self.last_pool_stats = None

    def discover(self, instance: RelationInstance) -> FDSet:
        from repro.parallel import RelationRun, resolve_workers

        arity = instance.arity
        result = FDSet(arity)
        if arity == 0:
            return result
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
                switch_threshold=self.switch_threshold,
                sample_rounds_per_switch=self.sample_rounds_per_switch,
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
        for lhs, rhs_mask in tree.iter_all():
            result.add_masks(lhs, rhs_mask)
        return result
