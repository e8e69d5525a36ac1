"""HyUCC — hybrid unique column combination discovery.

DUCC's authors later applied the HyFD recipe to UCC discovery
(Papenbrock & Naumann, "A Hybrid Approach for Efficient Unique Column
Combination Discovery", BTW 2017).  The same two ingredients carry
over directly:

* **sampling** — a record pair agreeing on attribute set ``A`` proves
  every ``X ⊆ A`` non-unique; the cluster-window sampler from
  :mod:`repro.discovery.hyfd.sampler` supplies exactly these agree
  sets,
* **induction + validation** — a positive cover of minimal-UCC
  candidates (an antichain kept in a :class:`SetTrie`) is specialized
  away from refuted candidates and validated level-wise with stripped
  partitions; each failed validation contributes its violating pair's
  agree set back as evidence.

The result equals DUCC's / the naive enumerator's (property-tested),
usually at far fewer partition intersections on duplicate-heavy data.
"""

from __future__ import annotations

from repro.discovery.hyfd import validation
from repro.discovery.hyfd.sampler import Sampler
from repro.model.attributes import full_mask, iter_bits
from repro.model.instance import RelationInstance
from repro.runtime.errors import BudgetExceeded
from repro.runtime.governor import checkpoint, suspended
from repro.structures.partitions import PLICache
from repro.structures.settrie import SetTrie

__all__ = ["HyUCC"]


class HyUCC:
    """Hybrid minimal-UCC discovery (sampling + validation)."""

    name = "hyucc"

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
        if cache.get(0).is_unique:  # ≤ 1 row
            return [0]

        candidates = SetTrie()
        try:
            sampler = Sampler(instance, cache)
            sampler.initial_rounds()

            candidates.insert(0)
            for agree in sorted(
                sampler.negative_cover, key=lambda mask: -mask.bit_count()
            ):
                self._apply_agree_set(candidates, agree, arity)

            self._validate(candidates, cache, sampler, arity)
        except BudgetExceeded as exc:
            # The candidate antichain at breach time: a superset guess
            # of the minimal UCCs, not yet fully validated.
            with suspended():
                partial = sorted(candidates.iter_all())
            raise exc.attach_partial(partial, exact=False)
        return sorted(candidates.iter_all())

    # ------------------------------------------------------------------
    # Induction: refute candidates contained in an agree set
    # ------------------------------------------------------------------
    @staticmethod
    def _apply_agree_set(candidates: SetTrie, agree: int, arity: int) -> None:
        """Remove candidates ``X ⊆ agree`` and insert their minimal
        specializations ``X ∪ {b}`` with ``b ∉ agree``."""
        refuted = list(candidates.iter_subsets_of(agree))
        for mask in refuted:
            candidates.remove(mask)
        extension_bits = full_mask(arity) & ~agree
        for mask in refuted:
            for bit_index in iter_bits(extension_bits):
                specialized = mask | (1 << bit_index)
                if not candidates.contains_subset_of(specialized):
                    candidates.insert(specialized)

    # ------------------------------------------------------------------
    # Validation: level-wise PLI checks with hybrid switching
    # ------------------------------------------------------------------
    def _validate(
        self,
        candidates: SetTrie,
        cache: PLICache,
        sampler: Sampler,
        arity: int,
    ) -> None:
        level = 0
        while level <= arity:
            current = [
                mask
                for mask in candidates.iter_all()
                if mask.bit_count() == level
            ]
            if not current:
                level += 1
                continue
            invalid = 0
            for mask in current:
                checkpoint("hyucc-validate")
                if mask not in candidates:
                    continue  # refuted by a sibling's specialization
                partition = cache.get(mask)
                if partition.is_unique:
                    continue
                invalid += 1
                pair_cluster = partition.cluster(0)
                agree = self._agree_set(cache, pair_cluster[0], pair_cluster[1])
                self._apply_agree_set(candidates, agree, arity)
                sampler.negative_cover.add(agree)
            if (
                invalid
                and not sampler.exhausted
                and invalid / len(current) > validation.SWITCH_THRESHOLD
            ):
                fresh: list[int] = []
                for _ in range(validation.SAMPLE_ROUNDS_PER_SWITCH):
                    fresh.extend(sampler.next_round())
                    if sampler.exhausted:
                        break
                for agree in sorted(set(fresh), key=lambda m: -m.bit_count()):
                    self._apply_agree_set(candidates, agree, arity)
                continue  # re-collect the same level
            level += 1

    @staticmethod
    def _agree_set(cache: PLICache, left: int, right: int) -> int:
        return cache.agree_set(left, right)
