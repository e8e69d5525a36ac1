"""TANE — levelwise FD discovery with partition refinement.

An implementation of Huhtala et al. (1999), the algorithm the paper
cites for step (1) of the pipeline.  The lattice of attribute sets is
traversed level by level; every node carries a stripped partition and a
candidate-RHS set ``C+``:

* ``X\\{A} → A`` is valid iff ``e(X\\{A}) == e(X)`` (partition errors),
* ``C+`` pruning removes RHS candidates that can no longer yield
  minimal FDs,
* key pruning deletes (super)key nodes.  The TANE paper recovers the
  FDs ``X → A`` of a pruned key ``X`` through a condition over the
  ``C+`` sets of sibling nodes; those siblings may themselves never
  have been generated, so we instead apply the *direct* minimality
  test the sibling condition approximates: ``X → A`` (trivially valid
  for a key) is emitted iff ``X\\{B} → A`` is invalid for every
  ``B ∈ X`` — exact by monotonicity of FD validity in the LHS.

Partitions are kept for single attributes plus the previous and current
level (the direct key test needs the previous level), so memory stays
proportional to the widest lattice levels actually visited.

TANE is an exact reference for HyFD, not the pipeline's discoverer
(HyFD was faster on every end-to-end input), so it always runs serially.
"""

from __future__ import annotations

import itertools

from repro.discovery.base import FDAlgorithm
from repro.model.attributes import full_mask, iter_bits
from repro.model.fd import FDSet
from repro.model.instance import RelationInstance
from repro.runtime.errors import BudgetExceeded
from repro.runtime.governor import add_candidates, checkpoint
from repro.structures.partitions import StrippedPartition

__all__ = ["Tane"]


class Tane(FDAlgorithm):
    """Complete minimal-FD discovery via the TANE levelwise algorithm."""

    name = "tane"

    def discover(self, instance: RelationInstance) -> FDSet:
        result = FDSet(instance.arity)
        try:
            self._discover(instance, result)
        except BudgetExceeded as exc:
            # Completed levels hold exact, minimal FDs — salvage them.
            raise exc.attach_partial(result, exact=True)
        return result

    def _discover(self, instance: RelationInstance, result: FDSet) -> None:
        arity = instance.arity
        if arity == 0:
            return
        everything = full_mask(arity)

        # Level 0 seed: the empty set's partition and error.
        empty_partition = StrippedPartition.single_cluster(instance.num_rows)
        partitions: dict[int, StrippedPartition] = {0: empty_partition}
        errors: dict[int, int] = {0: empty_partition.error}
        cplus: dict[int, int] = {0: everything}

        encoding = instance.encoded(self.null_equals_null)
        level: list[int] = []
        for attr in range(arity):
            mask = 1 << attr
            partitions[mask] = StrippedPartition.from_value_ids(
                encoding.codes[attr], encoding.null_codes[attr]
            )
            errors[mask] = partitions[mask].error
            level.append(mask)

        depth = 1
        while level:
            if self.max_lhs_size is not None and depth - 1 > self.max_lhs_size:
                break
            checkpoint("tane-level", units=len(level))
            self._compute_dependencies(level, cplus, errors, everything, result)
            survivors = self._prune(
                level, cplus, partitions, errors, everything, result,
                encoding.codes,
            )
            level, partitions = self._generate_next_level(
                survivors, partitions, errors, arity, encoding.codes
            )
            depth += 1

    # ------------------------------------------------------------------
    # COMPUTE_DEPENDENCIES (TANE §4.2)
    # ------------------------------------------------------------------
    def _compute_dependencies(
        self,
        level: list[int],
        cplus: dict[int, int],
        errors: dict[int, int],
        everything: int,
        result: FDSet,
    ) -> None:
        for x_mask in level:
            candidates = everything
            for attr in iter_bits(x_mask):
                candidates &= cplus.get(x_mask & ~(1 << attr), 0)
            for attr in iter_bits(x_mask & candidates):
                attr_bit = 1 << attr
                lhs = x_mask & ~attr_bit
                if errors[lhs] == errors[x_mask]:
                    result.add_masks(lhs, attr_bit)
                    candidates &= ~attr_bit
                    candidates &= ~(everything & ~x_mask)
            cplus[x_mask] = candidates

    # ------------------------------------------------------------------
    # PRUNE (TANE §4.3): empty-C+ pruning and key pruning
    # ------------------------------------------------------------------
    def _prune(
        self,
        level: list[int],
        cplus: dict[int, int],
        partitions: dict[int, StrippedPartition],
        errors: dict[int, int],
        everything: int,
        result: FDSet,
        codes: list,
    ) -> list[int]:
        survivors = []
        for x_mask in level:
            candidates = cplus[x_mask]
            if candidates == 0:
                continue
            if partitions[x_mask].is_unique:
                if self._within_lhs_bound(x_mask):
                    for attr in iter_bits(candidates & ~x_mask):
                        if self._key_fd_is_minimal(
                            x_mask, attr, partitions, errors, codes
                        ):
                            result.add_masks(x_mask, 1 << attr)
                continue
            survivors.append(x_mask)
        return survivors

    @staticmethod
    def _key_fd_is_minimal(
        x_mask: int,
        attr: int,
        partitions: dict[int, StrippedPartition],
        errors: dict[int, int],
        codes: list,
    ) -> bool:
        """Direct minimality test for a key's FD ``X → attr``.

        ``X → attr`` holds trivially (X is a key); it is minimal iff no
        immediate generalization ``X\\{B} → attr`` holds.  The previous
        level's partitions are retained exactly for this test.
        """
        attr_bit = 1 << attr
        for b in iter_bits(x_mask):
            sub = x_mask & ~(1 << b)
            joined = sub | attr_bit
            joined_error = errors.get(joined)
            if joined_error is None:
                add_candidates(1, "tane-key")
                joined_error = partitions[sub].intersect_ids(
                    codes[attr]
                ).error
                errors[joined] = joined_error
            if errors[sub] == joined_error:
                return False
        return True

    # ------------------------------------------------------------------
    # GENERATE_NEXT_LEVEL (prefix join with all-subsets check)
    # ------------------------------------------------------------------
    @staticmethod
    def _generate_next_level(
        survivors: list[int],
        partitions: dict[int, StrippedPartition],
        errors: dict[int, int],
        arity: int,
        codes: list,
    ) -> tuple[list[int], dict[int, StrippedPartition]]:
        survivor_set = set(survivors)
        # Group by prefix (all attributes except the largest one).
        prefix_blocks: dict[int, list[int]] = {}
        for mask in survivors:
            top = 1 << (mask.bit_length() - 1)
            prefix_blocks.setdefault(mask & ~top, []).append(mask)

        next_level: list[int] = []
        next_partitions: dict[int, StrippedPartition] = {}
        for block in prefix_blocks.values():
            block.sort()
            for first, second in itertools.combinations(block, 2):
                candidate = first | second
                if not all(
                    candidate & ~(1 << attr) in survivor_set
                    for attr in iter_bits(candidate)
                ):
                    continue
                # first and second share the prefix, so the join only adds
                # second's top attribute: π(first) · π({top}) = π(candidate),
                # computed against the value-id vector (no probe fill/reset).
                add_candidates(1, "tane-generate")
                partition = partitions[first].intersect_ids(
                    codes[second.bit_length() - 1]
                )
                next_partitions[candidate] = partition
                errors[candidate] = partition.error
                next_level.append(candidate)
        # Retain singles and the just-finished level: the key-pruning
        # minimality test of the next level reaches one level down.
        for attr in range(arity):
            next_partitions.setdefault(1 << attr, partitions[1 << attr])
        for mask in survivors:
            next_partitions.setdefault(mask, partitions[mask])
        return next_level, next_partitions
