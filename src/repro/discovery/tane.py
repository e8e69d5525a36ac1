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

With ``workers > 1`` the per-level partition products (the dominant
cost) shard over the process pool: each worker receives its chunk's
prefix partitions as CSR bytes plus the shared-memory column codes, and
``intersect_ids`` is deterministic in those inputs, so the merged level
is byte-identical to the serial one.  The key-pruning minimality test
stays serial — it is incremental in the shared ``errors`` memo and
rarely hot.
"""

from __future__ import annotations

import itertools
from array import array

from repro.discovery.base import FDAlgorithm
from repro.model.attributes import full_mask, iter_bits
from repro.model.fd import FDSet
from repro.model.instance import RelationInstance
from repro.runtime.errors import BudgetExceeded
from repro.runtime.governor import add_candidates, checkpoint
from repro.structures.partitions import StrippedPartition

__all__ = ["Tane", "product_shard"]


class Tane(FDAlgorithm):
    """Complete minimal-FD discovery via the TANE levelwise algorithm."""

    name = "tane"

    def __init__(
        self,
        null_equals_null: bool = True,
        max_lhs_size: int | None = None,
        workers: int | None = None,
    ) -> None:
        super().__init__(null_equals_null, max_lhs_size)
        self.workers = workers
        self.last_pool_stats = None

    def discover(self, instance: RelationInstance) -> FDSet:
        result = FDSet(instance.arity)
        try:
            self._discover(instance, result)
        except BudgetExceeded as exc:
            # Completed levels hold exact, minimal FDs — salvage them.
            raise exc.attach_partial(result, exact=True)
        return result

    def _discover(self, instance: RelationInstance, result: FDSet) -> None:
        from repro.parallel import RelationRun, resolve_workers
        from repro.runtime.governor import suspended

        arity = instance.arity
        if arity == 0:
            return
        self.last_pool_stats = None
        workers = resolve_workers(self.workers)
        parallel = None
        if workers > 1:
            parallel = RelationRun(
                workers, instance.encoded(self.null_equals_null)
            )
        try:
            self._discover_levels(instance, result, parallel)
        finally:
            if parallel is not None:
                with suspended():
                    parallel.close()
                self.last_pool_stats = parallel.stats

    def _discover_levels(
        self, instance: RelationInstance, result: FDSet, parallel
    ) -> None:
        arity = instance.arity
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
                survivors, partitions, errors, arity, encoding.codes, parallel
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
        parallel=None,
    ) -> tuple[list[int], dict[int, StrippedPartition]]:
        survivor_set = set(survivors)
        # Group by prefix (all attributes except the largest one).
        prefix_blocks: dict[int, list[int]] = {}
        for mask in survivors:
            top = 1 << (mask.bit_length() - 1)
            prefix_blocks.setdefault(mask & ~top, []).append(mask)

        # Enumerate the level's candidates in serial order first so the
        # parallel path shards (and merges) exactly this sequence.
        cands: list[tuple[int, int, int]] = []
        for block in prefix_blocks.values():
            block.sort()
            for first, second in itertools.combinations(block, 2):
                # first and second share the prefix, so the join only adds
                # second's top attribute: π(first) · π({top}) = π(candidate),
                # computed against the value-id vector (no probe fill/reset).
                candidate = first | second
                if all(
                    candidate & ~(1 << attr) in survivor_set
                    for attr in iter_bits(candidate)
                ):
                    cands.append((first, second, candidate))

        num_rows = len(codes[0]) if codes else 0
        if (
            parallel is not None
            and cands
            and parallel.should(len(cands) * num_rows)
        ):
            products = Tane._pooled_products(cands, partitions, parallel)
        else:
            products = (
                _product(partitions[first], codes[second.bit_length() - 1])
                for first, second, _ in cands
            )
        next_level: list[int] = []
        next_partitions: dict[int, StrippedPartition] = {}
        for (_, _, candidate), partition in zip(cands, products):
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

    @staticmethod
    def _pooled_products(
        cands: list[tuple[int, int, int]],
        partitions: dict[int, StrippedPartition],
        parallel,
    ) -> list[StrippedPartition]:
        """Shard the level's partition products over the pool.

        Each chunk ships the prefix partitions it needs as CSR bytes;
        the single-attribute side comes from the shared-memory codes.
        Workers account the candidates (folded back at the merge), so
        the parent must not double-count them here.
        """
        handle = parallel.handle
        payloads = []
        for start, stop in parallel.ranges(len(cands)):
            firsts = {}
            items = []
            for first, second, _ in cands[start:stop]:
                if first not in firsts:
                    firsts[first] = _to_bytes(partitions[first])
                items.append((first, second.bit_length() - 1))
            payloads.append({"handle": handle, "firsts": firsts, "items": items})
        shards = parallel.map(
            "tane_generate", payloads, stage="tane-generate", items=len(cands)
        )
        return [
            _from_bytes(csr, handle.num_rows) for shard in shards for csr in shard
        ]


def _product(prefix: StrippedPartition, codes) -> StrippedPartition:
    """π(candidate) = π(prefix) · π({top}), with ``codes`` the top
    attribute's value ids (no probe fill/reset)."""
    add_candidates(1, "tane-generate")
    return prefix.intersect_ids(codes)


def product_shard(payload: dict) -> list[tuple[bytes, bytes]]:
    """Pool task ``tane_generate``: the CSR bytes of each product
    ``(prefix mask, top attribute)`` in ``payload["items"]``.

    ``payload["firsts"]`` carries the parent's prefix partitions as CSR
    bytes; the top attributes' codes come from the shared-memory
    relation ``payload["handle"]`` names.  ``intersect_ids`` is
    deterministic in (partition, codes), so the bytes equal the serial
    product's.
    """
    from repro.parallel.tasks import attached

    encoding = attached(payload["handle"])
    firsts = {
        mask: _from_bytes(csr, encoding.num_rows)
        for mask, csr in payload["firsts"].items()
    }
    return [
        _to_bytes(_product(firsts[first], encoding.codes[attr]))
        for first, attr in payload["items"]
    ]


def _to_bytes(partition: StrippedPartition) -> tuple[bytes, bytes]:
    return partition.row_data.tobytes(), partition.offsets.tobytes()


def _from_bytes(csr: tuple[bytes, bytes], num_rows: int) -> StrippedPartition:
    rows, offsets = array("i"), array("i")
    rows.frombytes(csr[0])
    offsets.frombytes(csr[1])
    return StrippedPartition._from_csr(rows, offsets, num_rows)
