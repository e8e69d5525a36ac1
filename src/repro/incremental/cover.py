"""Incremental minimal-cover maintenance for FDs and keys (EAIFD-style).

The maintained state per relation is exactly HyFD's / HyUCC's:

* an :class:`~repro.structures.fdtree.FDTree` positive cover of the
  minimal FDs, and
* a :class:`~repro.structures.settrie.SetTrie` antichain of the
  minimal unique column combinations (keys),

plus, once deletes appear, a **negative-cover multiset**: a counter
mapping each record-pair agree set to the number of live pairs
producing it.

Inserts (the EAIFD insight).  A record pair can only *refute* FDs;
FDs valid on the old data stay valid unless a pair involving a new
tuple breaks them.  Computing the agree sets of every pair ``(new,
any)`` and pushing them through HyFD's induction
(:func:`~repro.discovery.hyfd.induction.apply_agree_set` semantics)
therefore turns the exact old cover into the exact new cover — the old
pairs already shaped the old cover, and any specialization of an FD
that held on the old data still holds on the old rows.  The engine
still *validates* every specialization the batch introduced ("dirty"
candidates) against the data via the single-pass
:meth:`~repro.structures.partitions.StrippedPartition.find_violations`
path — a cheap, targeted check (only candidates the batch touched)
that turns a would-be silent divergence into a self-healing
specialization round.  Keys are maintained identically with HyUCC's
induction step.

Deletes.  Removing rows can only *generalize* covers, and the new
minimal FDs are not reachable from the old ones by local search (a
refuted ``{B,C} → A`` says nothing about ``{D} → A`` becoming valid).
What *is* exactly maintainable is the negative cover: deleting a row
removes precisely the pairs involving it.  The cover is lazily
switched to negative-cover mode on the first delete (one O(n²/2)
agree-set pass — comparable to a single from-scratch validation
sweep), decremented in O(Δ·n) per delete batch afterwards, and the
positive covers are rebuilt by pure induction from the surviving
distinct agree sets — exact by construction, no validation needed.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.discovery.hyfd.induction import build_positive_cover
from repro.model.attributes import full_mask, iter_bits
from repro.model.fd import FDSet
from repro.runtime.governor import checkpoint
from repro.structures.encoding import EncodedRelation
from repro.structures.fdtree import FDTree
from repro.structures.partitions import PLICache
from repro.structures.settrie import SetTrie

__all__ = ["CoverDelta", "IncrementalCover"]


class CoverDelta:
    """What one batch did to a relation's covers (for reporting)."""

    __slots__ = (
        "fds_removed",
        "fds_added",
        "uccs_removed",
        "uccs_added",
        "pairs_examined",
        "validations",
        "repairs",
    )

    def __init__(self) -> None:
        self.fds_removed: list[tuple[int, int]] = []
        self.fds_added: list[tuple[int, int]] = []
        self.uccs_removed: list[int] = []
        self.uccs_added: list[int] = []
        self.pairs_examined = 0
        self.validations = 0
        self.repairs = 0

    @property
    def changed(self) -> bool:
        return bool(
            self.fds_removed
            or self.fds_added
            or self.uccs_removed
            or self.uccs_added
        )


class IncrementalCover:
    """Maintains the minimal FD cover and minimal-UCC antichain of one
    relation under inserts and deletes."""

    def __init__(
        self,
        arity: int,
        fds: FDSet,
        uccs: Iterable[int],
        null_equals_null: bool = True,
    ) -> None:
        self.arity = arity
        self.null_equals_null = null_equals_null
        self._tree = FDTree(arity)
        for lhs, rhs in fds.items():
            self._tree.add(lhs, rhs)
        self._uccs = SetTrie()
        for mask in uccs:
            self._uccs.insert(mask)
        #: agree-set mask → number of live record pairs with that agree
        #: set; ``None`` until the first delete forces the switch.
        self.pair_counts: Counter[int] | None = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def fds(self) -> FDSet:
        """The maintained minimal FD cover, in the canonical order.

        Built from ``FDTree.iter_all()`` — the same sorted-path order
        HyFD emits — so every downstream consumer (ranking tie-breaks
        included) sees exactly what a from-scratch run would see.
        """
        result = FDSet(self.arity)
        for lhs, rhs_mask in self._tree.iter_all():
            result.add_masks(lhs, rhs_mask)
        return result

    def uccs(self) -> list[int]:
        """The maintained minimal UCCs, sorted (HyUCC's output order)."""
        return sorted(self._uccs.iter_all())

    # ------------------------------------------------------------------
    # Inserts
    # ------------------------------------------------------------------
    def apply_insert(
        self,
        encoding: EncodedRelation,
        first_new_position: int,
        cache: PLICache,
    ) -> CoverDelta:
        """Refine the covers for rows appended at ``first_new_position``.

        Computes the agree set of every pair involving a new row (each
        pair once: new×old plus new×new), applies them through the
        induction step with dirty-candidate recording, then validates
        the dirty candidates level-wise against the data.
        """
        delta = CoverDelta()
        before_fds = dict(self._tree.iter_all())
        before_uccs = set(self._uccs.iter_all())

        num_rows = encoding.num_rows
        agree_sets: set[int] = set()
        new_pairs = 0
        for left in range(first_new_position, num_rows):
            checkpoint("incremental-pairs")
            agree_sets.update(encoding.agree_sets_vs(left, range(left)))
            new_pairs += left
        delta.pairs_examined = new_pairs
        if self.pair_counts is not None:
            for left in range(first_new_position, num_rows):
                self.pair_counts.update(encoding.agree_sets_vs(left, range(left)))

        dirty_fds: set[tuple[int, int]] = set()
        dirty_uccs: set[int] = set()
        ordered = sorted(agree_sets, key=lambda mask: -mask.bit_count())
        # One batched screen of the whole agree-set batch against the
        # current FD cover: sets that violate nothing can be skipped for
        # the FD side, and stay clean as the tree evolves (every later
        # specialization's LHS extends outside its own agree set — see
        # induction.apply_agree_sets).  The UCC side is maintained
        # unconditionally: its antichain is a different structure.
        flags = self._tree.any_violated_batch(ordered)
        for agree, violates in zip(ordered, flags):
            checkpoint("incremental-induct")
            if violates:
                self._apply_fd_agree(agree, dirty_fds)
            self._apply_ucc_agree(agree, dirty_uccs)

        self._validate_dirty_fds(cache, dirty_fds, delta)
        self._validate_dirty_uccs(cache, dirty_uccs, delta)

        self._record_delta(before_fds, before_uccs, delta)
        return delta

    # ------------------------------------------------------------------
    # Deletes
    # ------------------------------------------------------------------
    def apply_delete(
        self,
        encoding_before: EncodedRelation,
        deleted_positions: list[int],
    ) -> CoverDelta:
        """Generalize the covers after a delete.

        ``encoding_before`` is the encoding *before* compaction (the
        deleted rows still present), ``deleted_positions`` their
        positions in it.  On the first delete the pair multiset is
        built from the *surviving* rows; afterwards it is decremented
        by the pairs the deleted rows participated in.  Either way the
        positive covers are rebuilt from the surviving distinct agree
        sets — pure induction, exact by the completeness of the
        negative cover.
        """
        delta = CoverDelta()
        if not deleted_positions:
            return delta
        before_fds = dict(self._tree.iter_all())
        before_uccs = set(self._uccs.iter_all())

        doomed = set(deleted_positions)
        if self.pair_counts is None:
            survivors = [
                pos for pos in range(encoding_before.num_rows)
                if pos not in doomed
            ]
            counts: Counter[int] = Counter()
            for index, left in enumerate(survivors):
                checkpoint("incremental-pairs")
                counts.update(
                    encoding_before.agree_sets_vs(left, survivors[:index])
                )
            self.pair_counts = counts
            delta.pairs_examined = len(survivors) * (len(survivors) - 1) // 2
        else:
            counts = self.pair_counts
            for left in deleted_positions:
                checkpoint("incremental-pairs")
                partners = [
                    right
                    for right in range(encoding_before.num_rows)
                    if right != left and not (right in doomed and right < left)
                ]  # count each doomed-doomed pair once
                for agree in encoding_before.agree_sets_vs(left, partners):
                    counts[agree] -= 1
                    if counts[agree] <= 0:
                        del counts[agree]
                    delta.pairs_examined += 1

        self._rebuild_from_counts()
        self._record_delta(before_fds, before_uccs, delta)
        return delta

    def _rebuild_from_counts(self) -> None:
        assert self.pair_counts is not None
        agree_sets = list(self.pair_counts.keys())
        self._tree = build_positive_cover(self.arity, agree_sets)
        self._uccs = SetTrie()
        if self.arity:
            self._uccs.insert(0)
            for agree in sorted(
                set(agree_sets), key=lambda mask: -mask.bit_count()
            ):
                self._apply_ucc_agree(agree, None)

    # ------------------------------------------------------------------
    # Induction with dirty-candidate recording
    # ------------------------------------------------------------------
    def _apply_fd_agree(
        self, agree: int, dirty: set[tuple[int, int]]
    ) -> None:
        """HyFD's induction step, recording the specializations it adds."""
        tree = self._tree
        for lhs, rhs_mask in tree.collect_violated(agree):
            tree.remove(lhs, rhs_mask)
            for rhs_attr in iter_bits(rhs_mask):
                dirty.discard((lhs, rhs_attr))
                self._specialize_fd(lhs, rhs_attr, agree, dirty)

    def _specialize_fd(
        self,
        lhs: int,
        rhs_attr: int,
        agree: int,
        dirty: set[tuple[int, int]],
    ) -> None:
        candidates = full_mask(self.arity) & ~(agree | (1 << rhs_attr) | lhs)
        added = self._tree.add_minimal_specializations(lhs, rhs_attr, candidates)
        for new_lhs in added:
            dirty.add((new_lhs, rhs_attr))

    def _apply_ucc_agree(self, agree: int, dirty: set[int] | None) -> None:
        """HyUCC's induction step, recording the specializations it adds."""
        candidates = self._uccs
        refuted = list(candidates.iter_subsets_of(agree))
        for mask in refuted:
            candidates.remove(mask)
            if dirty is not None:
                dirty.discard(mask)
        extension_bits = full_mask(self.arity) & ~agree
        for mask in refuted:
            for bit_index in iter_bits(extension_bits):
                specialized = mask | (1 << bit_index)
                if not candidates.contains_subset_of(specialized):
                    candidates.insert(specialized)
                    if dirty is not None:
                        dirty.add(specialized)

    # ------------------------------------------------------------------
    # Targeted validation of dirty candidates
    # ------------------------------------------------------------------
    def _validate_dirty_fds(
        self,
        cache: PLICache,
        dirty: set[tuple[int, int]],
        delta: CoverDelta,
    ) -> None:
        """Validate batch-introduced FD candidates level-wise.

        Groups the dirty candidates by LHS and refutes all their RHS
        attributes in one partition sweep
        (:meth:`StrippedPartition.find_violations`).  Refutations
        specialize further (recording new dirty candidates), so the
        loop runs until the dirty set drains — in the expected case
        (induction over a complete pair set is exact) the very first
        round confirms everything.
        """
        tree = self._tree
        while dirty:
            level = min(lhs.bit_count() for lhs, _ in dirty)
            current = [
                (lhs, attr)
                for lhs, attr in dirty
                if lhs.bit_count() == level
            ]
            by_lhs: dict[int, list[int]] = {}
            for lhs, attr in current:
                dirty.discard((lhs, attr))
                if tree.contains_fd(lhs, attr):
                    by_lhs.setdefault(lhs, []).append(attr)
            for lhs, attrs in sorted(by_lhs.items()):
                checkpoint("incremental-validate")
                attrs = sorted(attrs)
                probes = [cache.probe(attr) for attr in attrs]
                partition = cache.get(lhs)
                delta.validations += 1
                violations = partition.find_violations(attrs, probes)
                for attr, pair in violations.items():
                    delta.repairs += 1
                    tree.remove(lhs, 1 << attr)
                    # The witnessing pair is an existing pair (already
                    # counted, if counting); it only steers specialization.
                    agree = cache.agree_set(*pair)
                    self._specialize_fd(lhs, attr, agree, dirty)

    def _validate_dirty_uccs(
        self,
        cache: PLICache,
        dirty: set[int],
        delta: CoverDelta,
    ) -> None:
        """Validate batch-introduced UCC candidates level-wise."""
        candidates = self._uccs
        while dirty:
            level = min(mask.bit_count() for mask in dirty)
            current = sorted(
                mask for mask in dirty if mask.bit_count() == level
            )
            for mask in current:
                dirty.discard(mask)
                if mask not in candidates:
                    continue
                checkpoint("incremental-validate")
                partition = cache.get(mask)
                delta.validations += 1
                if partition.is_unique:
                    continue
                delta.repairs += 1
                pair_cluster = partition.cluster(0)
                agree = cache.agree_set(pair_cluster[0], pair_cluster[1])
                self._apply_ucc_agree(agree, dirty)

    # ------------------------------------------------------------------
    # Delta bookkeeping
    # ------------------------------------------------------------------
    def _record_delta(
        self,
        before_fds: dict[int, int],
        before_uccs: set[int],
        delta: CoverDelta,
    ) -> None:
        after_fds = dict(self._tree.iter_all())
        for lhs, rhs in before_fds.items():
            gone = rhs & ~after_fds.get(lhs, 0)
            if gone:
                delta.fds_removed.append((lhs, gone))
        for lhs, rhs in after_fds.items():
            new = rhs & ~before_fds.get(lhs, 0)
            if new:
                delta.fds_added.append((lhs, new))
        after_uccs = set(self._uccs.iter_all())
        delta.uccs_removed.extend(sorted(before_uccs - after_uccs))
        delta.uccs_added.extend(sorted(after_uccs - before_uccs))
