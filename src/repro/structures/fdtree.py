"""FD positive cover as a level-indexed bitset lattice.

An :class:`FDTree` stores candidate FDs ``X → a``; HyFD's induction
phase repeatedly removes FDs violated by a discovered non-FD and
inserts their minimal specializations, and the validation phase walks
the cover level by level.  HyFD's original FD-tree is a recursive
prefix tree of per-node dicts; here the store is a **level index**:

* stored LHSs are grouped by popcount *level*; level ``k`` holds two
  parallel arrays ``lhs[i]`` / ``rhs[i]`` (attribute-set bitmask →
  RHS bitmask) plus an exact-membership dict and a ``union``
  over-approximation of all RHS bits on the level;
* ``contains_fd_or_generalization(X, a)`` becomes a subset-mask sweep
  over levels ``≤ popcount(X)`` — ``stored & ~X == 0 and rhs >> a & 1``
  per entry, no pointer chasing, skipping every level whose ``union``
  lacks ``a``;
* ``collect_violated`` is the same sweep with the violation predicate
  ``stored ⊆ agree and rhs & ~agree``.

The tree is the same pure-Python structure under every kernel
backend: each sweep is an inlined copy of its oracle in
:mod:`repro.kernels.pybackend` (``lattice_find_generalization``,
``lattice_violations``, ``lattice_any_violation``,
``lattice_specialization_screen``; docs/KERNELS.md), so building or
querying a tree never imports numpy.

``remove`` tombstones an entry (RHS mask → 0); a level auto-compacts
when tombstones dominate, and :meth:`prune` compacts everything and
recomputes the exact unions.  Iteration orders (:meth:`iter_level`,
:meth:`iter_all`) are the prefix tree's sorted-path DFS order, so every
downstream consumer sees deterministic covers (pinned against a naive
dict oracle by ``tests/test_fdtree_differential.py``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations
from math import comb

from repro import kernels
from repro.model.attributes import bits_of, iter_bits

__all__ = ["FDTree"]

#: a level auto-compacts when it holds more than this many tombstones
#: and they are at least half of its entries
COMPACT_MIN_DEAD = 16

# The kernel counter store, referenced directly: it is cleared in
# place and never rebound, and these sweeps run millions of times per
# discovery — even the ``kernels.bump`` call overhead shows.
_COUNTERS = kernels._counters

# Precomputed counter keys — per-call f-string key building would cost
# more than the counter update itself.
_GEN_CALLS = "kernel_lattice_generalization_calls"
_GEN_ROWS = "kernel_lattice_generalization_rows"
_VIOL_CALLS = "kernel_lattice_violation_calls"
_VIOL_ROWS = "kernel_lattice_violation_rows"
_LEVELS_CALLS = "kernel_lattice_levels_calls"
_LEVELS_ROWS = "kernel_lattice_levels_rows"


class _Level:
    """One popcount level: parallel (lhs, rhs) arrays + exact index.

    ``index`` maps every stored LHS (live or tombstoned) to its array
    position; ``union`` over-approximates the OR of all live RHS masks
    (refreshed by compaction); ``dead`` counts tombstones.
    """

    __slots__ = ("lhs", "rhs", "index", "union", "dead")

    def __init__(self) -> None:
        self.lhs: list[int] = []
        self.rhs: list[int] = []
        self.index: dict[int, int] = {}
        self.union = 0
        self.dead = 0


def _path_key(entry: tuple[int, int]) -> tuple[int, ...]:
    return bits_of(entry[0])


class FDTree:
    """Level-indexed positive cover over FD left-hand sides."""

    __slots__ = ("num_attributes", "_levels", "_depth_hint")

    def __init__(self, num_attributes: int | None = None) -> None:
        self.num_attributes = int(num_attributes or 0)
        self._levels: list[_Level] = []
        self._depth_hint = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, lhs: int, rhs: int) -> None:
        """Mark ``lhs → a`` for every attribute ``a`` in ``rhs``."""
        if not rhs:
            return
        depth = lhs.bit_count()
        levels = self._levels
        while len(levels) <= depth:
            levels.append(_Level())
        level = levels[depth]
        pos = level.index.get(lhs)
        if pos is None:
            pos = len(level.lhs)
            level.lhs.append(lhs)
            level.rhs.append(rhs)
            level.index[lhs] = pos
        else:
            old = level.rhs[pos]
            if not old:
                level.dead -= 1  # revived tombstone
            level.rhs[pos] = old | rhs
        level.union |= rhs
        if depth > self._depth_hint:
            self._depth_hint = depth

    def remove(self, lhs: int, rhs: int) -> None:
        """Unmark ``lhs → a`` for every ``a`` in ``rhs``."""
        depth = lhs.bit_count()
        if depth >= len(self._levels):
            return
        level = self._levels[depth]
        pos = level.index.get(lhs)
        if pos is None:
            return
        old = level.rhs[pos]
        new = old & ~rhs
        if new == old:
            return
        level.rhs[pos] = new
        if not new:
            level.dead += 1
            if level.dead > COMPACT_MIN_DEAD and level.dead * 2 >= len(level.lhs):
                self._compact_level(level)

    def add_minimal_specializations(
        self, lhs: int, rhs_attr: int, extensions: int
    ) -> list[int]:
        """Insert ``lhs ∪ {b} → rhs_attr`` for each ``b`` in ``extensions``
        that has no stored generalization; return the LHSs added.

        All candidates share one popcount and differ pairwise in one
        bit, so none can generalize another: checking each against the
        pre-insert state is equivalent to the sequential
        check-then-add, which is what this runs.
        """
        rhs_bit = 1 << rhs_attr
        surviving = extensions & ~lhs
        if not surviving:
            return []
        # One sweep over the reachable levels screens every candidate at
        # once: a stored ``Z`` (with the RHS bit) generalizes ``lhs ∪ {b}``
        # iff ``Z \ lhs`` is empty (kills all candidates) or the single
        # bit ``{b}``.  Candidates share one popcount and differ pairwise
        # in one bit, so none generalizes another and screening against
        # the pre-insert state matches the sequential check-then-add.
        levels = self._levels
        popcount = lhs.bit_count()
        top = min(popcount + 1, len(levels) - 1)
        not_lhs = ~lhs
        bits: tuple[int, ...] | None = None
        scanned = 0
        swept = 0
        for depth in range(top + 1):
            level = levels[depth]
            size = len(level.lhs)
            if not size or not level.union & rhs_bit:
                continue
            swept += 1
            # Subset probes, as in :meth:`contains_fd_or_generalization`:
            # a size-``depth`` subset of ``lhs`` screens everything, a
            # ``(depth-1)``-subset plus one candidate bit screens that
            # candidate.  Cheaper than the sweep on large levels.
            base_subsets = comb(popcount, depth) if depth <= popcount else 0
            ext_subsets = comb(popcount, depth - 1) if depth else 0
            probes = base_subsets + surviving.bit_count() * ext_subsets
            if probes * 4 < size:
                scanned += probes
                if bits is None:
                    bits = bits_of(lhs)
                index = level.index
                rhs_rows = level.rhs
                for combo in combinations(bits, depth):
                    mask = 0
                    for bit in combo:
                        mask |= 1 << bit
                    pos = index.get(mask)
                    if pos is not None and rhs_rows[pos] & rhs_bit:
                        surviving = 0
                        break
                if not surviving:
                    break
                if depth:
                    for extension in iter_bits(surviving):
                        ext_bit = 1 << extension
                        for combo in combinations(bits, depth - 1):
                            mask = ext_bit
                            for bit in combo:
                                mask |= 1 << bit
                            pos = index.get(mask)
                            if pos is not None and rhs_rows[pos] & rhs_bit:
                                surviving &= ~ext_bit
                                break
                    if not surviving:
                        break
                continue
            scanned += size
            # pybackend.lattice_specialization_screen, inlined and fused
            # with the exact empty-or-single-extension test.
            for stored, rhs in zip(level.lhs, level.rhs):
                if not rhs & rhs_bit:
                    continue
                extra = stored & not_lhs
                if not extra:
                    surviving = 0
                    break
                if extra & (extra - 1) == 0 and extra & surviving:
                    surviving &= ~extra
            if not surviving:
                break
        counters = _COUNTERS
        counters[_GEN_CALLS] = counters.get(_GEN_CALLS, 0) + 1
        counters[_GEN_ROWS] = counters.get(_GEN_ROWS, 0) + scanned
        counters[_LEVELS_CALLS] = counters.get(_LEVELS_CALLS, 0) + 1
        counters[_LEVELS_ROWS] = counters.get(_LEVELS_ROWS, 0) + swept
        added: list[int] = []
        for extension in iter_bits(surviving):
            new_lhs = lhs | (1 << extension)
            self.add(new_lhs, rhs_bit)
            added.append(new_lhs)
        return added

    def prune(self) -> None:
        """Compact every level and recompute exact ``union`` masks.

        Invoked from induction after violation-removal bursts; between
        prunes, ``union`` staleness and tombstones cost sweep time,
        never correctness.
        """
        depth = 0
        for index, level in enumerate(self._levels):
            if level.dead:
                self._compact_level(level)
            else:
                union = 0
                for rhs in level.rhs:
                    union |= rhs
                level.union = union
            if level.lhs:
                depth = index
        while self._levels and not self._levels[-1].lhs:
            self._levels.pop()
        self._depth_hint = depth

    def _compact_level(self, level: _Level) -> None:
        keep = [pos for pos, rhs in enumerate(level.rhs) if rhs]
        level.lhs = [level.lhs[pos] for pos in keep]
        level.rhs = [level.rhs[pos] for pos in keep]
        level.index = {lhs: pos for pos, lhs in enumerate(level.lhs)}
        level.dead = 0
        union = 0
        for rhs in level.rhs:
            union |= rhs
        level.union = union

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains_fd(self, lhs: int, rhs_attr: int) -> bool:
        """Exact membership of ``lhs → rhs_attr`` (``rhs_attr`` is an index)."""
        depth = lhs.bit_count()
        if depth >= len(self._levels):
            return False
        level = self._levels[depth]
        pos = level.index.get(lhs)
        if pos is None:
            return False
        return bool(level.rhs[pos] >> rhs_attr & 1)

    def contains_fd_or_generalization(self, lhs: int, rhs_attr: int) -> bool:
        """True iff some stored ``X → rhs_attr`` has ``X ⊆ lhs``.

        Per level the cheaper of two exact strategies is used: the
        subset-mask sweep over the level's arrays, or — when the query
        is narrow enough that ``C(popcount, depth)`` is far below the
        level size — enumerating the query's size-``depth`` subsets and
        probing the level's membership dict.  Narrow queries dominate
        induction's specialization checks; wide ones its violation
        sweeps.
        """
        levels = self._levels
        popcount = lhs.bit_count()
        top = min(popcount, len(levels) - 1)
        rhs_bit = 1 << rhs_attr
        outside = ~lhs
        bits: tuple[int, ...] | None = None
        scanned = 0
        swept = 0
        found = False
        for depth in range(top + 1):
            level = levels[depth]
            size = len(level.lhs)
            if not size or not level.union & rhs_bit:
                continue
            swept += 1
            subsets = comb(popcount, depth)
            if subsets * 4 < size:
                scanned += subsets
                if bits is None:
                    bits = bits_of(lhs)
                index = level.index
                rhs_rows = level.rhs
                for combo in combinations(bits, depth):
                    mask = 0
                    for bit in combo:
                        mask |= 1 << bit
                    pos = index.get(mask)
                    if pos is not None and rhs_rows[pos] & rhs_bit:
                        found = True
                        break
                if found:
                    break
                continue
            scanned += size
            # pybackend.lattice_find_generalization, inlined: the
            # per-level call overhead shows on induction's tiny levels
            # (the oracle function stays normative and is pinned against
            # this loop by the differential suite).
            for stored, rhs in zip(level.lhs, level.rhs):
                if rhs & rhs_bit and stored & outside == 0:
                    found = True
                    break
            if found:
                break
        counters = _COUNTERS
        counters[_GEN_CALLS] = counters.get(_GEN_CALLS, 0) + 1
        counters[_GEN_ROWS] = counters.get(_GEN_ROWS, 0) + scanned
        counters[_LEVELS_CALLS] = counters.get(_LEVELS_CALLS, 0) + 1
        counters[_LEVELS_ROWS] = counters.get(_LEVELS_ROWS, 0) + swept
        return found

    def contains_generalization_batch(
        self, pairs: Iterable[tuple[int, int]]
    ) -> list[bool]:
        """Batch form of :meth:`contains_fd_or_generalization`."""
        return [
            self.contains_fd_or_generalization(lhs, rhs_attr)
            for lhs, rhs_attr in pairs
        ]

    def collect_violated(self, agree_set: int) -> list[tuple[int, int]]:
        """FDs violated by a record pair that agrees exactly on ``agree_set``.

        A stored ``X → a`` is violated iff ``X ⊆ agree_set`` and
        ``a ∉ agree_set``.  Returns ``(lhs, violated_rhs_mask)`` pairs,
        level by level in storage order.
        """
        disagree = ((1 << self.num_attributes) - 1) & ~agree_set
        out: list[tuple[int, int]] = []
        if not disagree:
            return out
        levels = self._levels
        top = min(agree_set.bit_count(), len(levels) - 1)
        outside = ~agree_set
        scanned = 0
        swept = 0
        for depth in range(top + 1):
            level = levels[depth]
            size = len(level.lhs)
            if not size or not level.union & disagree:
                continue
            swept += 1
            scanned += size
            # pybackend.lattice_violations, inlined (storage order
            # preserved); the per-level call overhead shows on
            # induction's tiny levels.
            for stored, rhs in zip(level.lhs, level.rhs):
                if stored & outside == 0:
                    hit = rhs & disagree
                    if hit:
                        out.append((stored, hit))
        counters = _COUNTERS
        counters[_VIOL_CALLS] = counters.get(_VIOL_CALLS, 0) + 1
        counters[_VIOL_ROWS] = counters.get(_VIOL_ROWS, 0) + scanned
        counters[_LEVELS_CALLS] = counters.get(_LEVELS_CALLS, 0) + 1
        counters[_LEVELS_ROWS] = counters.get(_LEVELS_ROWS, 0) + swept
        return out

    def collect_violated_batch(
        self, agree_sets: Iterable[int]
    ) -> list[list[tuple[int, int]]]:
        """Read-only batch form of :meth:`collect_violated`."""
        return [self.collect_violated(agree) for agree in agree_sets]

    def any_violated(self, agree_set: int) -> bool:
        """True iff :meth:`collect_violated` would return anything.

        The screening form of the sweep: early-exits on the first hit,
        so clean agree sets cost one pass over the reachable levels and
        dirty ones usually much less.
        """
        disagree = ((1 << self.num_attributes) - 1) & ~agree_set
        if not disagree:
            return False
        levels = self._levels
        top = min(agree_set.bit_count(), len(levels) - 1)
        outside = ~agree_set
        scanned = 0
        swept = 0
        found = False
        for depth in range(top + 1):
            level = levels[depth]
            size = len(level.lhs)
            if not size or not level.union & disagree:
                continue
            swept += 1
            scanned += size
            # pybackend.lattice_any_violation, inlined.
            for stored, rhs in zip(level.lhs, level.rhs):
                if rhs & disagree and stored & outside == 0:
                    found = True
                    break
            if found:
                break
        counters = _COUNTERS
        counters[_VIOL_CALLS] = counters.get(_VIOL_CALLS, 0) + 1
        counters[_VIOL_ROWS] = counters.get(_VIOL_ROWS, 0) + scanned
        counters[_LEVELS_CALLS] = counters.get(_LEVELS_CALLS, 0) + 1
        counters[_LEVELS_ROWS] = counters.get(_LEVELS_ROWS, 0) + swept
        return found

    def any_violated_batch(self, agree_sets: Iterable[int]) -> list[bool]:
        """Read-only batch form of :meth:`any_violated`."""
        return [self.any_violated(agree) for agree in agree_sets]

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def iter_level(self, depth: int) -> Iterator[tuple[int, int]]:
        """Yield ``(lhs, rhs_mask)`` for all FDs with ``|lhs| == depth``.

        Emitted in ascending attribute-path order (a prefix tree's
        sorted-children DFS order), so validation processes candidates
        in one deterministic sequence.
        """
        if depth < 0 or depth >= len(self._levels):
            return
        level = self._levels[depth]
        entries = [
            (lhs, rhs) for lhs, rhs in zip(level.lhs, level.rhs) if rhs
        ]
        entries.sort(key=_path_key)
        yield from entries

    def iter_all(self) -> Iterator[tuple[int, int]]:
        """Yield every stored ``(lhs, rhs_mask)`` pair.

        Ordered by ascending attribute path across all levels — a
        prefix tree's DFS order (a prefix path sorts before its
        extensions, so interleaving levels falls out of the tuple sort).
        """
        entries = [
            (lhs, rhs)
            for level in self._levels
            for lhs, rhs in zip(level.lhs, level.rhs)
            if rhs
        ]
        entries.sort(key=_path_key)
        yield from entries

    def depth(self) -> int:
        """Length of the longest stored LHS (not shrunk by ``remove``;
        recomputed by :meth:`prune`)."""
        return self._depth_hint

    def count_fds(self) -> int:
        """Total number of single-RHS FDs stored."""
        return sum(
            rhs.bit_count() for level in self._levels for rhs in level.rhs
        )

    def stats(self) -> dict[str, int]:
        """Structural size: occupied levels, entry slots, tombstones."""
        entries = sum(len(level.lhs) for level in self._levels)
        dead = sum(level.dead for level in self._levels)
        return {
            "levels": sum(1 for level in self._levels if level.lhs),
            "entries": entries,
            "live": entries - dead,
            "dead": dead,
        }
