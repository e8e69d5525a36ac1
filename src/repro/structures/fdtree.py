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

The sweeps dispatch through the kernel backends (docs/KERNELS.md):
under the pure-Python backend the entry arrays are Python ints and the
sweep is :func:`repro.kernels.pybackend.lattice_find_generalization`
(the normative oracle); under numpy every level additionally maintains
an incrementally-appended uint64 mirror (64 attributes per word, the
kernel bitset layout) and large levels are swept with one broadcast
(:mod:`repro.kernels.npbackend`).  The representation is pinned per
tree at construction from the resolved kernel backend, so a tree never
mixes representations mid-life.

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

#: below this many entries a mirrored level is swept with the
#: interpreted loop anyway — per-call numpy overhead beats the loop on
#: tiny levels, exactly like ``npbackend.SMALL_INPUT_THRESHOLD``
SMALL_LEVEL_THRESHOLD = 32

#: a level auto-compacts when it holds more than this many tombstones
#: and they are at least half of its entries
COMPACT_MIN_DEAD = 16

_WORD_MASK = (1 << 64) - 1

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
    (refreshed by compaction); ``dead`` counts tombstones.  ``np_lhs``
    / ``np_rhs`` are the uint64 mirrors, allocated lazily with doubling
    capacity — rows beyond the logical size are garbage, so every sweep
    slices ``[:len(lhs)]``.
    """

    __slots__ = ("lhs", "rhs", "index", "union", "dead", "np_lhs", "np_rhs")

    def __init__(self) -> None:
        self.lhs: list[int] = []
        self.rhs: list[int] = []
        self.index: dict[int, int] = {}
        self.union = 0
        self.dead = 0
        self.np_lhs = None
        self.np_rhs = None


def _path_key(entry: tuple[int, int]) -> tuple[int, ...]:
    return bits_of(entry[0])


class FDTree:
    """Level-indexed positive cover over FD left-hand sides."""

    __slots__ = ("num_attributes", "_levels", "_words", "_np", "_depth_hint")

    def __init__(self, num_attributes: int | None = None) -> None:
        self.num_attributes = int(num_attributes or 0)
        self._levels: list[_Level] = []
        self._words = max(1, (self.num_attributes + 63) // 64)
        self._np = (
            kernels.numpy_module() if kernels.backend_name() == "numpy" else None
        )
        self._depth_hint = 0

    # ------------------------------------------------------------------
    # Pickling: the numpy module handle and the per-level uint64
    # mirrors are representation caches pinned to *this* process's
    # kernel backend; strip them on save and rebuild on load under the
    # receiving process's backend.
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "num_attributes": self.num_attributes,
            "levels": [
                (level.lhs, level.rhs, level.union, level.dead)
                for level in self._levels
            ],
            "depth_hint": self._depth_hint,
        }

    def __setstate__(self, state) -> None:
        self.num_attributes = state["num_attributes"]
        self._words = max(1, (self.num_attributes + 63) // 64)
        self._np = (
            kernels.numpy_module() if kernels.backend_name() == "numpy" else None
        )
        self._depth_hint = state["depth_hint"]
        self._levels = []
        for lhs, rhs, union, dead in state["levels"]:
            level = _Level()
            level.lhs = list(lhs)
            level.rhs = list(rhs)
            level.index = {mask: pos for pos, mask in enumerate(level.lhs)}
            level.union = union
            level.dead = dead
            if self._np is not None and level.lhs:
                from repro.kernels import npbackend as _npk

                level.np_lhs = _npk.pack_masks(level.lhs, self._words)
                level.np_rhs = _npk.pack_masks(level.rhs, self._words)
            self._levels.append(level)

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
            if self._np is not None:
                self._mirror_append(level, pos, lhs, rhs)
        else:
            old = level.rhs[pos]
            if not old:
                level.dead -= 1  # revived tombstone
            level.rhs[pos] = old | rhs
            if self._np is not None:
                self._pack_row(level.np_rhs, pos, old | rhs)
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
        if self._np is not None:
            self._pack_row(level.np_rhs, pos, new)
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
            if level.np_lhs is not None and size >= SMALL_LEVEL_THRESHOLD:
                from repro.kernels import npbackend as _npk

                # Vector prefilter: RHS bit present and Z \ lhs confined
                # to the candidate bits; the (few) hits get the exact
                # empty-or-single-bit test in Python.
                hits = _npk.lattice_specialization_screen(
                    level.np_lhs[:size],
                    level.np_rhs[:size],
                    self._pack_query(lhs | surviving),
                    rhs_attr,
                )
                rows = level.lhs
                for pos in hits:
                    extra = rows[pos] & not_lhs
                    if not extra:
                        surviving = 0
                        break
                    if extra & (extra - 1) == 0:
                        surviving &= ~extra
            else:
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
        if self._np is not None:
            if level.lhs:
                from repro.kernels import npbackend as _npk

                level.np_lhs = _npk.pack_masks(level.lhs, self._words)
                level.np_rhs = _npk.pack_masks(level.rhs, self._words)
            else:
                level.np_lhs = None
                level.np_rhs = None

    # ------------------------------------------------------------------
    # uint64 mirror maintenance (numpy representation only)
    # ------------------------------------------------------------------
    def _mirror_append(self, level: _Level, pos: int, lhs: int, rhs: int) -> None:
        np = self._np
        if level.np_lhs is None:
            capacity = 16
            level.np_lhs = np.zeros((capacity, self._words), dtype=np.uint64)
            level.np_rhs = np.zeros((capacity, self._words), dtype=np.uint64)
        elif pos >= level.np_lhs.shape[0]:
            capacity = level.np_lhs.shape[0]
            while capacity <= pos:
                capacity *= 2
            grown_lhs = np.zeros((capacity, self._words), dtype=np.uint64)
            grown_rhs = np.zeros((capacity, self._words), dtype=np.uint64)
            grown_lhs[:pos] = level.np_lhs[:pos]
            grown_rhs[:pos] = level.np_rhs[:pos]
            level.np_lhs = grown_lhs
            level.np_rhs = grown_rhs
        self._pack_row(level.np_lhs, pos, lhs)
        self._pack_row(level.np_rhs, pos, rhs)

    def _pack_row(self, rows, pos: int, mask: int) -> None:
        if self._words == 1:
            rows[pos, 0] = mask
        else:
            for word in range(self._words):
                rows[pos, word] = (mask >> (64 * word)) & _WORD_MASK

    def _pack_query(self, mask: int):
        np = self._np
        packed = np.empty(self._words, dtype=np.uint64)
        if self._words == 1:
            packed[0] = mask & _WORD_MASK
        else:
            for word in range(self._words):
                packed[word] = (mask >> (64 * word)) & _WORD_MASK
        return packed

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
            if level.np_lhs is not None and size >= SMALL_LEVEL_THRESHOLD:
                from repro.kernels import npbackend as _npk

                inv_query = self._np.invert(self._pack_query(lhs))
                if _npk.lattice_find_generalization(
                    level.np_lhs[:size], level.np_rhs[:size], inv_query, rhs_attr
                ):
                    found = True
                    break
            else:
                # pybackend.lattice_find_generalization, inlined: the
                # per-level call overhead shows on induction's tiny
                # levels (the oracle function stays normative and is
                # pinned against this loop by the differential suite).
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
        scanned = 0
        swept = 0
        inv_agree = disagree_words = None
        for depth in range(top + 1):
            level = levels[depth]
            size = len(level.lhs)
            if not size or not level.union & disagree:
                continue
            swept += 1
            scanned += size
            if level.np_lhs is not None and size >= SMALL_LEVEL_THRESHOLD:
                from repro.kernels import npbackend as _npk

                if inv_agree is None:
                    inv_agree = self._np.invert(self._pack_query(agree_set))
                    disagree_words = self._pack_query(disagree)
                hits = _npk.lattice_violations(
                    level.np_lhs[:size], level.np_rhs[:size],
                    inv_agree, disagree_words,
                )
                for pos in hits:
                    out.append((level.lhs[pos], level.rhs[pos] & disagree))
            else:
                # pybackend.lattice_violations, inlined (storage order
                # preserved); the per-level call overhead shows on
                # induction's tiny levels.
                outside = ~agree_set
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
        scanned = 0
        swept = 0
        found = False
        inv_agree = disagree_words = None
        for depth in range(top + 1):
            level = levels[depth]
            size = len(level.lhs)
            if not size or not level.union & disagree:
                continue
            swept += 1
            scanned += size
            if level.np_lhs is not None and size >= SMALL_LEVEL_THRESHOLD:
                from repro.kernels import npbackend as _npk

                if inv_agree is None:
                    inv_agree = self._np.invert(self._pack_query(agree_set))
                    disagree_words = self._pack_query(disagree)
                hit = _npk.lattice_any_violation(
                    level.np_lhs[:size], level.np_rhs[:size],
                    inv_agree, disagree_words,
                )
            else:
                # pybackend.lattice_any_violation, inlined.
                hit = False
                outside = ~agree_set
                for stored, rhs in zip(level.lhs, level.rhs):
                    if rhs & disagree and stored & outside == 0:
                        hit = True
                        break
            if hit:
                found = True
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
