"""Lattice differential suite: the FD-tree vs. a naive set oracle.

The level-indexed FD-tree (``fdtree.FDTree``) must implement an
abstract store: a set of ``lhs mask → rhs mask`` FDs with subset
queries over it.  :class:`NaiveFDTree` is that store written as the
most obvious dict possible, and every behaviour here is pinned against
it:

* property-based add/remove/specialize/prune/query sequences
  (hypothesis) on widths from 1 to 70 attributes (masks wider than one
  64-bit word), plus degenerate shapes — empty trees, the empty LHS,
  constant full-mask RHSs;
* positive-cover construction from real agree sets (planted and
  random instances, both NULL semantics) asserting the final covers
  are byte-identical to the oracle's;
* a wider seeded campaign behind ``-m fuzz`` (nightly CI), widened via
  ``LATTICE_FUZZ_SEEDS`` exactly like ``KERNEL_FUZZ_SEEDS``.

Ordering contract: ``iter_all`` / ``iter_level`` follow ascending
attribute-path order.  ``collect_violated`` returns the oracle's
*multiset* in storage order; consumers are order-insensitive (see
:func:`repro.discovery.hyfd.induction.apply_agree_set` — within one
agree set, specializations from different violated FDs can only
collide as exact equals, because extension attributes lie outside the
agree set while every violated LHS lies inside it).
"""

import os
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.model.attributes import bits_of, full_mask, iter_bits
from repro.structures import fdtree
from repro.structures.fdtree import FDTree

#: kernel backend pinned while a tree is built and swept; the tree is
#: the same pure-Python structure under every pin, so one is enough
CONFIGS = ["python"]


@pytest.fixture(autouse=True, scope="module")
def _restore_backend():
    yield
    kernels.set_backend(None)


def build(backend, width):
    kernels.set_backend(backend)
    return FDTree(width)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
class NaiveFDTree:
    """Executable specification: a dict of ``lhs mask → rhs mask``."""

    def __init__(self, num_attributes):
        self.num_attributes = num_attributes
        self.fds = {}

    def add(self, lhs, rhs):
        if rhs:
            self.fds[lhs] = self.fds.get(lhs, 0) | rhs

    def remove(self, lhs, rhs):
        remaining = self.fds.get(lhs, 0) & ~rhs
        if remaining:
            self.fds[lhs] = remaining
        else:
            self.fds.pop(lhs, None)

    def prune(self):
        pass  # nothing cached, nothing stale

    def contains_fd(self, lhs, rhs_attr):
        return bool(self.fds.get(lhs, 0) >> rhs_attr & 1)

    def contains_fd_or_generalization(self, lhs, rhs_attr):
        return any(
            stored & ~lhs == 0 and rhs >> rhs_attr & 1
            for stored, rhs in self.fds.items()
        )

    def add_minimal_specializations(self, lhs, rhs_attr, extensions):
        added = []
        for extension in iter_bits(extensions):
            new_lhs = lhs | (1 << extension)
            if not self.contains_fd_or_generalization(new_lhs, rhs_attr):
                self.add(new_lhs, 1 << rhs_attr)
                added.append(new_lhs)
        return added

    def collect_violated(self, agree_set):
        disagree = full_mask(self.num_attributes) & ~agree_set
        return [
            (lhs, rhs & disagree)
            for lhs, rhs in self.fds.items()
            if lhs & ~agree_set == 0 and rhs & disagree
        ]

    def any_violated(self, agree_set):
        return bool(self.collect_violated(agree_set))

    def iter_all(self):
        return sorted(self.fds.items(), key=lambda item: bits_of(item[0]))

    def iter_level(self, depth):
        return [
            item for item in self.iter_all() if item[0].bit_count() == depth
        ]

    def count_fds(self):
        return sum(rhs.bit_count() for rhs in self.fds.values())


# ----------------------------------------------------------------------
# Scenario machinery
# ----------------------------------------------------------------------
def apply_ops(tree, ops):
    """Run an op sequence; return the specialization-insert log."""
    log = []
    for op in ops:
        kind = op[0]
        if kind == "add":
            tree.add(op[1], op[2])
        elif kind == "remove":
            tree.remove(op[1], op[2])
        elif kind == "spec":
            log.append(tree.add_minimal_specializations(op[1], op[2], op[3]))
        elif kind == "prune":
            tree.prune()
    return log


def surface(tree, width, probes):
    """Canonical full-surface snapshot (order-sensitive where pinned)."""
    snapshot = {
        "all": list(tree.iter_all()),
        "levels": [list(tree.iter_level(k)) for k in range(width + 2)],
        "count": tree.count_fds(),
        "member": [
            (tree.contains_fd(mask, attr),
             tree.contains_fd_or_generalization(mask, attr))
            for mask in probes
            for attr in range(width)
        ],
        "violated": [sorted(tree.collect_violated(mask)) for mask in probes],
        "any": [tree.any_violated(mask) for mask in probes],
    }
    if not isinstance(tree, NaiveFDTree):
        # Batch entry points must agree with their scalar loops.
        pairs = [(mask, attr) for mask in probes for attr in range(width)]
        assert tree.contains_generalization_batch(pairs) == [
            tree.contains_fd_or_generalization(lhs, attr)
            for lhs, attr in pairs
        ]
        assert tree.collect_violated_batch(probes) == [
            tree.collect_violated(mask) for mask in probes
        ]
        assert tree.any_violated_batch(probes) == snapshot["any"]
    return snapshot


WIDTHS = (1, 2, 3, 4, 6, 8, 20, 70)


@st.composite
def lattice_scenarios(draw):
    width = draw(st.sampled_from(WIDTHS))
    full = full_mask(width)
    masks = st.integers(min_value=0, max_value=full)
    ops = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(
            st.sampled_from(("add", "add", "add", "spec", "remove", "prune"))
        )
        if kind == "add":
            ops.append(("add", draw(masks), draw(masks)))
        elif kind == "remove":
            ops.append(("remove", draw(masks), draw(masks)))
        elif kind == "spec":
            lhs = draw(masks)
            rhs_attr = draw(st.integers(0, width - 1))
            # Extensions always lie outside lhs ∪ {rhs_attr}: the only
            # shape induction produces, and the one the equal-popcount
            # batch argument needs.
            extensions = draw(masks) & ~(lhs | (1 << rhs_attr))
            ops.append(("spec", lhs, rhs_attr, extensions))
        else:
            ops.append(("prune",))
    probes = draw(st.lists(masks, min_size=1, max_size=6))
    probes += [0, full]
    return width, ops, probes


def random_scenario(rng, width, num_ops):
    full = full_mask(width)
    ops = []
    for _ in range(num_ops):
        roll = rng.random()
        if roll < 0.5:
            ops.append(("add", rng.randint(0, full), rng.randint(0, full)))
        elif roll < 0.7:
            ops.append(("remove", rng.randint(0, full), rng.randint(0, full)))
        elif roll < 0.95:
            lhs = rng.randint(0, full)
            rhs_attr = rng.randrange(width)
            extensions = rng.randint(0, full) & ~(lhs | (1 << rhs_attr))
            ops.append(("spec", lhs, rhs_attr, extensions))
        else:
            ops.append(("prune",))
    probes = [rng.randint(0, full) for _ in range(8)] + [0, full]
    return ops, probes


def assert_backends_match_naive(width, ops, probes):
    naive = NaiveFDTree(width)
    expected_log = apply_ops(naive, ops)
    expected = surface(naive, width, probes)
    for config in CONFIGS:
        tree = build(config, width)
        log = apply_ops(tree, ops)
        assert log == expected_log, config
        assert surface(tree, width, probes) == expected, config


# ----------------------------------------------------------------------
# Property-based equivalence
# ----------------------------------------------------------------------
class TestPropertyDifferential:
    @settings(
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(lattice_scenarios())
    def test_all_engines_match_naive_oracle(self, scenario):
        width, ops, probes = scenario
        assert_backends_match_naive(width, ops, probes)


# ----------------------------------------------------------------------
# Degenerate shapes
# ----------------------------------------------------------------------
class TestDegenerateShapes:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_empty_tree(self, config):
        tree = build(config, 5)
        assert list(tree.iter_all()) == []
        assert tree.count_fds() == 0
        assert not tree.contains_fd_or_generalization(0b10101, 1)
        assert tree.collect_violated(0b00001) == []
        assert not tree.any_violated(0b00001)
        tree.prune()
        assert tree.count_fds() == 0

    @pytest.mark.parametrize("config", CONFIGS)
    def test_single_attribute_universe(self, config):
        tree = build(config, 1)
        tree.add(0, 0b1)
        assert tree.contains_fd_or_generalization(0b1, 0)
        assert sorted(tree.collect_violated(0)) == [(0, 0b1)]
        assert tree.collect_violated(0b1) == []

    @pytest.mark.parametrize("config", CONFIGS)
    def test_full_agreement_never_violates(self, config):
        tree = build(config, 4)
        tree.add(0b0011, 0b1100)
        assert tree.collect_violated(full_mask(4)) == []
        assert not tree.any_violated(full_mask(4))

    @pytest.mark.parametrize("config", CONFIGS)
    def test_wide_lattice_multiword_masks(self, config):
        width = 70  # two uint64 words
        tree = build(config, width)
        high, low = 1 << 69, 1
        tree.add(low, high)
        tree.add(high, low)
        assert tree.contains_fd_or_generalization(low | (1 << 35), 69)
        assert tree.contains_fd_or_generalization(high | (1 << 35), 0)
        assert not tree.contains_fd_or_generalization(1 << 35, 69)
        agree = full_mask(width) & ~high
        assert sorted(tree.collect_violated(agree)) == [(low, high)]


# ----------------------------------------------------------------------
# Positive covers from real agree sets (the acceptance campaign)
# ----------------------------------------------------------------------
def naive_positive_cover(arity, agree_sets):
    """``build_positive_cover`` transliterated onto the oracle."""
    naive = NaiveFDTree(arity)
    naive.add(0, full_mask(arity))
    ordered = sorted(set(agree_sets), key=lambda mask: -mask.bit_count())
    for agree in ordered:
        for lhs, rhs_mask in sorted(naive.collect_violated(agree)):
            naive.remove(lhs, rhs_mask)
            for rhs_attr in iter_bits(rhs_mask):
                candidates = full_mask(arity) & ~(
                    agree | (1 << rhs_attr) | lhs
                )
                naive.add_minimal_specializations(lhs, rhs_attr, candidates)
    return naive


def all_pairs_agree_sets(instance, null_equals_null):
    encoding = instance.encoded(null_equals_null)
    n = encoding.num_rows
    lefts = [i for i in range(n) for _ in range(i + 1, n)]
    rights = [j for i in range(n) for j in range(i + 1, n)]
    return list(encoding.agree_sets_batch(lefts, rights))  # distinct masks


def seeded_instance(seed):
    from repro.datagen.random_tables import random_instance
    from repro.verification.planted import plant_instance

    if seed % 3 == 2:
        return plant_instance(
            seed, num_columns=4 + seed % 3, num_rows=30, null_rate=0.2
        ).instance
    return random_instance(
        seed,
        3 + seed % 4,
        10 + (seed * 7) % 30,
        domain_size=1 + seed % 4,
        null_rate=(seed % 3) * 0.25,
    )


def assert_covers_identical(instance, null_equals_null):
    from repro.discovery.hyfd.induction import build_positive_cover

    agree_sets = all_pairs_agree_sets(instance, null_equals_null)
    expected = naive_positive_cover(instance.arity, agree_sets).iter_all()
    for backend in CONFIGS:
        kernels.set_backend(backend)
        tree = build_positive_cover(instance.arity, agree_sets)
        assert list(tree.iter_all()) == expected, backend


class TestPositiveCoverCampaign:
    """≥25 seeded planted/random instances, both NULL semantics: the
    induction-built positive cover is byte-identical (``iter_all``)
    to the naive oracle's."""

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("null_equals_null", [True, False])
    def test_covers_identical(self, seed, null_equals_null):
        assert_covers_identical(seeded_instance(seed), null_equals_null)


# ----------------------------------------------------------------------
# remove/prune hygiene (tombstone compaction)
# ----------------------------------------------------------------------
def removal_churn(tree, width):
    """Insert a dense level-2 layer, then remove most of it."""
    kept = []
    for a in range(width):
        for b in range(a + 1, width):
            lhs = (1 << a) | (1 << b)
            tree.add(lhs, 0b1 if (a + b) % 5 else 0b10)
            if (a + b) % 5 == 0:
                kept.append(lhs)
            else:
                tree.remove(lhs, 0b1)
    return kept


class TestPruneShrinksTraversal:
    def test_level_engine_tombstones_compacted(self):
        tree = build("python", 12)
        removal_churn(tree, 12)
        before = tree.stats()
        assert before["dead"] > 0
        survivors = list(tree.iter_all())

        mark = kernels.counters_snapshot()
        tree.contains_fd_or_generalization(full_mask(12), 0)
        rows_before = kernels.counters_delta(mark).get(
            "kernel_lattice_generalization_rows", 0
        )

        tree.prune()
        after = tree.stats()
        assert after["dead"] == 0
        assert after["entries"] == len(survivors)
        assert after["entries"] < before["entries"]
        assert list(tree.iter_all()) == survivors  # prune is content-free

        mark = kernels.counters_snapshot()
        tree.contains_fd_or_generalization(full_mask(12), 0)
        rows_after = kernels.counters_delta(mark).get(
            "kernel_lattice_generalization_rows", 0
        )
        assert rows_after < rows_before

    def test_level_engine_auto_compacts_heavy_churn(self):
        tree = build("python", 12)
        for a in range(12):
            for b in range(a + 1, 12):
                tree.add((1 << a) | (1 << b), 0b1)
        survivors = []
        for a in range(12):
            for b in range(a + 1, 12):
                if (a * 13 + b) % 7:
                    tree.remove((1 << a) | (1 << b), 0b1)
                else:
                    survivors.append((1 << a) | (1 << b))
        # >half of the 66 entries tombstoned → the level self-compacted
        # mid-churn (a sub-threshold tombstone tail may remain).
        stats = tree.stats()
        assert stats["entries"] < 66
        assert stats["dead"] <= fdtree.COMPACT_MIN_DEAD
        assert [lhs for lhs, _ in tree.iter_all()] == sorted(
            survivors, key=bits_of
        )

    @pytest.mark.parametrize("config", CONFIGS)
    def test_depth_recomputed_by_prune(self, config):
        tree = build(config, 6)
        tree.add(0b111000, 0b1)
        tree.add(0b000001, 0b10)
        assert tree.depth() == 3
        tree.remove(0b111000, 0b1)
        tree.prune()
        assert tree.depth() == 1

    @pytest.mark.parametrize("config", CONFIGS)
    def test_remove_then_readd_revives(self, config):
        tree = build(config, 5)
        tree.add(0b00110, 0b00001)
        tree.remove(0b00110, 0b00001)
        tree.add(0b00110, 0b01000)
        assert dict(tree.iter_all()) == {0b00110: 0b01000}
        assert tree.count_fds() == 1


# ----------------------------------------------------------------------
# Pickling (pool payloads) & profile counters
# ----------------------------------------------------------------------
class TestPickleAndCounters:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_pickle_roundtrip_preserves_content(self, config):
        tree = build(config, 70)
        tree.add(0b1, 0b10)
        tree.add((1 << 69) | 0b1, 1 << 68)
        tree.remove(0b1, 0b10)
        clone = pickle.loads(pickle.dumps(tree))
        assert type(clone) is FDTree
        assert list(clone.iter_all()) == list(tree.iter_all())
        assert clone.count_fds() == tree.count_fds()
        clone.add(0b111, 0b1)  # still mutable after the trip
        assert clone.contains_fd(0b111, 0)

    def test_profile_records_lattice_counters(self, monkeypatch):
        from repro.datagen.random_tables import random_instance
        from repro.discovery.hyfd import hyfd as hyfd_module
        from repro.profiling import profile

        # Validation's sweeps are the counted ones; the pair budget at 0
        # sends these 20 rows through it.
        monkeypatch.setattr(hyfd_module, "ALL_PAIRS_BUDGET", 0)
        kernels.set_backend("python")
        report = profile(random_instance(41, 3, 20, domain_size=2))
        assert report.counters["kernel_lattice_generalization_calls"] > 0
        assert report.counters["kernel_lattice_levels_calls"] > 0


# ----------------------------------------------------------------------
# Kernel sweep oracles: pybackend vs the tree's inlined loops
# ----------------------------------------------------------------------
class TestLatticeKernelOracles:
    """``pybackend.lattice_*`` are the normative per-level sweeps; the
    tree inlines them for speed.  Pin both forms against each other."""

    widths = st.integers(min_value=1, max_value=70)

    @staticmethod
    def _rows(rng, width, count):
        full = (1 << width) - 1
        return (
            [rng.randrange(full + 1) for _ in range(count)],
            [rng.randrange(full + 1) for _ in range(count)],
        )

    @given(st.integers(min_value=0, max_value=10_000), widths)
    @settings(deadline=None)
    def test_pybackend_matches_tree_sweeps(self, seed, width):
        from repro.kernels import pybackend as _py

        rng = random.Random(seed)
        lhs_rows, rhs_rows = self._rows(rng, width, rng.randrange(1, 12))
        full = (1 << width) - 1
        tree = FDTree(width)
        for lhs, rhs in zip(lhs_rows, rhs_rows):
            tree.add(lhs, rhs)
        for _ in range(6):
            query = rng.randrange(full + 1)
            rhs_attr = rng.randrange(width)
            expect = _py.lattice_find_generalization(
                lhs_rows, rhs_rows, query, 1 << rhs_attr
            )
            assert tree.contains_fd_or_generalization(
                query, rhs_attr
            ) == expect
            agree = rng.randrange(full + 1)
            disagree = full & ~agree
            hits = _py.lattice_violations(
                lhs_rows, rhs_rows, agree, disagree
            )
            assert _py.lattice_any_violation(
                lhs_rows, rhs_rows, agree, disagree
            ) == bool(hits)
            assert tree.any_violated(agree) == bool(hits)
            # The screen plus the exact empty-or-single-extension test
            # is what add_minimal_specializations inlines.
            extensions = rng.randrange(full + 1) & ~(query | (1 << rhs_attr))
            surviving = extensions
            for pos in _py.lattice_specialization_screen(
                lhs_rows, rhs_rows, query | extensions, 1 << rhs_attr
            ):
                extra = lhs_rows[pos] & ~query
                if not extra:
                    surviving = 0
                elif extra & (extra - 1) == 0:
                    surviving &= ~extra
            clone = pickle.loads(pickle.dumps(tree))
            assert clone.add_minimal_specializations(
                query, rhs_attr, extensions
            ) == [query | (1 << bit) for bit in iter_bits(surviving)]


# ----------------------------------------------------------------------
# Wider seeded campaign (nightly CI): -m fuzz
# ----------------------------------------------------------------------
@pytest.mark.fuzz
class TestLatticeFuzz:
    """Seeded op-sequence and cover campaigns; widen with
    ``LATTICE_FUZZ_SEEDS`` (the lattice analogue of
    ``KERNEL_FUZZ_SEEDS``)."""

    SEEDS = int(os.environ.get("LATTICE_FUZZ_SEEDS", 25))

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_random_op_sequences_identical(self, seed):
        rng = random.Random(seed)
        width = WIDTHS[seed % len(WIDTHS)]
        ops, probes = random_scenario(rng, width, 40 + (seed * 11) % 60)
        assert_backends_match_naive(width, ops, probes)

    @pytest.mark.parametrize("seed", range(SEEDS))
    def test_positive_covers_identical(self, seed):
        # Offset past the tier-1 campaign's seed range.
        instance = seeded_instance(100 + seed)
        assert_covers_identical(instance, null_equals_null=bool(seed % 2))
