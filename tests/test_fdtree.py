"""Unit tests for the FD-tree (HyFD's positive cover).

The differential suite against a naive dict oracle, under both kernel
backends, lives in ``test_fdtree_differential.py``.
"""

from repro.structures.fdtree import FDTree


class TestAddRemove:
    def test_add_and_contains(self):
        tree = FDTree(4)
        tree.add(0b0011, 0b0100)
        assert tree.contains_fd(0b0011, 2)
        assert not tree.contains_fd(0b0011, 3)
        assert not tree.contains_fd(0b0001, 2)

    def test_add_aggregates_rhs(self):
        tree = FDTree(4)
        tree.add(0b1, 0b0100)
        tree.add(0b1, 0b1000)
        assert tree.contains_fd(0b1, 2)
        assert tree.contains_fd(0b1, 3)

    def test_add_empty_rhs_is_noop(self):
        tree = FDTree(3)
        tree.add(0b1, 0)
        assert tree.count_fds() == 0

    def test_remove(self):
        tree = FDTree(4)
        tree.add(0b0011, 0b1100)
        tree.remove(0b0011, 0b0100)
        assert not tree.contains_fd(0b0011, 2)
        assert tree.contains_fd(0b0011, 3)

    def test_remove_missing_path_is_noop(self):
        tree = FDTree(4)
        tree.remove(0b0110, 0b0001)  # nothing stored
        assert tree.count_fds() == 0

    def test_root_fd(self):
        tree = FDTree(3)
        tree.add(0, 0b111)
        assert tree.contains_fd(0, 0)
        assert tree.count_fds() == 3


class TestGeneralizationQueries:
    def test_exact_match_counts(self):
        tree = FDTree(4)
        tree.add(0b0011, 0b0100)
        assert tree.contains_fd_or_generalization(0b0011, 2)

    def test_proper_generalization(self):
        tree = FDTree(4)
        tree.add(0b0001, 0b0100)
        assert tree.contains_fd_or_generalization(0b0011, 2)
        assert not tree.contains_fd_or_generalization(0b0010, 2)

    def test_rhs_must_match(self):
        tree = FDTree(4)
        tree.add(0b0001, 0b0100)
        assert not tree.contains_fd_or_generalization(0b0011, 3)

    def test_root_generalizes_everything(self):
        tree = FDTree(3)
        tree.add(0, 0b100)
        assert tree.contains_fd_or_generalization(0b011, 2)


class TestCollectViolated:
    def test_basic_violation(self):
        tree = FDTree(3)
        # {A} -> C ; a pair agreeing exactly on {A, B} disagrees on C.
        tree.add(0b001, 0b100)
        violated = tree.collect_violated(0b011)
        assert violated == [(0b001, 0b100)]

    def test_lhs_outside_agree_set_not_violated(self):
        tree = FDTree(3)
        tree.add(0b010, 0b100)  # {B} -> C
        assert tree.collect_violated(0b001) == []

    def test_rhs_inside_agree_set_not_violated(self):
        tree = FDTree(3)
        tree.add(0b001, 0b100)  # {A} -> C
        assert tree.collect_violated(0b101) == []

    def test_multiple_hits(self):
        tree = FDTree(4)
        tree.add(0, 0b1000)
        tree.add(0b0001, 0b0100)
        violated = dict(tree.collect_violated(0b0011))
        assert violated == {0: 0b1000, 0b0001: 0b0100}


class TestIteration:
    def test_iter_level(self):
        tree = FDTree(4)
        tree.add(0, 0b1000)
        tree.add(0b0001, 0b0100)
        tree.add(0b0011, 0b1000)
        assert list(tree.iter_level(0)) == [(0, 0b1000)]
        assert list(tree.iter_level(1)) == [(0b0001, 0b0100)]
        assert list(tree.iter_level(2)) == [(0b0011, 0b1000)]

    def test_iter_all_and_count(self):
        tree = FDTree(4)
        tree.add(0b0001, 0b1100)
        tree.add(0b0010, 0b0001)
        assert dict(tree.iter_all()) == {0b0001: 0b1100, 0b0010: 0b0001}
        assert tree.count_fds() == 3

    def test_depth(self):
        tree = FDTree(5)
        assert tree.depth() == 0
        tree.add(0b10101, 0b01000)
        assert tree.depth() == 3

    def test_removed_fds_not_iterated(self):
        tree = FDTree(3)
        tree.add(0b001, 0b110)
        tree.remove(0b001, 0b110)
        assert list(tree.iter_all()) == []

    def test_iter_all_is_path_ordered(self):
        tree = FDTree(4)
        tree.add(0b0110, 0b0001)  # {B,C}
        tree.add(0b0010, 0b0001)  # {B}
        tree.add(0b1001, 0b0010)  # {A,D}
        tree.add(0b0001, 0b0010)  # {A}
        # Ascending attribute-path order: a prefix sorts before its
        # extensions, independent of insertion order or level.
        assert [lhs for lhs, _ in tree.iter_all()] == [
            0b0001,  # (0,)
            0b1001,  # (0, 3)
            0b0010,  # (1,)
            0b0110,  # (1, 2)
        ]


class TestBatchEntryPoints:
    def test_contains_generalization_batch(self):
        tree = FDTree(4)
        tree.add(0b0001, 0b0100)
        pairs = [(0b0011, 2), (0b0011, 3), (0b0010, 2)]
        assert tree.contains_generalization_batch(pairs) == [
            True, False, False,
        ]

    def test_collect_violated_batch(self):
        tree = FDTree(3)
        tree.add(0b001, 0b100)
        assert tree.collect_violated_batch([0b011, 0b101]) == [
            [(0b001, 0b100)], [],
        ]

    def test_any_violated_batch(self):
        tree = FDTree(3)
        tree.add(0b001, 0b100)
        assert tree.any_violated_batch([0b011, 0b101, 0b111]) == [
            True, False, False,
        ]

    def test_add_minimal_specializations(self):
        tree = FDTree(4)
        tree.add(0b0001, 0b0100)  # {A} -> C already generalizes {A,D} -> C
        added = tree.add_minimal_specializations(0b1000, 2, 0b0011)
        assert added == [0b1010]  # {B,D} added; {A,D} screened out
        assert tree.contains_fd(0b1010, 2)
        assert not tree.contains_fd(0b1001, 2)

    def test_prune_preserves_content(self):
        tree = FDTree(4)
        tree.add(0b0011, 0b1100)
        tree.add(0b0100, 0b0001)
        tree.remove(0b0011, 0b1100)
        tree.prune()
        assert dict(tree.iter_all()) == {0b0100: 0b0001}
        assert tree.depth() == 1
