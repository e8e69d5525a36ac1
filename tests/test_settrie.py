"""Unit and property tests for the set-trie."""

from hypothesis import given
from hypothesis import strategies as st

from repro.model.attributes import bits_of
from repro.structures.settrie import SetTrie

masks = st.integers(min_value=0, max_value=2**10 - 1)
mask_lists = st.lists(masks, max_size=25)


class TestBasics:
    def test_insert_and_contains(self):
        trie = SetTrie()
        assert trie.insert(0b101)
        assert 0b101 in trie
        assert 0b100 not in trie

    def test_insert_duplicate_returns_false(self):
        trie = SetTrie()
        assert trie.insert(0b1)
        assert not trie.insert(0b1)
        assert len(trie) == 1

    def test_empty_set_membership(self):
        trie = SetTrie()
        trie.insert(0)
        assert 0 in trie
        assert trie.contains_subset_of(0)
        assert trie.contains_subset_of(0b111)

    def test_len_and_bool(self):
        trie = SetTrie()
        assert not trie
        trie.insert(0b1)
        trie.insert(0b10)
        assert len(trie) == 2
        assert trie

    def test_remove(self):
        trie = SetTrie()
        trie.insert(0b11)
        assert trie.remove(0b11)
        assert 0b11 not in trie
        assert not trie.remove(0b11)

    def test_remove_keeps_prefix_members(self):
        trie = SetTrie()
        trie.insert(0b1)
        trie.insert(0b11)
        trie.remove(0b11)
        assert 0b1 in trie
        assert len(trie) == 1

    def test_remove_keeps_extension_members(self):
        trie = SetTrie()
        trie.insert(0b1)
        trie.insert(0b11)
        trie.remove(0b1)
        assert 0b11 in trie


class TestSubsetQueries:
    def test_contains_subset_of(self):
        trie = SetTrie()
        trie.insert(0b011)
        assert trie.contains_subset_of(0b111)
        assert trie.contains_subset_of(0b011)
        assert not trie.contains_subset_of(0b101)

    def test_contains_proper_subset_of(self):
        trie = SetTrie()
        trie.insert(0b011)
        assert not trie.contains_proper_subset_of(0b011)
        assert trie.contains_proper_subset_of(0b111)

    def test_iter_subsets_of(self):
        trie = SetTrie()
        for mask in (0b001, 0b010, 0b011, 0b100):
            trie.insert(mask)
        assert set(trie.iter_subsets_of(0b011)) == {0b001, 0b010, 0b011}

    def test_contains_superset_of(self):
        trie = SetTrie()
        trie.insert(0b110)
        assert trie.contains_superset_of(0b100)
        assert trie.contains_superset_of(0b010)
        assert trie.contains_superset_of(0b110)
        assert not trie.contains_superset_of(0b001)

    def test_iter_all(self):
        trie = SetTrie()
        for mask in (0b1, 0b10, 0b11):
            trie.insert(mask)
        assert set(trie.iter_all()) == {0b1, 0b10, 0b11}


class TestProperties:
    @given(mask_lists, masks)
    def test_contains_subset_matches_bruteforce(self, stored, query):
        trie = SetTrie()
        for mask in stored:
            trie.insert(mask)
        expected = any(mask & ~query == 0 for mask in stored)
        assert trie.contains_subset_of(query) == expected
        proper = any(mask & ~query == 0 and mask != query for mask in stored)
        assert trie.contains_proper_subset_of(query) == proper

    @given(mask_lists, masks)
    def test_contains_superset_matches_bruteforce(self, stored, query):
        trie = SetTrie()
        for mask in stored:
            trie.insert(mask)
        expected = any(query & ~mask == 0 for mask in stored)
        assert trie.contains_superset_of(query) == expected

    @given(mask_lists, masks)
    def test_iter_subsets_matches_bruteforce(self, stored, query):
        trie = SetTrie()
        for mask in stored:
            trie.insert(mask)
        expected = {mask for mask in stored if mask & ~query == 0}
        assert list(trie.iter_subsets_of(query)) == sorted(expected, key=bits_of)

    @given(mask_lists)
    def test_insert_then_iter_all(self, stored):
        trie = SetTrie()
        for mask in stored:
            trie.insert(mask)
        assert list(trie.iter_all()) == sorted(set(stored), key=bits_of)
        assert len(trie) == len(set(stored))

    @given(mask_lists, mask_lists)
    def test_remove_leaves_consistent_state(self, stored, removed):
        trie = SetTrie()
        for mask in stored:
            trie.insert(mask)
        for mask in removed:
            trie.remove(mask)
        expected = set(stored) - set(removed)
        assert list(trie.iter_all()) == sorted(expected, key=bits_of)
        for mask in expected:
            assert mask in trie
