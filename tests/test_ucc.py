"""Tests for UCC (key candidate) discovery: DUCC vs. the naive oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.random_tables import random_instance
from repro.discovery.ucc import DuccUCC, NaiveUCC, discover_uccs
from repro.io.datasets import denormalized_university
from repro.model.attributes import iter_bits
from repro.model.instance import RelationInstance


def is_unique_by_definition(instance, mask):
    seen = set()
    columns = [instance.columns_data[i] for i in iter_bits(mask)]
    for row in zip(*columns) if columns else [() for _ in range(instance.num_rows)]:
        if row in seen:
            return False
        seen.add(row)
    return True


class TestNaiveUCC:
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=25)
    def test_results_are_unique_and_minimal(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=3)
        for ucc in NaiveUCC().discover(instance):
            assert is_unique_by_definition(instance, ucc)
            for attr in iter_bits(ucc):
                assert not is_unique_by_definition(instance, ucc & ~(1 << attr))

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=15),
    )
    @settings(max_examples=20)
    def test_completeness(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=3)
        found = NaiveUCC().discover(instance)
        for mask in range(1, 1 << cols):
            if is_unique_by_definition(instance, mask):
                assert any(ucc & ~mask == 0 for ucc in found)

    def test_single_row_yields_empty_ucc(self):
        instance = random_instance(0, 3, 1)
        assert NaiveUCC().discover(instance) == [0]

    def test_no_key_possible(self):
        relation = random_instance(0, 2, 0).relation
        instance = RelationInstance(relation, [[1, 1], [2, 2]])
        assert NaiveUCC().discover(instance) == []


class TestDuccUCC:
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=22),
        st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=30)
    def test_matches_naive(self, seed, cols, rows, domain):
        instance = random_instance(seed, cols, rows, domain)
        assert sorted(DuccUCC().discover(instance)) == sorted(
            NaiveUCC().discover(instance)
        )

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=15)
    def test_null_semantics_match_naive(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=2, null_rate=0.3)
        assert DuccUCC(null_equals_null=False).discover(instance) == (
            NaiveUCC(null_equals_null=False).discover(instance)
        )

    def test_edges(self):
        assert DuccUCC().discover(random_instance(0, 3, 0)) == [0]
        assert DuccUCC().discover(random_instance(0, 3, 1)) == [0]
        relation = random_instance(0, 2, 0).relation
        duplicate = RelationInstance(relation, [[1, 1], [2, 2]])
        assert DuccUCC().discover(duplicate) == []

    def test_null_semantics_respected(self):
        relation = random_instance(0, 1, 0).relation
        instance = RelationInstance(relation, [[None, None]])
        assert DuccUCC(null_equals_null=True).discover(instance) == []
        assert DuccUCC(null_equals_null=False).discover(instance) == [0b1]

    def test_university_join_key(self):
        """The §5 example: {name, label} is a key but no minimal-FD LHS."""
        university = denormalized_university()
        uccs = DuccUCC().discover(university)
        name_label = university.relation.mask_of(["name", "label"])
        assert name_label in uccs


class TestFrontDoor:
    def test_by_name(self):
        instance = random_instance(3, 3, 10)
        assert sorted(discover_uccs(instance, "ducc")) == sorted(
            discover_uccs(instance, "naive")
        )

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown UCC algorithm"):
            discover_uccs(random_instance(0, 2, 2), "nope")
