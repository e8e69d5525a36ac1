"""Semantic tests for the brute-force (FDep-style) discoverer.

BruteForceFD is the oracle for the other discoverers, so it is itself
tested directly against the FD *definition* (pairwise record checks).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.datagen.random_tables import random_instance
from repro.discovery.bruteforce import BruteForceFD, distinct_agree_sets
from repro.io.datasets import address_example
from repro.model.attributes import full_mask
from repro.model.instance import RelationInstance
from tests.helpers import canon_fds, fd_holds, is_minimal_fd


def with_columns(*columns):
    """A random table's relation over the given column data."""
    relation = random_instance(0, len(columns), 0).relation
    return RelationInstance(relation, list(columns))


class TestAgreeSets:
    def test_identical_rows_produce_no_agree_set(self):
        instance = with_columns([1, 1], [2, 2], [3, 3])
        assert distinct_agree_sets(instance) == []

    def test_agree_set_of_partial_match(self):
        instance = with_columns([1, 1], [2, 9], [3, 3])
        assert distinct_agree_sets(instance) == [0b101]

    def test_null_semantics(self):
        instance = with_columns([None, None], [1, 2])
        assert distinct_agree_sets(instance, null_equals_null=True) == [0b01]
        assert distinct_agree_sets(instance, null_equals_null=False) == [0]


class TestKnownResults:
    def test_address_example_contains_paper_fds(self, address):
        fds = BruteForceFD().discover(address)
        postcode = address.relation.mask_of(["Postcode"])
        city_mayor = address.relation.mask_of(["City", "Mayor"])
        assert fds.rhs_of(postcode) & city_mayor == city_mayor

    def test_address_example_counts_twelve_minimal_fds(self):
        # §1: "an FD discovery algorithm would find twelve valid FDs".
        fds = BruteForceFD().discover(address_example())
        assert fds.count_single_rhs() == 12

    def test_single_column_constant(self):
        instance = random_instance(0, 1, 3, domain_size=1)
        fds = BruteForceFD().discover(instance)
        assert canon_fds(fds) == {(0, 0)}

    def test_single_column_non_constant(self):
        instance = with_columns([1, 2, 2])
        fds = BruteForceFD().discover(instance)
        assert canon_fds(fds) == set()

    def test_empty_table_all_constant_fds(self):
        instance = random_instance(0, 3, 0)
        fds = BruteForceFD().discover(instance)
        assert canon_fds(fds) == {(0, 0), (0, 1), (0, 2)}


class TestSemantics:
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=20),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([0.0, 0.25]),
    )
    def test_every_reported_fd_is_valid_and_minimal(
        self, seed, cols, rows, domain, null_rate
    ):
        instance = random_instance(seed, cols, rows, domain, null_rate)
        fds = BruteForceFD().discover(instance)
        for lhs, attr in canon_fds(fds):
            assert is_minimal_fd(instance, lhs, attr)

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=15),
    )
    def test_completeness_every_valid_fd_is_covered(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=2)
        found = canon_fds(BruteForceFD().discover(instance))
        universe = full_mask(cols)
        # every valid FD must have a discovered generalization
        for attr in range(cols):
            for lhs in range(1 << cols):
                if lhs & (1 << attr) or lhs & ~universe:
                    continue
                if fd_holds(instance, lhs, 1 << attr):
                    assert any(
                        got_attr == attr and got_lhs & ~lhs == 0
                        for got_lhs, got_attr in found
                    )
