"""Tests for approximate FDs (g3 error) and exception reporting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.random_tables import random_instance
from repro.discovery.bruteforce import BruteForceFD
from repro.extensions.approximate import (
    discover_afds,
    g3_error,
    violating_rows,
)
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from tests.helpers import canon_fds


def postcode_with_exception():
    """Postcode -> City holds except for one shared-postcode exception."""
    relation = Relation("addr", ("Postcode", "City"))
    rows = [
        ("14482", "Potsdam"),
        ("14482", "Potsdam"),
        ("14482", "Potsdam"),
        ("60329", "Frankfurt"),
        ("60329", "Frankfurt"),
        ("60329", "Offenbach"),  # the exception
    ]
    return RelationInstance.from_rows(relation, rows)


class TestG3Error:
    def test_exact_fd_has_zero_error(self):
        instance = postcode_with_exception()
        # City -> City is trivial; use a constant column instead
        assert g3_error(instance, 0b01, 0) == 0.0  # Postcode -> Postcode? no:
        # lhs={Postcode}, rhs_attr=0 is Postcode itself: trivially 0.

    def test_exception_counted(self):
        instance = postcode_with_exception()
        # Postcode -> City: one of six rows must go
        assert g3_error(instance, 0b01, 1) == pytest.approx(1 / 6)

    def test_empty_relation(self):
        instance = RelationInstance(Relation("t", ("a", "b")), [[], []])
        assert g3_error(instance, 0b01, 1) == 0.0

    def test_error_decreases_with_larger_lhs(self):
        instance = random_instance(7, 4, 30, domain_size=2)
        for rhs_attr in range(4):
            small = g3_error(instance, 0b0001 & ~(1 << rhs_attr), rhs_attr)
            large = g3_error(instance, 0b0111 & ~(1 << rhs_attr), rhs_attr)
            assert large <= small

    @given(
        st.integers(min_value=0, max_value=50_000),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=20)
    def test_zero_error_iff_exact_fd(self, seed, cols, rows):
        from tests.helpers import fd_holds

        instance = random_instance(seed, cols, rows, domain_size=2)
        for lhs in range(1 << cols):
            for rhs_attr in range(cols):
                if lhs & (1 << rhs_attr):
                    continue
                exact = fd_holds(instance, lhs, 1 << rhs_attr)
                assert (g3_error(instance, lhs, rhs_attr) == 0.0) == exact


class TestDiscoverAfds:
    def test_zero_threshold_matches_exact_discovery(self):
        instance = random_instance(11, 4, 15, domain_size=2)
        afds = discover_afds(instance, max_error=0.0)
        got = {(afd.lhs, afd.rhs_attr) for afd in afds}
        assert got == canon_fds(BruteForceFD().discover(instance))

    def test_finds_postcode_city_with_tolerance(self):
        instance = postcode_with_exception()
        afds = discover_afds(instance, max_error=0.2)
        assert any(afd.lhs == 0b01 and afd.rhs_attr == 1 for afd in afds)

    def test_threshold_validation(self):
        instance = postcode_with_exception()
        with pytest.raises(ValueError):
            discover_afds(instance, max_error=1.0)
        with pytest.raises(ValueError):
            discover_afds(instance, max_error=-0.1)

    def test_results_are_minimal(self):
        instance = random_instance(3, 4, 25, domain_size=2)
        afds = discover_afds(instance, max_error=0.1)
        by_rhs: dict[int, list[int]] = {}
        for afd in afds:
            by_rhs.setdefault(afd.rhs_attr, []).append(afd.lhs)
        for lhss in by_rhs.values():
            for a in lhss:
                for b in lhss:
                    assert a == b or (a & ~b and b & ~a)

    def test_all_results_within_threshold(self):
        instance = random_instance(9, 4, 25, domain_size=2)
        for afd in discover_afds(instance, max_error=0.15):
            assert afd.error <= 0.15

    def test_max_lhs_size(self):
        instance = random_instance(5, 5, 20, domain_size=2)
        for afd in discover_afds(instance, max_error=0.1, max_lhs_size=2):
            assert afd.lhs.bit_count() <= 2

    def test_to_str(self):
        instance = postcode_with_exception()
        afds = discover_afds(instance, max_error=0.2)
        rendered = [afd.to_str(instance.columns) for afd in afds]
        assert any("Postcode -> City" in line for line in rendered)


class TestViolatingRows:
    def test_exception_row_identified(self):
        instance = postcode_with_exception()
        assert violating_rows(instance, 0b01, 1) == [5]

    def test_removal_makes_fd_exact(self):
        from tests.helpers import fd_holds

        instance = random_instance(13, 3, 30, domain_size=2)
        for rhs_attr in range(3):
            lhs = 0b111 & ~(1 << rhs_attr) & 0b001
            if lhs == 0:
                continue
            exceptions = set(violating_rows(instance, lhs, rhs_attr))
            kept = [
                row
                for row in range(instance.num_rows)
                if row not in exceptions
            ]
            cleaned = RelationInstance.from_rows(
                instance.relation, [instance.row(i) for i in kept]
            )
            assert fd_holds(cleaned, lhs, 1 << rhs_attr)

    def test_count_matches_g3(self):
        instance = random_instance(17, 3, 40, domain_size=2)
        for rhs_attr in range(3):
            for lhs in (0b001, 0b010, 0b011):
                lhs &= ~(1 << rhs_attr)
                if not lhs:
                    continue
                expected = g3_error(instance, lhs, rhs_attr) * instance.num_rows
                assert len(violating_rows(instance, lhs, rhs_attr)) == round(
                    expected
                )
