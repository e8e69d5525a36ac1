"""Tests for the three closure algorithms (paper §4, Algorithms 1–3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closure import (
    calculate_closure,
    improved_closure,
    naive_closure,
    optimized_closure,
)
from repro.datagen.random_tables import random_instance
from repro.discovery.bruteforce import BruteForceFD
from repro.model.fd import FD, FDSet
from tests.helpers import semantic_closure_of_set


def fdset(num_attrs, *pairs):
    return FDSet(num_attrs, [FD(lhs, rhs) for lhs, rhs in pairs])


def closure_by_fixpoint(fds: FDSet, lhs: int) -> int:
    """Reference attribute closure via naive fixpoint iteration."""
    closure = lhs
    changed = True
    while changed:
        changed = False
        for other_lhs, other_rhs in fds.items():
            if other_lhs & ~closure == 0 and other_rhs & ~closure:
                closure |= other_rhs
                changed = True
    return closure


class TestPaperExample:
    def test_transitivity_example(self):
        # §2: X={A,B}, F={A->C, C->D} gives X+ = {A,B,C,D}; as an FD set
        # with AB->C implied we use the paper's §4 running FDs.
        fds = fdset(4, (0b0001, 0b0100), (0b0100, 0b1000))  # A->C, C->D
        extended = naive_closure(fds)
        assert extended.rhs_of(0b0001) == 0b1100  # A -> C,D

    def test_postcode_example(self):
        # Postcode->City, City->Mayor  =>  Postcode->City,Mayor.
        # This two-FD set is NOT complete (a complete minimal set on
        # real data would contain more FDs), so only the general
        # algorithms 1 and 2 are applicable here.
        fds = fdset(3, (0b001, 0b010), (0b010, 0b100))
        for algorithm in (naive_closure, improved_closure):
            extended = algorithm(fds.copy())
            assert extended.rhs_of(0b001) == 0b110

    def test_optimized_requires_complete_input(self):
        # On the same non-complete set, Algorithm 3's single LHS-subset
        # pass cannot reach Mayor from Postcode — by design (Lemma 1
        # presumes completeness).  This documents the contract.
        fds = fdset(3, (0b001, 0b010), (0b010, 0b100))
        assert optimized_closure(fds).rhs_of(0b001) == 0b010


class TestEquivalenceOnDiscoveredSets:
    """On complete minimal FD sets all three algorithms must agree."""

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=18),
        st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=25)
    def test_all_three_agree(self, seed, cols, rows, domain):
        instance = random_instance(seed, cols, rows, domain)
        fds = BruteForceFD().discover(instance)
        results = [
            dict(naive_closure(fds.copy()).items()),
            dict(improved_closure(fds.copy()).items()),
            dict(optimized_closure(fds.copy()).items()),
        ]
        assert results[0] == results[1] == results[2]

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=18),
    )
    @settings(max_examples=25)
    def test_extension_matches_semantic_closure(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=2)
        fds = BruteForceFD().discover(instance)
        extended = optimized_closure(fds)
        for lhs, rhs in extended.items():
            assert lhs | rhs == semantic_closure_of_set(instance, lhs)

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=18),
    )
    @settings(max_examples=15)
    def test_matches_fixpoint_reference(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=2)
        fds = BruteForceFD().discover(instance)
        extended = optimized_closure(fds)
        for lhs, rhs in extended.items():
            assert lhs | rhs == closure_by_fixpoint(fds, lhs)


class TestImprovedOnArbitrarySets:
    """Algorithm 2 must also work on NON-complete FD sets."""

    def test_chain_requiring_multiple_passes(self):
        # A->B, {A,B}->C, {A,C}->D: optimized (subset of LHS only) would
        # miss D for A because {A,B} is not a subset of {A}.
        fds = fdset(4, (0b0001, 0b0010), (0b0011, 0b0100), (0b0101, 0b1000))
        improved = improved_closure(fds.copy())
        assert improved.rhs_of(0b0001) == 0b1110
        naive = naive_closure(fds.copy())
        assert dict(naive.items()) == dict(improved.items())

    def test_improved_equals_naive_on_random_subsets(self):
        import random

        rng = random.Random(4)
        for _ in range(20):
            num_attrs = rng.randint(2, 6)
            pairs = []
            for _ in range(rng.randint(1, 6)):
                lhs = rng.randrange(1, 1 << num_attrs)
                rhs = rng.randrange(1, 1 << num_attrs) & ~lhs
                if rhs:
                    pairs.append((lhs, rhs))
            if not pairs:
                continue
            fds = fdset(num_attrs, *pairs)
            assert dict(naive_closure(fds.copy()).items()) == dict(
                improved_closure(fds.copy()).items()
            )


class TestPrunedInput:
    """§4.3: with all FDs above a max LHS size pruned, Algorithm 3 still
    closes the remaining FDs correctly."""

    @given(
        st.integers(min_value=0, max_value=50_000),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=15)
    def test_closure_correct_on_pruned_sets(self, seed, max_lhs):
        instance = random_instance(seed, 5, 15, domain_size=2)
        full = BruteForceFD().discover(instance)
        pruned = FDSet(5)
        for lhs, rhs in full.items():
            if lhs.bit_count() <= max_lhs:
                pruned.add_masks(lhs, rhs)
        extended = optimized_closure(pruned)
        for lhs, rhs in extended.items():
            assert lhs | rhs == semantic_closure_of_set(instance, lhs)


class TestFrontDoor:
    def test_calculate_closure_dispatch(self):
        fds = fdset(3, (0b001, 0b010), (0b010, 0b100))
        for name in ("naive", "improved"):
            assert calculate_closure(fds.copy(), name).rhs_of(0b001) == 0b110
        # optimized dispatches too; exact extension needs complete input
        assert calculate_closure(fds.copy(), "optimized").rhs_of(0b001) >= 0b010

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="unknown closure algorithm"):
            calculate_closure(fdset(2, (0b1, 0b10)), "quantum")

    def test_input_not_mutated(self):
        fds = fdset(3, (0b001, 0b010), (0b010, 0b100))
        optimized_closure(fds)
        assert fds.rhs_of(0b001) == 0b010
