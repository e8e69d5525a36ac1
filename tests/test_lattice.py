"""Unit and property tests for the generic minimal-boundary lattice search."""

from hypothesis import given
from hypothesis import strategies as st

from repro.discovery.lattice import find_minimal_satisfying
from repro.model.attributes import full_mask


def monotone_predicate_from_seeds(seeds):
    """Upward-monotone predicate: satisfied iff some seed is contained."""

    def predicate(mask):
        return any(seed & ~mask == 0 for seed in seeds)

    return predicate


def reference_minimal(seeds):
    minimal = []
    for seed in sorted(set(seeds), key=lambda m: m.bit_count()):
        if not any(kept & ~seed == 0 for kept in minimal):
            minimal.append(seed)
    return sorted(minimal)


class TestBoundaries:
    def test_empty_set_satisfies(self):
        result = find_minimal_satisfying(lambda mask: True, 0b111)
        assert result == [0]

    def test_nothing_satisfies(self):
        result = find_minimal_satisfying(lambda mask: False, 0b111)
        assert result == []

    def test_single_seed(self):
        predicate = monotone_predicate_from_seeds([0b011])
        assert find_minimal_satisfying(predicate, 0b111) == [0b011]

    def test_full_universe_only(self):
        predicate = monotone_predicate_from_seeds([0b111])
        assert find_minimal_satisfying(predicate, 0b111) == [0b111]


class TestProperties:
    @given(
        st.lists(
            st.integers(min_value=1, max_value=2**8 - 1),
            min_size=1,
            max_size=6,
        )
    )
    def test_recovers_exactly_the_minimal_seeds(self, seeds):
        universe = full_mask(8)
        predicate = monotone_predicate_from_seeds(seeds)
        result = find_minimal_satisfying(predicate, universe)
        assert result == reference_minimal(seeds)

    def test_predicate_evaluation_count_is_bounded(self):
        # The classifier memoizes: no mask is evaluated twice.
        calls = []

        def predicate(mask):
            calls.append(mask)
            return mask & 0b11 == 0b11

        find_minimal_satisfying(predicate, full_mask(6))
        assert len(calls) == len(set(calls))
