"""Tests for HyUCC (hybrid unique column combination discovery)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.random_tables import random_instance
from repro.discovery.hyucc import HyUCC
from repro.discovery.ucc import NaiveUCC, discover_uccs
from repro.model.instance import RelationInstance


class TestEquivalence:
    @given(
        st.integers(min_value=0, max_value=1_000_000),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=25),
        st.sampled_from([1, 2, 3, 5]),
        st.sampled_from([0.0, 0.0, 0.3]),
    )
    @settings(max_examples=30)
    def test_matches_naive(self, seed, cols, rows, domain, null_rate):
        instance = random_instance(seed, cols, rows, domain, null_rate)
        assert sorted(HyUCC().discover(instance)) == sorted(
            NaiveUCC().discover(instance)
        )

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=15)
    def test_null_semantics(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=2, null_rate=0.3)
        assert sorted(HyUCC(null_equals_null=False).discover(instance)) == sorted(
            NaiveUCC(null_equals_null=False).discover(instance)
        )

    def test_zero_switch_threshold(self):
        instance = random_instance(5, 5, 20, domain_size=2)
        assert sorted(HyUCC(switch_threshold=0.0).discover(instance)) == sorted(
            NaiveUCC().discover(instance)
        )


class TestEdges:
    def test_empty_relation(self):
        instance = random_instance(0, 3, 0)
        assert HyUCC().discover(instance) == [0]

    def test_single_row(self):
        instance = random_instance(0, 3, 1)
        assert HyUCC().discover(instance) == [0]

    def test_no_key_possible(self):
        relation = random_instance(0, 2, 0).relation
        instance = RelationInstance(relation, [[1, 1], [2, 2]])
        assert HyUCC().discover(instance) == []

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            HyUCC(switch_threshold=2.0)

    def test_front_door(self):
        instance = random_instance(3, 4, 12, domain_size=3)
        assert sorted(discover_uccs(instance, "hyucc")) == sorted(
            discover_uccs(instance, "naive")
        )

    def test_profile_dataset(self):
        from repro.datagen.profiles import plista_like

        instance = plista_like(num_rows=150)
        uccs = HyUCC().discover(instance)
        event_id = 1 << instance.relation.column_index("event_id")
        assert event_id in uccs
