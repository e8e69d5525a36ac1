"""End-to-end tests for the Normalize pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closure import optimized_closure
from repro.core.key_derivation import derive_keys
from repro.core.normalize import Normalizer, normalize
from repro.core.selection import ScriptedDecider
from repro.core.violations import find_violating_fds
from repro.datagen.random_tables import random_instance
from repro.discovery.bruteforce import BruteForceFD
from repro.model.instance import RelationInstance


def assert_target_conform(instance: RelationInstance, target: str = "bcnf"):
    """Re-discover FDs and assert no (decomposable) violations remain."""
    extended = optimized_closure(BruteForceFD().discover(instance))
    keys = derive_keys(extended, instance.full_mask())
    null_mask = 0
    for index in range(instance.arity):
        if any(v is None for v in instance.columns_data[index]):
            null_mask |= 1 << index
    violating = find_violating_fds(
        extended,
        keys,
        null_mask=null_mask,
        primary_key=instance.relation.primary_key_mask,
        foreign_keys=instance.relation.foreign_key_masks(),
        target=target,
    )
    assert violating == [], [
        v.to_str(instance.columns) for v in violating
    ]


class TestPaperExample:
    def test_address_normalization(self, address):
        result = normalize(address, algorithm="bruteforce")
        schemas = {
            frozenset(instance.columns)
            for instance in result.instances.values()
        }
        assert frozenset({"First", "Last", "Postcode"}) in schemas
        assert frozenset({"Postcode", "City", "Mayor"}) in schemas

    def test_address_value_reduction(self, address):
        result = normalize(address, algorithm="bruteforce")
        assert result.original_values == 30
        assert result.total_values == 27

    def test_address_keys(self, address):
        result = normalize(address, algorithm="bruteforce")
        keys = {
            frozenset(instance.relation.primary_key or ())
            for instance in result.instances.values()
        }
        assert frozenset({"First", "Last"}) in keys
        assert frozenset({"Postcode"}) in keys

    def test_address_foreign_key(self, address):
        result = normalize(address, algorithm="bruteforce")
        fks = [
            (fk.columns, fk.ref_relation)
            for instance in result.instances.values()
            for fk in instance.relation.foreign_keys
        ]
        assert len(fks) == 1
        assert fks[0][0] == ("Postcode",)

    def test_result_is_bcnf(self, address):
        result = normalize(address, algorithm="bruteforce")
        for instance in result.instances.values():
            assert_target_conform(instance)

    def test_decomposition_log(self, address):
        result = normalize(address, algorithm="bruteforce")
        assert len(result.steps) == 1
        step = result.steps[0]
        assert step.lhs == ("Postcode",)
        assert set(step.rhs) == {"City", "Mayor"}
        assert step.chosen_rank == 0

    def test_reconstruct_is_lossless(self, address):
        result = normalize(address, algorithm="bruteforce")
        rebuilt = result.reconstruct("address")
        assert rebuilt.columns == address.columns
        assert sorted(rebuilt.iter_rows()) == sorted(address.iter_rows())

    def test_university_gets_full_key_via_ducc(self, university):
        result = normalize(university, algorithm="bruteforce")
        # the original relation keeps its name; its key must be the
        # non-FD-derivable {name, label}
        root = result.instances["university"]
        assert frozenset(root.relation.primary_key or ()) == {"name", "label"}


class TestProperties:
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=16),
        st.sampled_from([2, 3]),
        st.sampled_from([0.0, 0.0, 0.25]),
    )
    @settings(max_examples=20)
    def test_always_terminates_in_bcnf(self, seed, cols, rows, domain, nulls):
        instance = random_instance(seed, cols, rows, domain, nulls)
        result = normalize(instance, algorithm="bruteforce")
        for out in result.instances.values():
            assert_target_conform(out)

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=16),
    )
    @settings(max_examples=20)
    def test_always_lossless(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=2)
        result = normalize(instance, algorithm="bruteforce")
        rebuilt = result.reconstruct("random")
        assert sorted(rebuilt.iter_rows()) == sorted(instance.iter_rows())

    @given(
        st.integers(min_value=0, max_value=50_000),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=2, max_value=14),
    )
    @settings(max_examples=15)
    def test_3nf_mode_terminates_and_preserves_data(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=2)
        result = normalize(instance, algorithm="bruteforce", target="3nf")
        rebuilt = result.reconstruct("random")
        assert sorted(rebuilt.iter_rows()) == sorted(instance.iter_rows())

    @given(st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=10)
    def test_deterministic(self, seed):
        instance = random_instance(seed, 4, 12, domain_size=2)
        first = normalize(instance, algorithm="bruteforce")
        second = normalize(instance, algorithm="bruteforce")
        assert {n: i.columns for n, i in first.instances.items()} == {
            n: i.columns for n, i in second.instances.items()
        }


class TestDeciderIntegration:
    def test_stop_decision_keeps_relation(self, address):
        decider = ScriptedDecider(fd_choices=[None])
        result = normalize(address, algorithm="bruteforce", decider=decider)
        assert len(result.instances) == 1
        assert result.stopped_relations == ["address"]

    def test_scripted_alternative_choice(self, address):
        # picking a lower-ranked violating FD still yields a valid result
        decider = ScriptedDecider(fd_choices=[1])
        result = normalize(address, algorithm="bruteforce", decider=decider)
        rebuilt = result.reconstruct("address")
        assert sorted(rebuilt.iter_rows()) == sorted(address.iter_rows())

    def test_no_primary_key_choice(self, address):
        decider = ScriptedDecider(key_choices=[None, None, None])
        result = normalize(address, algorithm="bruteforce", decider=decider)
        root = result.instances["address"]
        assert root.relation.primary_key is None


class TestInputs:
    def test_multiple_relations(self, address, university):
        result = normalize([address, university], algorithm="bruteforce")
        assert len(result.stats) == 2
        for out in result.instances.values():
            assert_target_conform(out)

    def test_duplicate_names_rejected(self, address):
        with pytest.raises(ValueError, match="unique"):
            normalize([address, address], algorithm="bruteforce")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no input"):
            normalize([], algorithm="bruteforce")

    def test_input_relation_not_mutated(self, address):
        normalize(address, algorithm="bruteforce")
        assert address.relation.primary_key is None
        assert address.relation.foreign_keys == []

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown FD algorithm"):
            Normalizer(algorithm="alchemy")


class TestStatsAndTimings:
    def test_stats_populated(self, address):
        result = normalize(address, algorithm="bruteforce")
        stat = result.stats[0]
        assert stat.relation == "address"
        assert stat.num_attributes == 5
        assert stat.num_records == 6
        assert stat.num_fds == 12
        assert stat.num_fd_keys >= 1
        assert stat.avg_rhs_after_closure >= stat.avg_rhs_before_closure

    def test_timings_cover_components(self, address):
        result = normalize(address, algorithm="bruteforce")
        for component in (
            "fd_discovery",
            "closure",
            "key_derivation",
            "violation_detection",
            "selection",
            "decomposition",
            "primary_key_selection",
        ):
            assert component in result.timings
            assert result.timings[component] >= 0.0

    def test_to_str_summary(self, address):
        result = normalize(address, algorithm="bruteforce")
        text = result.to_str()
        assert "Decomposition log" in text
        assert "values: 30 -> 27" in text


class TestStageSeam:
    """Each visit of a relation runs each stage once, and an input's
    Table 3 row comes from its first visit."""

    def test_keys_and_violations_once_per_visit(
        self, address, university, monkeypatch
    ):
        import repro.core.normalize as normalize_module

        calls = {"visits": 0, "derive_keys": 0, "find_violating_fds": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for name in ("derive_keys", "find_violating_fds"):
            monkeypatch.setattr(
                normalize_module,
                name,
                counted(name, getattr(normalize_module, name)),
            )
        monkeypatch.setattr(
            Normalizer,
            "_normalize_one",
            counted("visits", Normalizer._normalize_one),
        )
        result = normalize([address, university], algorithm="bruteforce")
        assert len(result.stats) == 2
        assert calls["visits"] > 2  # both inputs split at least once
        assert calls["derive_keys"] == calls["visits"]
        assert calls["find_violating_fds"] == calls["visits"]

    #: (attributes, records, FDs, FD-keys, avg |RHS| before and after
    #: the closure) of the E1 inputs, as the pipeline recorded them
    #: when every input's keys and violations were still derived up
    #: front.  TPC-H (2,533 keys) matches too but takes 5 s to check.
    E1_STATS = {
        "horse": (16, 300, 5095, 95, 3.043608, 4.956989),
        "plista": (18, 600, 2233, 1, 4.112339, 9.139963),
        "amalgam1": (18, 45, 1954, 151, 6.880282, 9.070423),
        "flight": (20, 700, 2901, 332, 3.817105, 11.034211),
        "musicbrainz": (32, 213, 9977, 68, 4.748691, 14.02713),
    }

    @pytest.mark.parametrize("name", sorted(E1_STATS))
    def test_e1_pipeline_stats(self, name):
        from repro.core.selection import CallbackDecider
        from repro.datagen import profiles
        from repro.datagen.musicbrainz import denormalized_musicbrainz

        make = {
            "horse": profiles.horse_like,
            "plista": profiles.plista_like,
            "amalgam1": profiles.amalgam_like,
            "flight": profiles.flight_like,
            "musicbrainz": denormalized_musicbrainz,  # the Figure-4 CSV
        }[name]
        # Stop at the first decision: the row is complete by then, and
        # scoring by length alone skips the distinct counts.
        stop = CallbackDecider(on_violating_fd=lambda instance, ranking: None)
        result = Normalizer(decider=stop, score_features=("length",)).run(
            make()
        )
        (stat,) = result.stats
        *counts, before, after = self.E1_STATS[name]
        assert [
            stat.num_attributes,
            stat.num_records,
            stat.num_fds,
            stat.num_fd_keys,
        ] == counts
        assert stat.avg_rhs_before_closure == pytest.approx(before, abs=1e-6)
        assert stat.avg_rhs_after_closure == pytest.approx(after, abs=1e-6)
        assert stat.key_derivation_seconds > 0.0
        assert stat.violation_detection_seconds > 0.0
