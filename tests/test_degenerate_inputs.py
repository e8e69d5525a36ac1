"""Degenerate inputs: every discoverer and the Normalizer must agree.

The robustness contract for boundary-shaped data — zero rows, one row,
one column, constant columns, all-NULL columns — is that all FD
discoverers return the *same* minimal FDs (bruteforce is the oracle),
key discovery stays consistent, and ``Normalizer.run`` completes
without crashing.  Impossible configurations raise
:class:`~repro.runtime.errors.InputError`.
"""

import pytest

from repro.core.normalize import Normalizer
from repro.discovery.bruteforce import BruteForceFD
from repro.discovery.hyfd import HyFD
from repro.discovery.tane import Tane
from repro.discovery.ucc import DuccUCC, NaiveUCC
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.runtime.errors import InputError
from tests.helpers import canon_fds

ALGORITHMS = [BruteForceFD, Tane, HyFD]


def instance_of(columns, rows, name="t"):
    return RelationInstance.from_rows(Relation(name, tuple(columns)), rows)


DEGENERATE_INSTANCES = {
    "empty": instance_of(("a", "b", "c"), []),
    "single_row": instance_of(("a", "b", "c"), [("1", "2", "3")]),
    "single_column": instance_of(("a",), [("1",), ("2",), ("1",)]),
    "constant_column": instance_of(
        ("a", "b"), [("x", "1"), ("x", "2"), ("x", "3")]
    ),
    "all_null_column": instance_of(
        ("a", "b"), [(None, "1"), (None, "2"), (None, "2")]
    ),
    "duplicate_rows": instance_of(
        ("a", "b"), [("1", "2"), ("1", "2"), ("1", "2")]
    ),
}


class TestDiscovererConsistency:
    @pytest.mark.parametrize("shape", sorted(DEGENERATE_INSTANCES))
    @pytest.mark.parametrize("algorithm", ALGORITHMS[1:], ids=lambda a: a.name)
    def test_matches_bruteforce_oracle(self, shape, algorithm):
        instance = DEGENERATE_INSTANCES[shape]
        expected = canon_fds(BruteForceFD().discover(instance))
        assert canon_fds(algorithm().discover(instance)) == expected

    @pytest.mark.parametrize("shape", sorted(DEGENERATE_INSTANCES))
    @pytest.mark.parametrize("algorithm", ALGORITHMS[1:], ids=lambda a: a.name)
    def test_null_inequality_semantics_agree(self, shape, algorithm):
        instance = DEGENERATE_INSTANCES[shape]
        expected = canon_fds(
            BruteForceFD(null_equals_null=False).discover(instance)
        )
        found = canon_fds(
            algorithm(null_equals_null=False).discover(instance)
        )
        assert found == expected

    def test_empty_relation_fds(self):
        # Zero rows: every FD holds vacuously, so the minimal cover is
        # exactly "∅ → everything".
        fds = HyFD().discover(DEGENERATE_INSTANCES["empty"])
        assert dict(fds.items()) == {0: 0b111}

    def test_single_row_fds(self):
        fds = HyFD().discover(DEGENERATE_INSTANCES["single_row"])
        assert dict(fds.items()) == {0: 0b111}

    def test_single_column_has_no_fds(self):
        fds = HyFD().discover(DEGENERATE_INSTANCES["single_column"])
        assert len(fds) == 0


class TestKeyDiscovererConsistency:
    @pytest.mark.parametrize("shape", sorted(DEGENERATE_INSTANCES))
    def test_ducc_matches_naive(self, shape):
        instance = DEGENERATE_INSTANCES[shape]
        ducc = sorted(DuccUCC().discover(instance))
        naive = sorted(NaiveUCC().discover(instance))
        assert ducc == naive

    def test_empty_relation_empty_key(self):
        # Zero rows: the empty attribute set is already unique.
        assert sorted(DuccUCC().discover(DEGENERATE_INSTANCES["empty"])) == [0]

    def test_duplicate_rows_have_no_key(self):
        uccs = DuccUCC().discover(DEGENERATE_INSTANCES["duplicate_rows"])
        assert list(uccs) == []


class TestNormalizerBoundaries:
    @pytest.mark.parametrize("shape", sorted(DEGENERATE_INSTANCES))
    def test_run_completes(self, shape):
        result = Normalizer(algorithm="hyfd").run(DEGENERATE_INSTANCES[shape])
        assert len(result.schema) >= 1

    def test_no_inputs_rejected(self):
        with pytest.raises(InputError):
            Normalizer().run([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError):
            Normalizer().run(
                [
                    instance_of(("a",), [("1",)], name="same"),
                    instance_of(("b",), [("2",)], name="same"),
                ]
            )

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InputError):
            Normalizer(algorithm="quantum")

    def test_input_error_is_a_value_error(self):
        # Pre-taxonomy callers caught ValueError; that must keep working.
        with pytest.raises(ValueError):
            Normalizer(algorithm="quantum")
