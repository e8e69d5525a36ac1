"""Cross-algorithm equivalence: TANE and HyFD against the oracle.

These are the central correctness tests of the discovery layer: all
three algorithms must produce the *identical* complete set of minimal
FDs on arbitrary instances, under both NULL semantics and with LHS-size
pruning.  HyFD takes these small inputs through its all-pairs path, so
it also runs with its pair budget at 0 (``hyfd_budget_0``), which sends
every input through its sampler and validation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.random_tables import random_instance
from repro.discovery.bruteforce import BruteForceFD
from repro.discovery.hyfd import HyFD
from repro.discovery.hyfd import hyfd as hyfd_module
from repro.discovery.tane import Tane
from repro.io.datasets import address_example, planets_example
from tests.helpers import canon_fds


def hyfd_budget_0(**kwargs) -> HyFD:
    """A HyFD whose ``discover`` runs with ``ALL_PAIRS_BUDGET`` at 0."""
    algorithm = HyFD(**kwargs)
    shipped = algorithm.discover

    def discover(instance):
        saved = hyfd_module.ALL_PAIRS_BUDGET
        hyfd_module.ALL_PAIRS_BUDGET = 0
        try:
            return shipped(instance)
        finally:
            hyfd_module.ALL_PAIRS_BUDGET = saved

    algorithm.discover = discover
    return algorithm


ALGORITHMS = [Tane, HyFD, hyfd_budget_0]

instance_params = st.tuples(
    st.integers(min_value=0, max_value=1_000_000),  # seed
    st.integers(min_value=1, max_value=6),  # columns
    st.integers(min_value=0, max_value=22),  # rows
    st.sampled_from([1, 2, 3, 5]),  # domain
    st.sampled_from([0.0, 0.0, 0.3]),  # null rate
)


@pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
class TestEquivalence:
    @given(params=instance_params)
    @settings(max_examples=25)
    def test_matches_oracle(self, algorithm_cls, params):
        seed, cols, rows, domain, null_rate = params
        instance = random_instance(seed, cols, rows, domain, null_rate)
        expected = canon_fds(BruteForceFD().discover(instance))
        got = canon_fds(algorithm_cls().discover(instance))
        assert got == expected

    @given(params=instance_params)
    @settings(max_examples=15)
    def test_matches_oracle_null_not_equal(self, algorithm_cls, params):
        seed, cols, rows, domain, null_rate = params
        instance = random_instance(seed, cols, rows, domain, null_rate)
        expected = canon_fds(
            BruteForceFD(null_equals_null=False).discover(instance)
        )
        got = canon_fds(
            algorithm_cls(null_equals_null=False).discover(instance)
        )
        assert got == expected

    @given(
        params=instance_params,
        max_lhs=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=15)
    def test_max_lhs_pruning(self, algorithm_cls, params, max_lhs):
        seed, cols, rows, domain, null_rate = params
        instance = random_instance(seed, cols, rows, domain, null_rate)
        expected = {
            (lhs, attr)
            for lhs, attr in canon_fds(BruteForceFD().discover(instance))
            if lhs.bit_count() <= max_lhs
        }
        got = canon_fds(algorithm_cls(max_lhs_size=max_lhs).discover(instance))
        assert got == expected

    def test_address_example(self, algorithm_cls):
        expected = canon_fds(BruteForceFD().discover(address_example()))
        got = canon_fds(algorithm_cls().discover(address_example()))
        assert got == expected
        assert len(got) == 12

    def test_planets_example_finds_atmosphere_rings(self, algorithm_cls):
        planets = planets_example()
        fds = algorithm_cls().discover(planets)
        atmosphere = planets.relation.mask_of(["Atmosphere"])
        rings = planets.relation.mask_of(["Rings"])
        assert fds.rhs_of(atmosphere) & rings == rings

    def test_zero_rows(self, algorithm_cls):
        instance = random_instance(0, 4, 0)
        got = canon_fds(algorithm_cls().discover(instance))
        assert got == {(0, attr) for attr in range(4)}

    def test_one_row(self, algorithm_cls):
        instance = random_instance(0, 3, 1)
        got = canon_fds(algorithm_cls().discover(instance))
        assert got == {(0, attr) for attr in range(3)}

    def test_result_is_minimal_fdset(self, algorithm_cls):
        instance = random_instance(9, 5, 18, domain_size=2)
        fds = algorithm_cls().discover(instance)
        assert fds.is_minimal()


class _ListStrippedPartition:
    """The pre-CSR list-of-lists stripped partition (reference copy).

    Kept verbatim from the historical implementation so the CSR engine
    can be cross-checked against it on randomized instances.
    """

    def __init__(self, clusters, num_rows):
        self.clusters = [list(c) for c in clusters if len(c) > 1]
        self.num_rows = num_rows

    @classmethod
    def from_column(cls, values, null_equals_null=True):
        groups = {}
        null_group = []
        for row, value in enumerate(values):
            if value is None:
                if null_equals_null:
                    null_group.append(row)
            else:
                groups.setdefault(value, []).append(row)
        clusters = [cluster for cluster in groups.values() if len(cluster) > 1]
        if len(null_group) > 1:
            clusters.append(null_group)
        return cls(clusters, len(values))

    def as_probe(self):
        probe = [-1] * self.num_rows
        for cluster_id, cluster in enumerate(self.clusters):
            for row in cluster:
                probe[row] = cluster_id
        return probe

    def intersect(self, other):
        probe = other.as_probe()
        new_clusters = []
        for cluster in self.clusters:
            sub = {}
            for row in cluster:
                other_id = probe[row]
                if other_id >= 0:
                    sub.setdefault(other_id, []).append(row)
            for rows in sub.values():
                if len(rows) > 1:
                    new_clusters.append(rows)
        return _ListStrippedPartition(new_clusters, self.num_rows)


class TestCSRAgainstListPartition:
    """The CSR partition engine must reproduce the old list-based one."""

    @given(params=instance_params)
    @settings(max_examples=40)
    def test_from_column_identical(self, params):
        from repro.structures.partitions import StrippedPartition

        seed, cols, rows, domain, null_rate = params
        instance = random_instance(seed, cols, rows, domain, null_rate)
        for nen in (True, False):
            for attr in range(cols):
                csr = StrippedPartition.from_column(
                    instance.columns_data[attr], nen
                )
                reference = _ListStrippedPartition.from_column(
                    instance.columns_data[attr], nen
                )
                # identical clusters in identical order (not just as sets)
                assert csr.clusters == reference.clusters
                assert csr.as_probe() == reference.as_probe()

    @given(params=instance_params)
    @settings(max_examples=40)
    def test_intersection_chain_identical(self, params):
        from repro.structures.partitions import StrippedPartition

        seed, cols, rows, domain, null_rate = params
        instance = random_instance(seed, cols, rows, domain, null_rate)
        csr = StrippedPartition.from_column(instance.columns_data[0])
        reference = _ListStrippedPartition.from_column(instance.columns_data[0])
        for attr in range(1, cols):
            csr = csr.intersect(
                StrippedPartition.from_column(instance.columns_data[attr])
            )
            reference = reference.intersect(
                _ListStrippedPartition.from_column(instance.columns_data[attr])
            )
            assert csr.clusters == reference.clusters

    @given(params=instance_params)
    @settings(max_examples=25)
    def test_discovery_identical_on_randomized_instances(self, params):
        """End-to-end: HyFD on the CSR engine equals the brute-force oracle
        (bit-for-bit canonical FD sets) on the same randomized instances
        the partition cross-checks use."""
        seed, cols, rows, domain, null_rate = params
        instance = random_instance(seed, cols, rows, domain, null_rate)
        expected = canon_fds(BruteForceFD().discover(instance))
        assert canon_fds(hyfd_budget_0().discover(instance)) == expected


class TestDiscoverFrontDoor:
    def test_by_name(self):
        from repro.discovery.base import discover_fds

        instance = random_instance(1, 3, 10, domain_size=2)
        expected = canon_fds(BruteForceFD().discover(instance))
        for name in ("hyfd", "tane", "bruteforce"):
            assert canon_fds(discover_fds(instance, name)) == expected

    def test_unknown_name_raises(self):
        from repro.discovery.base import discover_fds

        with pytest.raises(ValueError, match="unknown FD algorithm"):
            discover_fds(random_instance(0, 2, 2), "nope")

    def test_instance_passthrough(self):
        from repro.discovery.base import discover_fds

        instance = random_instance(2, 3, 8, domain_size=2)
        algo = Tane()
        assert canon_fds(discover_fds(instance, algo)) == canon_fds(
            algo.discover(instance)
        )

    def test_invalid_max_lhs_rejected(self):
        with pytest.raises(ValueError):
            HyFD(max_lhs_size=-1)

    def test_invalid_switch_threshold_rejected(self):
        with pytest.raises(ValueError):
            HyFD(switch_threshold=1.5)
