"""Seeded verification campaigns as a pytest suite.

The unmarked tests are the fast subset that runs in tier-1; the
``@pytest.mark.fuzz`` campaigns are the larger matrices CI runs on a
schedule (deselect locally with ``-m "not fuzz"``).
"""

import pytest

from repro.datagen.random_tables import random_instance
from repro.verification.differential import canonical_fds, run_fd_differential
from repro.verification.runner import verify_seeds


class TestFastSubset:
    def test_first_seeds_pass_every_check(self):
        report = verify_seeds(6)
        assert report.ok, report.to_str()
        assert report.checks_run >= 6 * 10

    def test_report_counts_dependency_losses(self):
        report = verify_seeds(4)
        assert report.dependency_losses >= 0
        assert "accounting only" in report.to_str()


class TestNullSemanticsParity:
    """Satellite: on NULL-heavy instances, each NULL semantics must give
    one answer unanimously across TANE, HyFD, and BruteForce."""

    @pytest.mark.parametrize("null_rate", [0.3, 0.6])
    @pytest.mark.parametrize("nen", [True, False])
    def test_all_discoverers_agree_on_nulled_instances(self, null_rate, nen):
        for seed in range(5):
            instance = random_instance(
                seed, 5, 18, domain_size=2, null_rate=null_rate
            )
            disagreements = run_fd_differential(
                instance, null_equals_null=nen
            )
            assert not disagreements, "\n".join(
                d.describe(instance.columns) for d in disagreements
            )

    def test_semantics_actually_differ_somewhere(self):
        """Sanity: the two NULL semantics are not accidentally the same
        code path — some nulled instance must produce different FD sets."""
        from repro.discovery.bruteforce import BruteForceFD

        for seed in range(30):
            instance = random_instance(seed, 4, 12, domain_size=2, null_rate=0.4)
            equal = canonical_fds(BruteForceFD().discover(instance))
            unequal = canonical_fds(
                BruteForceFD(null_equals_null=False).discover(instance)
            )
            if equal != unequal:
                return
        raise AssertionError("NULL semantics never diverged across 30 seeds")


@pytest.mark.fuzz
class TestFuzzCampaigns:
    def test_medium_seed_matrix(self):
        report = verify_seeds(range(100, 140))
        assert report.ok, report.to_str()

    def test_wider_tables(self):
        report = verify_seeds(range(200, 215), num_rows=40, max_columns=7)
        assert report.ok, report.to_str()
