"""Parallel runs must be byte-identical to serial runs.

The deterministic shard/merge protocol (docs/PARALLEL.md) promises that
any worker count produces exactly the serial FD covers, key sets,
rankings, and DDL.  These tests force real pool dispatch by dropping
the cost-model threshold to zero, then compare against serial ground
truth across seeds — including under fault injection (a simulated kill
mid-shard followed by checkpoint/resume) and budget salvage.
"""

import pytest

import repro.parallel.pool as pool_mod
from repro.core.normalize import Normalizer, normalize
from repro.discovery.bruteforce import BruteForceFD
from repro.discovery.hyfd import HyFD
from repro.discovery.hyfd import hyfd as hyfd_module
from repro.io.ddl import schema_to_ddl
from repro.parallel import shutdown_pool
from repro.runtime.checkpointing import load_state
from repro.runtime.faults import FaultPlan, SimulatedKill
from repro.verification.planted import plant_instance

SEEDS = (1, 3, 7, 11)


@pytest.fixture(autouse=True)
def _force_dispatch(monkeypatch):
    # These small relations reach HyFD's validation (and so the pool)
    # only with the pair budget at 0.
    monkeypatch.setattr(hyfd_module, "ALL_PAIRS_BUDGET", 0)
    monkeypatch.setattr(pool_mod, "SERIAL_THRESHOLD", 0)
    yield
    shutdown_pool()


def _planted(seed, columns=6, rows=60):
    return plant_instance(seed, num_columns=columns, num_rows=rows).instance


class TestDiscoveryDeterminism:
    """Serial and pooled runs share each site's per-candidate code, so
    the brute-force oracle checks that code independently."""

    def test_hyfd_parallel_matches_serial(self):
        for seed in SEEDS:
            instance = _planted(seed)
            oracle = BruteForceFD().discover(instance)
            serial = HyFD().discover(instance)
            algorithm = HyFD(workers=2)
            parallel = algorithm.discover(instance)
            assert list(serial.items()) == list(parallel.items())
            assert dict(parallel.items()) == dict(oracle.items())
            assert algorithm.last_pool_stats is not None
        assert algorithm.last_pool_stats.tasks_dispatched > 0

    def test_worker_counts_do_not_change_the_cover(self):
        instance = _planted(3)
        baseline = list(HyFD().discover(instance).items())
        for workers in (2, 3):
            assert list(HyFD(workers=workers).discover(instance).items()) == (
                baseline
            )


class TestPipelineDeterminism:
    def test_ddl_byte_identical(self):
        for seed in SEEDS:
            instance = _planted(seed)
            serial = normalize(instance)
            parallel = normalize(instance, workers=2)
            assert schema_to_ddl(serial.schema) == schema_to_ddl(parallel.schema)
            assert [step.to_str() for step in serial.steps] == [
                step.to_str() for step in parallel.steps
            ]
            for name, fds in serial.discovered_fds.items():
                assert list(fds.items()) == list(
                    parallel.discovered_fds[name].items()
                )

    def test_tane_pipeline_ddl_byte_identical(self):
        instance = _planted(3)
        serial = normalize(instance, algorithm="tane")
        parallel = normalize(instance, algorithm="tane", workers=2)
        assert schema_to_ddl(serial.schema) == schema_to_ddl(parallel.schema)

    def test_ranking_tie_breaks_are_stable(self):
        # Same chosen_rank / score sequence proves the violating-FD
        # ranking (including tie-breaks) saw identical inputs.
        instance = _planted(3)
        serial = normalize(instance)
        parallel = normalize(instance, workers=2)
        assert [
            (step.chosen_rank, step.num_candidates, step.score)
            for step in serial.steps
        ] == [
            (step.chosen_rank, step.num_candidates, step.score)
            for step in parallel.steps
        ]


class TestFaultsAndResume:
    def test_kill_mid_shard_then_resume_replays_identically(self, tmp_path):
        instance = _planted(3)
        baseline = schema_to_ddl(normalize(instance).schema)

        killed = False
        for at_tick in (2, 9, 33, 100, 250):
            journal = tmp_path / f"kill-{at_tick}.ckpt"
            plan = FaultPlan(mode="kill", at_tick=at_tick)
            try:
                Normalizer(
                    workers=2, checkpoint_path=journal, fault_plan=plan
                ).run(instance)
            except SimulatedKill:
                killed = True
                shutdown_pool()  # the "process died": its pool goes too
                # An early kill may precede the first journal write —
                # resuming from nothing is the contract there.
                state = load_state(journal) if journal.exists() else None
                resumed = Normalizer(workers=2, checkpoint_path=journal).run(
                    instance, resume_state=state
                )
                assert schema_to_ddl(resumed.schema) == baseline
        assert killed, "no fault tick interrupted the run; widen the range"

    def test_budget_breach_salvages_partial_state(self, monkeypatch):
        from repro.runtime.errors import BudgetExceeded
        from repro.runtime.governor import Budget, Governor, activate

        # Every validation level goes to the workers, and the parent's
        # clock stands still: only a worker sees the deadline pass.
        monkeypatch.setattr(pool_mod, "SERIAL_THRESHOLD", 0)
        instance = _planted(3)
        governor = Governor(
            Budget(deadline_seconds=1e-6, check_interval=1), clock=lambda: 0.0
        )
        algorithm = HyFD(workers=2)
        with activate(governor):
            with pytest.raises(BudgetExceeded) as excinfo:
                algorithm.discover(instance)
        assert excinfo.value.reason == "deadline"
        assert algorithm.last_pool_stats.tasks_dispatched > 0
        # HyFD keeps its positive cover as an unvalidated partial.
        assert excinfo.value.partial is not None
        assert not excinfo.value.partial_exact

    def test_budget_salvage_matches_serial_outcome(self):
        # A deadline generous enough to finish: governed parallel and
        # governed serial runs still agree byte-for-byte.
        from repro.runtime.governor import Budget

        instance = _planted(7)
        serial = Normalizer(budget=Budget(deadline_seconds=300)).run(instance)
        parallel = Normalizer(
            budget=Budget(deadline_seconds=300), workers=2
        ).run(instance)
        assert schema_to_ddl(serial.schema) == schema_to_ddl(parallel.schema)


class TestVerifyCampaign:
    def test_campaign_matches_serial(self):
        from repro.verification.runner import verify_seeds

        serial = verify_seeds(range(3), shrink=False)
        parallel = verify_seeds(range(3), shrink=False, workers=2)
        assert parallel.seeds == serial.seeds
        assert parallel.checks_run == serial.checks_run
        assert len(parallel.failures) == len(serial.failures)
        assert parallel.dependency_losses == serial.dependency_losses

    def test_injected_algorithm_objects_stay_serial(self):
        from repro.verification.runner import verify_seeds

        # Algorithm *objects* are not picklable by contract: the
        # campaign must fall back to the serial path, not crash.
        report = verify_seeds(
            range(2),
            shrink=False,
            fd_algorithms={"hyfd": "hyfd", "probe": HyFD()},
            workers=2,
        )
        assert report.checks_run > 0
