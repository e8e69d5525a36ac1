"""Tests for deterministic fault injection and the fault campaign."""

import pytest

from repro.core.normalize import Normalizer
from repro.runtime.errors import BudgetExceeded, InputError
from repro.runtime.faults import FaultPlan, SimulatedKill
from repro.runtime.governor import Budget, Governor, activate, checkpoint
from repro.verification.faults_campaign import run_fault_campaign


class TestFaultPlan:
    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError):
            FaultPlan(mode="brownout")

    def test_tick_must_be_positive(self):
        with pytest.raises(InputError):
            FaultPlan(at_tick=0)

    def test_fires_exactly_once(self):
        plan = FaultPlan(mode="timeout", at_tick=3)
        governor = Governor(Budget(), fault_plan=plan)
        governor.tick()
        governor.tick()
        with pytest.raises(BudgetExceeded) as exc_info:
            governor.tick("stage-x")
        assert exc_info.value.reason == "fault:timeout"
        assert plan.fired
        assert plan.fired_at_stage == "stage-x"
        for _ in range(100):
            governor.tick()  # already fired: never again

    def test_oom_mode_reason(self):
        plan = FaultPlan(mode="oom", at_tick=1)
        governor = Governor(Budget(), fault_plan=plan)
        with pytest.raises(BudgetExceeded, match="fault:oom"):
            governor.tick()
        assert governor.breach is not None

    def test_stage_filter(self):
        plan = FaultPlan(mode="timeout", at_tick=1, stage="hyfd")
        governor = Governor(Budget(), fault_plan=plan)
        governor.tick("pli")  # wrong stage: held back
        assert not plan.fired
        with pytest.raises(BudgetExceeded):
            governor.tick("hyfd-induct")

    def test_kill_is_not_an_exception(self):
        plan = FaultPlan(mode="kill", at_tick=1)
        governor = Governor(Budget(), fault_plan=plan)
        with pytest.raises(SimulatedKill):
            try:
                with activate(governor):
                    checkpoint("anywhere")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedKill must not be catchable as Exception")
        assert plan.fired


class TestBudgetBreachSweep:
    """Inject a synthetic breach at many different checkpoint ticks: the
    governed pipeline must always complete with a fidelity-tagged result,
    never escape with an exception."""

    @pytest.mark.parametrize("at_tick", [1, 3, 10, 30, 100, 300, 1000])
    def test_breach_never_escapes_run(self, university, at_tick):
        import warnings

        plan = FaultPlan(mode="timeout", at_tick=at_tick)
        normalizer = Normalizer(algorithm="hyfd", fault_plan=plan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = normalizer.run(university)
        assert result.fidelity is not None
        assert len(result.schema) >= 1
        if plan.fired:
            breach_visible = bool(result.fidelity.events) or any(
                attempt.outcome == "breach"
                for fidelity in result.fidelity.relations.values()
                for attempt in fidelity.attempts
            )
            assert breach_visible


class TestScoringIsGoverned:
    """A breach while scoring violating FDs (§7.2 Bloom-filter distinct
    counts and value lengths) stops the decomposition loop, and what was
    decomposed so far stays sound and lossless."""

    # Tick 1 fires at the first scoring tick, before any split; by tick
    # 150 the university relation has been split once.
    @pytest.mark.parametrize("at_tick", [1, 150])
    def test_timeout_on_a_scoring_tick(self, university, at_tick):
        import warnings
        from collections import Counter

        exact = Normalizer(algorithm="hyfd").run(university)
        plan = FaultPlan(mode="timeout", at_tick=at_tick, stage="scoring")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = Normalizer(algorithm="hyfd", fault_plan=plan).run(university)
        assert plan.fired and plan.fired_at_stage == "scoring"
        assert any(
            event.startswith("decomposition loop stopped by budget breach")
            for event in result.fidelity.events
        )
        assert len(result.schema) < len(exact.schema)
        assert all(f.sound for f in result.fidelity.relations.values())
        rebuilt = result.reconstruct(university.name)
        assert Counter(rebuilt.iter_rows()) == Counter(university.iter_rows())


class TestFaultCampaign:
    def test_small_campaign_passes(self):
        report = run_fault_campaign(range(6), num_rows=30, max_columns=6)
        assert report.ok, report.to_str()
        assert len(report.seeds) == 6
        assert report.fired >= 1  # the sweep must actually exercise faults
        assert "all passed" in report.to_str()

    def test_every_stage_gets_faulted(self):
        # Seeds cycle the fault over the labels each run reaches, so a
        # short campaign already breaks closure, scoring and DUCC's key
        # search, not only HyFD's partition building.
        report = run_fault_campaign(range(30), workers=1)
        assert report.ok, report.to_str()
        assert report.fired == len(report.seeds)
        assert sum(report.fired_by_stage.values()) == report.fired
        for stage in ("closure-", "scoring", "lattice-", "pli", "hyfd-"):
            assert any(
                label.startswith(stage) for label in report.fired_by_stage
            ), report.to_str()
        assert "fired per label:" in report.to_str()

    def test_failures_flip_ok(self):
        from repro.verification.faults_campaign import FaultCampaignReport

        report = FaultCampaignReport(seeds=[0], failures=["seed 0: boom"])
        assert not report.ok
        assert "FAIL" in report.to_str()
