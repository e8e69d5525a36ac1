"""Tests for budgeted discovery (one attempt, then salvage) and
fidelity reporting."""

import pytest

from repro.discovery.hyfd import HyFD
from repro.model.fd import FDSet
from repro.core.normalize import Normalizer
from repro.runtime.degrade import (
    FidelityReport,
    RelationFidelity,
    StageAttempt,
    discover_within_budget,
)
from repro.runtime.errors import BudgetExceeded
from repro.runtime.governor import Budget, Governor, activate, current_governor
from tests.helpers import canon_fds


class BreachingAlgorithm:
    """A stand-in discoverer that always breaches its budget."""

    null_equals_null = True
    max_lhs_size = None

    def __init__(self, name="hyfd", partial=None, partial_exact=True):
        self.name = name
        self.partial = partial
        self.partial_exact = partial_exact
        self.calls = 0

    def discover(self, instance):
        self.calls += 1
        exc = BudgetExceeded("deadline", stage=self.name)
        if self.partial is not None:
            exc.attach_partial(self.partial, exact=self.partial_exact)
        raise exc


def one_fd(address):
    partial = FDSet(address.arity)
    partial.add_masks(0b00001, 0b00010)
    return partial


class TestUngoverned:
    def test_plain_discovery_without_governor(self, address):
        fds, fidelity = discover_within_budget(address, HyFD())
        assert fidelity.exact
        assert fidelity.sound
        assert [a.outcome for a in fidelity.attempts] == ["ok"]
        assert canon_fds(fds) == canon_fds(HyFD().discover(address))


class TestLadderDescent:
    """A governed discovery makes one attempt and, on a breach, keeps
    the partial FDs the algorithm attached."""

    def test_rung_one_success_is_exact(self, address):
        with activate(Governor(Budget(deadline_seconds=60.0))):
            fds, fidelity = discover_within_budget(address, HyFD())
        assert fidelity.fidelity == "exact"
        assert fidelity.sound
        assert fidelity.attempts[0].stage == "hyfd"
        assert fidelity.attempts[0].outcome == "ok"

    def test_all_rungs_breach_returns_best_partial(self, address):
        algorithm = BreachingAlgorithm(partial=one_fd(address))
        fds, fidelity = discover_within_budget(address, algorithm)
        assert fidelity.fidelity == "partial"
        assert fidelity.sound  # the breach marked its partial exact
        assert not fidelity.notes
        assert canon_fds(fds) == canon_fds(one_fd(address))

    def test_inexact_partial_marks_unsound(self, address):
        algorithm = BreachingAlgorithm(
            partial=one_fd(address), partial_exact=False
        )
        fds, fidelity = discover_within_budget(address, algorithm)
        assert fidelity.fidelity == "partial"
        assert not fidelity.sound
        assert "unvalidated candidates" in fidelity.notes[0]
        assert canon_fds(fds) == canon_fds(one_fd(address))

    def test_degrade_false_propagates_breach(self, address):
        with pytest.raises(BudgetExceeded):
            discover_within_budget(address, BreachingAlgorithm(), degrade=False)


class TestOneAttempt:
    @pytest.mark.parametrize("name", ["hyfd", "tane"])
    def test_a_breach_is_the_only_attempt(self, address, name):
        algorithm = BreachingAlgorithm(name=name, partial=one_fd(address))
        _, fidelity = discover_within_budget(address, algorithm)
        assert algorithm.calls == 1
        attempts = [(a.stage, a.outcome, a.reason) for a in fidelity.attempts]
        assert attempts == [(name, "breach", "deadline")]

    def test_no_partial_gives_none(self, address):
        fds, fidelity = discover_within_budget(address, BreachingAlgorithm())
        assert fidelity.fidelity == "none"
        assert len(fds) == 0
        assert fds.num_attributes == address.arity
        assert "no partial state" in fidelity.notes[0]

    def test_discovery_gets_the_whole_budget(self, address):
        class RecordsItsGovernor:
            name = "probe"
            seen = []

            def discover(self, instance):
                self.seen.append(current_governor())
                return FDSet(instance.arity)

        budget = Budget(deadline_seconds=60.0)
        algorithm = RecordsItsGovernor()
        Normalizer(algorithm=algorithm, budget=budget).run(address)
        assert [governor.budget for governor in algorithm.seen] == [budget]


class TestFidelitySerialization:
    def make_report(self):
        fidelity = RelationFidelity(
            relation="r",
            fidelity="partial",
            attempts=[
                StageAttempt("hyfd", "breach", reason="deadline", seconds=1.5),
            ],
            notes=["note"],
            sound=False,
        )
        return FidelityReport(relations={"r": fidelity}, events=["event"])

    def test_json_round_trip(self):
        report = self.make_report()
        back = FidelityReport.from_json(report.to_json())
        assert back.to_json() == report.to_json()
        assert back.relations["r"].sound is False

    def test_sound_defaults_true_for_old_payloads(self):
        payload = self.make_report().relations["r"].to_json()
        del payload["sound"]
        assert RelationFidelity.from_json(payload).sound is True

    def test_degraded_property(self):
        assert self.make_report().degraded
        clean = FidelityReport(
            relations={"r": RelationFidelity(relation="r")}
        )
        assert not clean.degraded
        clean.events.append("truncated")
        assert clean.degraded

    def test_to_str_mentions_degradation(self):
        text = self.make_report().to_str()
        assert "DEGRADED" in text
        assert "partial" in text
