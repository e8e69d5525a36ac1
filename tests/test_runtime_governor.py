"""Tests for budgets, the governor, and the ambient checkpoint machinery."""

import pytest

from repro.runtime.errors import BudgetExceeded, InputError
from repro.runtime.governor import (
    Budget,
    Governor,
    activate,
    add_candidates,
    checkpoint,
    current_governor,
    parse_duration,
    parse_memory,
    suspended,
)


class FakeClock:
    """A manually-advanced monotonic clock for deterministic tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBudget:
    def test_defaults_are_unbounded(self):
        assert Budget().unbounded

    def test_any_ceiling_makes_it_bounded(self):
        assert not Budget(deadline_seconds=1.0).unbounded
        assert not Budget(max_memory_bytes=1 << 20).unbounded
        assert not Budget(max_candidates=100).unbounded

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_seconds": 0},
            {"deadline_seconds": -1},
            {"max_memory_bytes": 0},
            {"max_candidates": -5},
            {"check_interval": 0},
        ],
    )
    def test_non_positive_limits_rejected(self, kwargs):
        with pytest.raises(InputError):
            Budget(**kwargs)


class TestParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [("5s", 5.0), ("250ms", 0.25), ("2m", 120.0), ("1.5h", 5400.0), ("3", 3.0)],
    )
    def test_parse_duration(self, text, expected):
        assert parse_duration(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text", ["", "fast", "-1s", "0s"])
    def test_parse_duration_rejects(self, text):
        with pytest.raises(InputError):
            parse_duration(text)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("512MB", 512 * 1024**2),
            ("2gb", 2 * 1024**3),
            ("300k", 300 * 1024),
            ("1024", 1024),
        ],
    )
    def test_parse_memory(self, text, expected):
        assert parse_memory(text) == expected

    @pytest.mark.parametrize("text", ["", "lots", "-1mb", "0"])
    def test_parse_memory_rejects(self, text):
        with pytest.raises(InputError):
            parse_memory(text)


class TestGovernorDeadline:
    def test_breach_raised_at_probe(self):
        clock = FakeClock()
        governor = Governor(
            Budget(deadline_seconds=1.0, check_interval=1), clock=clock
        )
        governor.tick("setup")  # within budget
        clock.advance(2.0)
        with pytest.raises(BudgetExceeded) as exc_info:
            governor.tick("lattice")
        exc = exc_info.value
        assert exc.reason == "deadline"
        assert exc.stage == "lattice"
        assert exc.observed > exc.limit
        assert governor.breach is exc

    def test_probe_only_every_check_interval(self):
        clock = FakeClock()
        governor = Governor(
            Budget(deadline_seconds=1.0, check_interval=256), clock=clock
        )
        clock.advance(5.0)  # already expired, but probes are rationed
        for _ in range(255):
            governor.tick()
        with pytest.raises(BudgetExceeded):
            governor.tick()  # tick #256 probes and sees the breach

    def test_remaining_seconds(self):
        clock = FakeClock()
        governor = Governor(Budget(deadline_seconds=10.0), clock=clock)
        clock.advance(4.0)
        assert governor.remaining_seconds() == pytest.approx(6.0)
        clock.advance(100.0)
        assert governor.remaining_seconds() == 0.0
        assert Governor(Budget(), clock=clock).remaining_seconds() is None


class TestGovernorCandidates:
    def test_cap_enforced_exactly(self):
        governor = Governor(Budget(max_candidates=10))
        governor.add_candidates(10, "pli")  # exactly at the cap: fine
        with pytest.raises(BudgetExceeded) as exc_info:
            governor.add_candidates(1, "pli")
        assert exc_info.value.reason == "candidates"
        assert exc_info.value.observed == 11


class TestGovernorMemory:
    def test_impossible_ceiling_breaches_immediately(self):
        governor = Governor(Budget(max_memory_bytes=1, check_interval=1))
        with pytest.raises(BudgetExceeded) as exc_info:
            governor.tick("anything")
        assert exc_info.value.reason == "memory"


class TestAmbientGovernor:
    def test_checkpoint_is_noop_without_governor(self):
        assert current_governor() is None
        checkpoint("nowhere")  # must not raise
        add_candidates(1_000_000, "nowhere")

    def test_activate_installs_and_restores(self):
        outer = Governor(Budget(max_candidates=100))
        inner = Governor(Budget(max_candidates=5))
        with activate(outer):
            assert current_governor() is outer
            with activate(inner):
                assert current_governor() is inner
                with pytest.raises(BudgetExceeded):
                    add_candidates(6)
            assert current_governor() is outer
        assert current_governor() is None

    def test_suspended_masks_breaches(self):
        clock = FakeClock()
        governor = Governor(
            Budget(deadline_seconds=1.0, check_interval=1), clock=clock
        )
        clock.advance(10.0)
        with activate(governor):
            with suspended():
                checkpoint("salvage")  # expired but masked: no raise
            with pytest.raises(BudgetExceeded):
                checkpoint("hot-loop")

    def test_suspended_without_governor(self):
        with suspended():
            checkpoint()


class TestTicksFollowTheWork:
    """PLI builds tick by the rows they walk and closure extensions by
    the attributes they look up, so the governor probes a tall or wide
    relation every few steps instead of once per 256."""

    def test_ducc_stops_at_its_first_probe_past_the_deadline(self):
        from repro.discovery.ucc import DuccUCC
        from repro.verification.planted import plant_instance

        instance = plant_instance(3, num_columns=8, num_rows=4000).instance
        clock = FakeClock()
        governor = Governor(Budget(deadline_seconds=1.0), clock=clock)
        clock.advance(10.0)
        with activate(governor), pytest.raises(BudgetExceeded) as info:
            DuccUCC().discover(instance)
        assert info.value.reason == "deadline"
        assert info.value.stage == "pli"
        # The first single-column partition's rows already cross the
        # probe interval.
        assert governor.ticks == instance.num_rows

    def test_a_miss_counts_one_candidate_and_ticks_its_rows(self):
        from repro.structures.partitions import PLICache
        from repro.verification.planted import plant_instance

        instance = plant_instance(3, num_columns=4, num_rows=500).instance
        cache = PLICache(instance)
        base_rows = cache.get(0b01).num_non_singleton_rows
        governor = Governor(Budget(max_candidates=10))
        with activate(governor):
            cache.get(0b11)
            cache.get(0b11)  # a hit charges nothing
        assert governor.candidates == 1
        assert governor.ticks == 1 + base_rows

    def test_closure_stops_at_its_first_probe_past_the_deadline(self):
        from repro.core.closure import improved_closure
        from repro.model.fd import FDSet

        arity = 40
        fds = FDSet(arity)
        for attr in range(arity - 1):
            fds.add_masks(1 << attr, 1 << (attr + 1))
        clock = FakeClock()
        governor = Governor(Budget(deadline_seconds=1.0), clock=clock)
        clock.advance(10.0)
        with activate(governor), pytest.raises(BudgetExceeded) as info:
            improved_closure(fds)
        assert info.value.stage.startswith("closure")
        assert governor.ticks < 2 * governor.budget.check_interval
