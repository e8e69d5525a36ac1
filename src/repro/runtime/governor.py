"""Budgets and the cooperative checkpoint machinery.

FD discovery is the pipeline's unbounded step — result sizes grow
exponentially with the attribute count — so every hot loop in the
library calls :func:`checkpoint` (and candidate-generating loops call
:func:`add_candidates`).  When no budget is active both are a single
global read and a ``None`` test; when a :class:`Governor` is active,
ticks are counted and the expensive probes (wall clock, resident
memory) run only every ``Budget.check_interval`` ticks, keeping the
governed hot paths within a few percent of ungoverned speed.

On breach the governor raises :class:`~repro.runtime.errors.BudgetExceeded`;
the raising algorithm attaches whatever partial state it accumulated
and re-raises, and :mod:`repro.runtime.degrade` (discovery) or the
caller decides what to do with it.

The library is single-threaded by design (DESIGN.md §3), so the active
governor is a plain module global managed by :func:`activate`;
:func:`suspended` masks it while an exception handler salvages partial
state (salvage code must never be re-interrupted).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.runtime.errors import BudgetExceeded, InputError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.faults import FaultPlan

__all__ = [
    "BLOCK_ROWS",
    "Budget",
    "Governor",
    "activate",
    "add_candidates",
    "checkpoint",
    "current_governor",
    "in_blocks",
    "parse_duration",
    "parse_memory",
    "suspended",
]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


@dataclass(frozen=True, slots=True)
class Budget:
    """Resource ceilings for one pipeline run.

    ``None`` disables the corresponding check.  ``max_candidates`` caps
    *candidate work units* — lattice nodes generated, predicate
    evaluations, partition intersections — the discovery-side proxy for
    the exponential blow-up that neither time nor memory catches early.
    """

    deadline_seconds: float | None = None
    max_memory_bytes: int | None = None
    max_candidates: int | None = None
    #: ticks between wall-clock / memory probes (probes are ~µs, ticks ~ns)
    check_interval: int = 256

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise InputError("deadline_seconds must be positive")
        if self.max_memory_bytes is not None and self.max_memory_bytes <= 0:
            raise InputError("max_memory_bytes must be positive")
        if self.max_candidates is not None and self.max_candidates <= 0:
            raise InputError("max_candidates must be positive")
        if self.check_interval < 1:
            raise InputError("check_interval must be >= 1")

    @property
    def unbounded(self) -> bool:
        return (
            self.deadline_seconds is None
            and self.max_memory_bytes is None
            and self.max_candidates is None
        )


def _rss_bytes() -> int:
    """Current resident set size; 0 when the platform offers no probe."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:  # macOS/BSD fallback: peak RSS (monotone, still a valid ceiling)
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; at this point we are not on
        # Linux (statm failed), so treat large values as bytes.
        return peak if peak > 1 << 32 else peak * 1024
    except Exception:  # pragma: no cover - exotic platforms
        return 0


class Governor:
    """Counts cooperative ticks and enforces one :class:`Budget`.

    A governor is created once per run and activated via
    :func:`activate`.  All counters are public so fidelity reports and
    tests can read them.
    """

    __slots__ = (
        "budget",
        "fault_plan",
        "started_at",
        "deadline_at",
        "ticks",
        "candidates",
        "breach",
        "_clock",
        "_next_probe",
        "_suspended",
    )

    def __init__(
        self,
        budget: Budget | None = None,
        fault_plan: "FaultPlan | None" = None,
        clock=time.monotonic,
    ) -> None:
        self.budget = budget if budget is not None else Budget()
        self.fault_plan = fault_plan
        self._clock = clock
        self.started_at = clock()
        self.deadline_at = (
            self.started_at + self.budget.deadline_seconds
            if self.budget.deadline_seconds is not None
            else None
        )
        self.ticks = 0
        self.candidates = 0
        self.breach: BudgetExceeded | None = None
        self._next_probe = self.budget.check_interval
        self._suspended = 0

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def tick(self, stage: str = "", units: int = 1) -> None:
        """One cooperative checkpoint; raises on breach or injected fault."""
        if self._suspended:
            return
        self.ticks += units
        plan = self.fault_plan
        if plan is not None:
            plan.on_tick(self, stage)
        if self.ticks >= self._next_probe:
            self._next_probe = self.ticks + self.budget.check_interval
            self._probe(stage)

    def add_candidates(self, count: int, stage: str = "") -> None:
        """Account candidate work; enforces ``max_candidates`` exactly."""
        if self._suspended:
            return
        self.candidates += count
        limit = self.budget.max_candidates
        if limit is not None and self.candidates > limit:
            self._raise("candidates", stage, limit, self.candidates)
        self.tick(stage, count)

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def _probe(self, stage: str) -> None:
        now = self._clock()
        if self.deadline_at is not None and now > self.deadline_at:
            self._raise(
                "deadline",
                stage,
                self.budget.deadline_seconds,
                round(now - self.started_at, 3),
            )
        limit = self.budget.max_memory_bytes
        if limit is not None:
            rss = _rss_bytes()
            if rss > limit:
                self._raise("memory", stage, limit, rss)

    def _raise(self, reason: str, stage: str, limit, observed) -> None:
        exc = BudgetExceeded(
            reason,
            stage=stage,
            limit=limit,
            observed=observed,
            elapsed_seconds=self._clock() - self.started_at,
        )
        if self.breach is None:
            self.breach = exc
        raise exc

    def inject(self, exc: BudgetExceeded) -> None:
        """Record and raise a fault-injected breach (FaultPlan hook)."""
        if exc.elapsed_seconds is None:
            exc.elapsed_seconds = self._clock() - self.started_at
        if self.breach is None:
            self.breach = exc
        raise exc

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def elapsed_seconds(self) -> float:
        return self._clock() - self.started_at

    def remaining_seconds(self) -> float | None:
        """Seconds until the deadline; ``None`` without one."""
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - self._clock())


# ----------------------------------------------------------------------
# The ambient governor (single-threaded by design)
# ----------------------------------------------------------------------
_ACTIVE: Governor | None = None


def current_governor() -> Governor | None:
    return _ACTIVE


def checkpoint(stage: str = "", units: int = 1) -> None:
    """Cooperative cancellation point for hot loops.

    Free (one global read) when no governor is active.
    """
    governor = _ACTIVE
    if governor is not None:
        governor.tick(stage, units)


#: rows per checkpoint of the loops that walk a relation row by row
BLOCK_ROWS = 1024


def in_blocks(rows: Iterable, stage: str) -> Iterator[list]:
    """``rows`` as lists of up to :data:`BLOCK_ROWS`, each preceded by
    one :func:`checkpoint` whose ``units`` is the list's length."""
    rows = iter(rows)
    while block := list(islice(rows, BLOCK_ROWS)):
        checkpoint(stage, units=len(block))
        yield block


def add_candidates(count: int, stage: str = "") -> None:
    """Account candidate work units against the active budget, if any."""
    governor = _ACTIVE
    if governor is not None:
        governor.add_candidates(count, stage)


@contextmanager
def activate(governor: Governor | None) -> Iterator[Governor | None]:
    """Install ``governor`` as the ambient one for the ``with`` body."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = governor
    try:
        yield governor
    finally:
        _ACTIVE = previous


@contextmanager
def suspended() -> Iterator[None]:
    """Mask the active governor (and its faults) inside the body.

    Exception handlers salvaging partial state use this so salvage work
    can never be re-interrupted by the very budget that triggered it.
    """
    governor = _ACTIVE
    if governor is None:
        yield
        return
    governor._suspended += 1
    try:
        yield
    finally:
        governor._suspended -= 1


# ----------------------------------------------------------------------
# Human-friendly budget parsing (CLI surface)
# ----------------------------------------------------------------------
_DURATION_UNITS = {"ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0}
_MEMORY_UNITS = {
    "b": 1,
    "kb": 1024,
    "mb": 1024**2,
    "gb": 1024**3,
    "k": 1024,
    "m": 1024**2,
    "g": 1024**3,
}


def parse_duration(text: str) -> float:
    """Parse ``"5s"``, ``"250ms"``, ``"2m"``, ``"1.5h"``, or bare seconds."""
    text = text.strip().lower()
    for suffix, scale in sorted(_DURATION_UNITS.items(), key=lambda i: -len(i[0])):
        if text.endswith(suffix):
            number = text[: -len(suffix)]
            break
    else:
        number, scale = text, 1.0
    try:
        value = float(number) * scale
    except ValueError:
        raise InputError(f"cannot parse duration {text!r}") from None
    if value <= 0:
        raise InputError(f"duration must be positive, got {text!r}")
    return value


def parse_memory(text: str) -> int:
    """Parse ``"512MB"``, ``"2gb"``, ``"300000k"``, or bare bytes."""
    text = text.strip().lower()
    for suffix, scale in sorted(_MEMORY_UNITS.items(), key=lambda i: -len(i[0])):
        if text.endswith(suffix):
            number = text[: -len(suffix)]
            break
    else:
        number, scale = text, 1
    try:
        value = int(float(number) * scale)
    except ValueError:
        raise InputError(f"cannot parse memory size {text!r}") from None
    if value <= 0:
        raise InputError(f"memory size must be positive, got {text!r}")
    return value
