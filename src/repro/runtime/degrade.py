"""Budgeted FD discovery: one attempt, then salvage.

Under a budget, discovery runs the configured algorithm (HyFD by
default) once, under the run's governor.  When the attempt breaches,
dying with a stack trace is the worst possible outcome — the paper's
own §9 concedes result sizes grow exponentially, and anytime-discovery
work (EAIFD) argues for partial results over no results — so the FDs
the algorithm salvaged before the breach are kept and tagged
``partial`` (or ``none`` when it salvaged nothing).

In a sweep of budgeted runs (``benchmarks/bench_budget_sweep.py``,
docs/ROBUSTNESS.md), trying DFD and then HyFD on a row sample after a
breach rescued no run, and holding part of the wall clock back from
discovery for the later stages ended no more runs with the exact
schema, so discovery gets one attempt and the whole remaining budget.
Sampled discovery is a mode the user picks up front instead:
:class:`~repro.discovery.sampled.SampledG3FD` (``repro --approximate``).

Each relation's attempt is recorded in a :class:`RelationFidelity`,
aggregated per run into a :class:`FidelityReport` that travels on the
:class:`~repro.core.result.NormalizationResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.model.fd import FDSet
from repro.model.instance import RelationInstance
from repro.runtime.errors import BudgetExceeded

__all__ = [
    "FidelityReport",
    "RelationFidelity",
    "StageAttempt",
    "discover_within_budget",
]


@dataclass(slots=True)
class StageAttempt:
    """One discovery attempt, as it actually went."""

    stage: str
    outcome: str  # "ok" | "breach"
    reason: str | None = None
    seconds: float = 0.0
    num_fds: int | None = None

    def to_str(self) -> str:
        detail = f"{self.num_fds} FDs" if self.num_fds is not None else ""
        if self.outcome == "breach":
            detail = self.reason or "breach"
        return f"{self.stage}: {self.outcome} ({detail}, {self.seconds:.2f}s)"

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "outcome": self.outcome,
            "reason": self.reason,
            "seconds": self.seconds,
            "num_fds": self.num_fds,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "StageAttempt":
        return cls(**payload)


@dataclass(slots=True)
class RelationFidelity:
    """How faithfully one relation's FDs were discovered.

    ``fidelity``:
        * ``"exact"``   — complete minimal FDs from an exact algorithm,
        * ``"sampled"`` — discovered on a row sample by
          :class:`~repro.discovery.sampled.SampledG3FD`, then verified
          against the full relation with g3 ≤ ``approx_error``;
          complete *for the sample*, sound within the error bound,
        * ``"partial"`` — the salvaged prefix of an interrupted run;
          sound facts only if the breach carried exact partial state,
        * ``"none"``    — nothing was salvaged.
    """

    relation: str
    fidelity: str = "exact"
    attempts: list[StageAttempt] = field(default_factory=list)
    sampled_rows: int | None = None
    notes: list[str] = field(default_factory=list)
    #: True when every FD in the returned set is *known to hold* on the
    #: full relation (exact runs, g3-verified samples with ε=0, exact
    #: partial prefixes); False when unvalidated candidates may remain.
    sound: bool = True

    @property
    def exact(self) -> bool:
        return self.fidelity == "exact"

    def to_str(self) -> str:
        lines = [f"{self.relation}: {self.fidelity}"]
        lines.extend(f"  - {attempt.to_str()}" for attempt in self.attempts)
        lines.extend(f"  note: {note}" for note in self.notes)
        if self.sampled_rows is not None:
            lines.append(f"  sampled rows: {self.sampled_rows}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "fidelity": self.fidelity,
            "attempts": [attempt.to_json() for attempt in self.attempts],
            "sampled_rows": self.sampled_rows,
            "notes": list(self.notes),
            "sound": self.sound,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RelationFidelity":
        return cls(
            relation=payload["relation"],
            fidelity=payload["fidelity"],
            attempts=[StageAttempt.from_json(a) for a in payload["attempts"]],
            sampled_rows=payload["sampled_rows"],
            notes=list(payload["notes"]),
            sound=payload.get("sound", True),
        )


@dataclass(slots=True)
class FidelityReport:
    """Run-level fidelity: per-relation reports plus pipeline events.

    ``events`` records degradations outside discovery — a truncated
    decomposition loop, skipped primary-key selection — anything that
    makes the result less than the exact pipeline would have produced.
    """

    relations: dict[str, RelationFidelity] = field(default_factory=dict)
    events: list[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.events) or any(
            not fidelity.exact for fidelity in self.relations.values()
        )

    def to_str(self) -> str:
        if not self.degraded:
            return "fidelity: exact (no degradation)"
        lines = ["fidelity: DEGRADED"]
        for fidelity in self.relations.values():
            lines.extend("  " + line for line in fidelity.to_str().splitlines())
        lines.extend(f"  event: {event}" for event in self.events)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "degraded": self.degraded,
            "relations": {
                name: fidelity.to_json()
                for name, fidelity in self.relations.items()
            },
            "events": list(self.events),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FidelityReport":
        return cls(
            relations={
                name: RelationFidelity.from_json(entry)
                for name, entry in payload["relations"].items()
            },
            events=list(payload["events"]),
        )


# ----------------------------------------------------------------------
# The attempt
# ----------------------------------------------------------------------
def discover_within_budget(
    instance: RelationInstance, algorithm, degrade: bool = True
) -> tuple[FDSet, RelationFidelity]:
    """Discover FDs with one attempt; on a breach, keep what it salvaged.

    ``algorithm`` is a ready :class:`~repro.discovery.base.FDAlgorithm`;
    it runs under the active governor, if any.  A breach propagates
    with its partial state attached when ``degrade`` is False;
    otherwise the partial FDs are returned, ``sound`` only when the
    algorithm marked them exact.
    """
    fidelity = RelationFidelity(relation=instance.name)
    stage = getattr(algorithm, "name", type(algorithm).__name__)
    started = time.perf_counter()
    try:
        fds = algorithm.discover(instance)
    except BudgetExceeded as exc:
        if not degrade:
            raise
        fidelity.attempts.append(
            StageAttempt(
                stage,
                "breach",
                reason=exc.reason,
                seconds=time.perf_counter() - started,
            )
        )
        return _salvage(instance, exc, fidelity)
    fidelity.attempts.append(
        StageAttempt(
            stage,
            "ok",
            seconds=time.perf_counter() - started,
            num_fds=len(fds),
        )
    )
    # ``repro --approximate`` discovers through SampledG3FD, which says
    # how many rows it sampled (None when the sample covered the data).
    sampled = getattr(algorithm, "last_sampled_rows", None)
    if sampled is not None:
        fidelity.fidelity = "sampled"
        fidelity.sampled_rows = sampled
        fidelity.sound = algorithm.approx_error == 0.0
    return fds, fidelity


def _salvage(
    instance: RelationInstance, exc: BudgetExceeded, fidelity: RelationFidelity
) -> tuple[FDSet, RelationFidelity]:
    """The partial FDs a breached attempt attached, tagged as such."""
    if isinstance(exc.partial, FDSet):
        fidelity.fidelity = "partial"
        fidelity.sound = exc.partial_exact
        if not exc.partial_exact:
            fidelity.notes.append(
                "partial state may contain unvalidated candidates; "
                "decompositions re-verify chosen FDs against the data"
            )
        return exc.partial, fidelity
    fidelity.fidelity = "none"
    fidelity.notes.append("no partial state was salvaged before the breach")
    return FDSet(instance.arity), fidelity
