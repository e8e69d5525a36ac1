"""Structured exception taxonomy for the resource-governed pipeline.

Every error the library raises on purpose derives from :class:`ReproError`,
so callers (and the CLI boundary) can distinguish the three failure
families without string matching:

* :class:`InputError` — the *data or arguments* are at fault: malformed
  CSV, mismatched columns, impossible configuration.  Subclasses
  :class:`ValueError` so pre-taxonomy callers that caught ``ValueError``
  keep working.
* :class:`BudgetExceeded` — a resource budget (wall-clock deadline or
  memory ceiling) was breached at a cooperative checkpoint, or a fault
  was injected there.  It carries the *partial
  state* accumulated up to the breach so callers can degrade instead of
  losing everything.
* :class:`CheckpointError` — a pipeline checkpoint cannot be loaded or
  does not match the run it is resumed into.
* :class:`WorkerCrashError` — a pool worker process died (real SIGKILL,
  OOM kill, segfault) and the supervisor could not — or was configured
  not to — recover the lost shard.

:class:`DegradedResultWarning` is the non-fatal member of the taxonomy:
the pipeline finished, but at reduced fidelity (see
:mod:`repro.runtime.degrade`); it is issued via :mod:`warnings` and the
details live in the result's fidelity report.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "BudgetExceeded",
    "CheckpointError",
    "DegradedResultWarning",
    "InputError",
    "ReproError",
    "WorkerCrashError",
]


class ReproError(Exception):
    """Base class of every deliberate error in the repro library."""


class InputError(ReproError, ValueError):
    """Bad input data or arguments (malformed CSV, degenerate config).

    ``context`` pinpoints the offender when known — e.g. file path, row
    and column numbers for CSV errors — and is folded into the message.
    """

    def __init__(self, message: str, **context: Any) -> None:
        self.context = context
        if context:
            where = ", ".join(f"{key}={value!r}" for key, value in context.items())
            message = f"{message} ({where})"
        super().__init__(message)


class BudgetExceeded(ReproError):
    """A resource budget was breached at a cooperative checkpoint.

    Attributes:
        reason: ``"deadline"``, ``"memory"``, or a fault-injection
            reason (``"fault:..."``).
        stage: the pipeline stage whose checkpoint fired (best effort).
        limit / observed: the budget value and the measurement that
            crossed it, in the reason's native unit.
        elapsed_seconds: wall-clock time since the governor started.
        partial: whatever partial state the raising layer salvaged —
            an :class:`~repro.model.fd.FDSet` for FD discoverers, a
            list of UCC masks for key discovery, ``None`` when nothing
            useful was accumulated.  Outer layers may replace it with a
            richer object as the exception propagates.
        partial_exact: True when ``partial`` is known to contain only
            validated facts (e.g. TANE's completed levels); False when
            it may include unvalidated candidates (e.g. HyFD's tree at
            breach time).
    """

    def __init__(
        self,
        reason: str,
        stage: str = "",
        limit: float | int | None = None,
        observed: float | int | None = None,
        elapsed_seconds: float | None = None,
        partial: Any = None,
        partial_exact: bool = True,
    ) -> None:
        self.reason = reason
        self.stage = stage
        self.limit = limit
        self.observed = observed
        self.elapsed_seconds = elapsed_seconds
        self.partial = partial
        self.partial_exact = partial_exact
        super().__init__(self._message())

    def _message(self) -> str:
        parts = [f"budget exceeded: {self.reason}"]
        if self.stage:
            parts.append(f"in stage {self.stage!r}")
        if self.limit is not None and self.observed is not None:
            parts.append(f"({self.observed} > limit {self.limit})")
        if self.elapsed_seconds is not None:
            parts.append(f"after {self.elapsed_seconds:.2f}s")
        return " ".join(parts)

    def attach_partial(self, partial: Any, exact: bool = True) -> "BudgetExceeded":
        """Set the salvaged partial state if no inner layer already did."""
        if self.partial is None:
            self.partial = partial
            self.partial_exact = exact
        return self


class CheckpointError(ReproError):
    """A checkpoint file is unreadable or inconsistent with this run."""


class WorkerCrashError(ReproError):
    """A pool worker died and the lost shard could not be recovered.

    Under the default self-healing policy (see ``docs/PARALLEL.md``) a
    worker death is *not* an error: the supervisor respawns the worker
    and retries the shard, quarantining payloads that kill workers
    repeatedly onto the in-process serial path.  This exception is
    reserved for the cases where that policy is unavailable — strict
    mode (``REPRO_POOL_STRICT=1``) forbidding recovery, or respawn
    itself failing.  CLI exit code 5.

    Attributes:
        task_kind: the task-handler name of the lost shard.
        payload_index: the shard's index within its batch (None when
            the dead worker held no shard).
        exitcode: the worker process's exit code (negative = signal).
        deaths: how many workers this payload has killed so far.
    """

    def __init__(
        self,
        message: str,
        task_kind: str = "",
        payload_index: int | None = None,
        exitcode: int | None = None,
        deaths: int = 0,
    ) -> None:
        self.task_kind = task_kind
        self.payload_index = payload_index
        self.exitcode = exitcode
        self.deaths = deaths
        super().__init__(message)


class DegradedResultWarning(UserWarning):
    """The pipeline completed, but at reduced fidelity.

    Issued once per run whose fidelity report is anything other than
    fully exact; the report itself travels on the
    :class:`~repro.core.result.NormalizationResult`.
    """
