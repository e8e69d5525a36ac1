"""Deterministic fault injection at cooperative checkpoints.

Every degradation and resume path in the pipeline exists to survive a
failure that is hard to produce on demand: a deadline landing in the
middle of TANE's level 7, an OOM during HyFD validation, a ``kill -9``
between two decomposition decisions.  A :class:`FaultPlan` produces
exactly those events *deterministically*: it fires once, at the first
checkpoint at or past tick N (optionally only one of a given stage
label), raising either a synthetic
:class:`~repro.runtime.errors.BudgetExceeded` (exercising the salvage
of partial results) or a :class:`SimulatedKill` (exercising
checkpoint/resume — it derives from ``BaseException`` so no recovery
layer can swallow it, exactly like a real kill).

The verification harness (``repro verify --faults``) first records an
unfaulted run's checkpoints, then takes each plan's label and tick
from that recording, so that over a campaign faults land at every
checkpoint label the pipeline has.

Beyond the in-process modes, three **worker-level** modes target the
process-parallel execution layer with *real* process failures instead
of simulated ones: ``worker_kill`` SIGKILLs the worker from inside
(uncatchable, no cleanup — exactly an external ``kill -9``),
``worker_oom`` hard-exits with status 137 (what the kernel OOM killer
leaves behind), and ``worker_hang`` stops cooperating forever (the
worker keeps its heartbeat frozen until the supervisor declares it
hung).  These modes are inert in the parent process — they only fire
inside a pool worker, gated by a shared once-only flag the pool wires
up (:attr:`FaultPlan.shared_flag`), so exactly one worker per plan
dies no matter how many shards carry the fault descriptor.  The
supervisor (``repro.parallel.supervisor``) must then recover the lost
shard; the chaos campaign asserts the healed run's DDL is
byte-identical to serial.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.runtime.errors import BudgetExceeded, InputError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.governor import Governor

__all__ = [
    "FaultPlan",
    "SimulatedKill",
    "FAULT_MODES",
    "PROCESS_FAULT_MODES",
    "WORKER_FAULT_MODES",
]

#: In-process modes: simulated breaches/kills at the parent's (or a
#: worker's own) cooperative checkpoints.
PROCESS_FAULT_MODES = ("timeout", "oom", "kill")

#: Real worker-process failures; only fire inside pool workers.
WORKER_FAULT_MODES = ("worker_kill", "worker_oom", "worker_hang")

FAULT_MODES = PROCESS_FAULT_MODES + WORKER_FAULT_MODES


class SimulatedKill(BaseException):
    """An injected hard kill (SIGKILL analogue).

    Derives from ``BaseException`` on purpose: the pipeline's recovery
    machinery (partial-result salvage, CLI boundary) must *not* be able
    to catch it, mirroring a real process death.  Only tests catch it.
    """

    def __init__(self, at_tick: int) -> None:
        self.at_tick = at_tick
        super().__init__(f"simulated kill at checkpoint tick {at_tick}")


@dataclass(slots=True)
class FaultPlan:
    """Fire one deterministic fault at the ``at_tick``-th checkpoint.

    ``mode``:
        * ``"timeout"``     — raise ``BudgetExceeded(reason="fault:timeout")``,
        * ``"oom"``         — raise ``BudgetExceeded(reason="fault:oom")``,
        * ``"kill"``        — raise :class:`SimulatedKill`,
        * ``"worker_kill"`` — SIGKILL the current process (workers only),
        * ``"worker_oom"``  — ``os._exit(137)`` (workers only),
        * ``"worker_hang"`` — spin in a sleep loop forever (workers only).

    ``stage`` optionally restricts the fault to checkpoints whose stage
    label starts with it (e.g. ``"hyfd"``), so campaigns can target one
    subsystem.  ``fired`` records whether the fault went off, letting
    tests distinguish "survived the fault" from "never reached it".

    The worker modes need ``shared_flag`` — a ``multiprocessing.Value``
    the pool installs on the worker-side plan copies — to coordinate
    once-only firing across processes: the parent's own plan object
    never fires them (no flag ⇒ no-op), and the pool folds the flag
    back into the parent plan's ``fired`` after the batch.
    """

    mode: str = "timeout"
    at_tick: int = 1
    stage: str | None = None
    fired: bool = False
    fired_at_stage: str = field(default="", repr=False)
    shared_flag: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise InputError(
                f"unknown fault mode {self.mode!r}; choose from {FAULT_MODES}"
            )
        if self.at_tick < 1:
            raise InputError("at_tick must be >= 1")

    # ------------------------------------------------------------------
    # Governor hook
    # ------------------------------------------------------------------
    def on_tick(self, governor: "Governor", stage: str) -> None:
        if self.fired or governor.ticks < self.at_tick:
            return
        if self.stage is not None and not stage.startswith(self.stage):
            return
        if self.mode in WORKER_FAULT_MODES:
            self._fire_worker_fault(stage)
            return
        self.fired = True
        self.fired_at_stage = stage
        if self.mode == "kill":
            raise SimulatedKill(governor.ticks)
        governor.inject(
            BudgetExceeded(
                f"fault:{self.mode}",
                stage=stage,
                limit=self.at_tick,
                observed=governor.ticks,
            )
        )

    def _fire_worker_fault(self, stage: str) -> None:
        """Fire a real process failure — inside a pool worker only.

        Without :attr:`shared_flag` this is a no-op: the parent's plan
        object carries the mode but must never kill the parent.  With
        the flag, the first worker whose checkpoint reaches ``at_tick``
        claims it under the lock; every later worker (including the
        respawned one retrying the lost shard) sees it set and stays
        healthy, so the fault is exactly-once per plan.
        """
        flag = self.shared_flag
        if flag is None:
            return
        with flag.get_lock():
            if flag.value:
                return
            flag.value = 1
        self.fired = True
        self.fired_at_stage = stage
        if self.mode == "worker_kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if self.mode == "worker_oom":
            os._exit(137)  # the status a kernel OOM kill leaves behind
        while True:  # worker_hang: heartbeat freezes; supervisor must act
            time.sleep(0.05)
