"""Persistent process pool with budget propagation and deterministic merge.

One :class:`WorkerPool` serves the whole process: hot paths submit
batches of task payloads (:meth:`WorkerPool.map_tasks`) and always get
results back **in payload order**, which is what makes every parallel
code path's merge step deterministic regardless of worker scheduling.

Design points, each load-bearing:

* **Persistent workers** — processes are forked once (spawn on
  platforms without fork) and reused across batches, so per-relation
  state (shared-memory attachments, worker-side ``PLICache``) amortizes
  over a whole discovery run instead of being rebuilt per task.
* **Budget propagation** — each batch snapshots the ambient
  :class:`~repro.runtime.governor.Governor` (remaining deadline, memory
  ceiling) and workers enforce it in their own governor at their own
  cooperative checkpoints.  A worker breach cancels the rest of the
  batch (a shared event every worker governor polls) and surfaces in
  the parent as an ordinary :class:`BudgetExceeded`, so every existing
  salvage/degradation path works unchanged.  The workers' ticks are
  folded into the parent's governor at the batch merge.
* **Parent stays cooperative** — while waiting for results the parent
  keeps ticking its own checkpoints, so deadlines, and in particular
  injected faults (``FaultPlan`` kills), still fire *mid-shard*; an
  epoch counter lets the pool discard the orphaned batch afterwards and
  stay usable for the resumed run.
* **Self-healing under worker failure** — every task is assigned to a
  specific worker through its private queue (so a death names the lost
  shard), the wait loop's bounded gets interleave supervision passes
  (``Process.exitcode`` + heartbeat checks, see
  :mod:`repro.parallel.supervisor`), dead workers are respawned and
  their shard retried, payloads that kill :data:`supervisor_mod.TASK_DEATH_LIMIT`
  workers are quarantined onto the in-process serial path, and
  repeated respawn failure disables the pool for the rest of the run
  (serial fallback, recorded in :class:`PoolStats`).  All of this is
  invisible to results: handlers are pure functions of their payloads,
  so a retried or quarantined shard merges byte-identically.
* **Fork hygiene** — workers reset inherited process state on start
  (ambient governor, the partition probe buffer, any shared-memory
  attachments, the parent's signal handlers) via
  :func:`_reset_worker_state`; nested pools are refused
  (:func:`repro.parallel.resolve_workers` reports 1 inside a worker).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass

from repro.parallel import supervisor as supervisor_mod
from repro.parallel.supervisor import WorkerSupervisor
from repro.runtime.errors import (
    BudgetExceeded,
    InputError,
    ReproError,
    WorkerCrashError,
)
from repro.runtime.governor import (
    Budget,
    Governor,
    activate,
    checkpoint,
    current_governor,
)

__all__ = [
    "PoolStats",
    "WorkerCrashError",
    "WorkerError",
    "WorkerPool",
    "get_pool",
    "should_parallelize",
    "shutdown_pool",
]

#: Minimum estimated work units (roughly rows × candidates) below which
#: a hot path stays serial — small inputs must not pay pool overhead.
#: Read at call time so tests can monkeypatch it to force either path.
SERIAL_THRESHOLD = 50_000

#: How often an idle worker checks that its parent still lives.  A
#: SIGKILLed parent sends no stop sentinel, so a worker that waited on
#: its queue alone would live on as an orphan.
PARENT_CHECK_SECONDS = 1.0

_IN_WORKER = False  # set in forked/spawned children; forbids nesting


class WorkerError(RuntimeError):
    """A task raised an unexpected exception inside a worker.

    ``remote_traceback`` carries the worker-side formatted traceback;
    it is also chained as ``__cause__`` (via :class:`_RemoteTraceback`)
    so the parent's traceback display shows the real failing frame
    instead of the queue plumbing.
    """

    def __init__(self, message: str, remote_traceback: str | None = None) -> None:
        self.remote_traceback = remote_traceback
        super().__init__(message)


class _RemoteTraceback(Exception):
    """Carrier for a worker's traceback text, used as ``__cause__``."""

    def __init__(self, text: str) -> None:
        self.text = text
        super().__init__(text)

    def __str__(self) -> str:
        return f"\n\"\"\"\n{self.text}\"\"\""


class _Cancelled(Exception):
    """Internal: the batch was cancelled while this task ran."""


class _RawFlag:
    """A lock-free cross-process boolean (single writer: the parent).

    Deliberately *not* a ``multiprocessing.Event``: every Event/Value
    accessor takes a cross-process lock, and a worker SIGKILLed inside
    that window would strand the lock for the whole process family.
    A raw shared int has no such window — workers only ever read it.
    """

    __slots__ = ("_value",)

    def __init__(self, ctx) -> None:
        self._value = ctx.Value("i", 0, lock=False)

    def set(self) -> None:
        self._value.value = 1

    def clear(self) -> None:
        self._value.value = 0

    def is_set(self) -> bool:
        return bool(self._value.value)


def should_parallelize(work_units: int, workers: int) -> bool:
    """Cost model: is ``work_units`` worth dispatching to ``workers``?

    ``work_units`` approximates rows × candidates of the section; the
    threshold keeps tiny inputs (most unit tests, small relations) on
    the serial path where they are faster anyway.
    """
    return workers > 1 and not _IN_WORKER and work_units >= SERIAL_THRESHOLD


@dataclass(slots=True)
class PoolStats:
    """Counters of one pool (cumulative; snapshot with :meth:`copy`)."""

    workers: int = 0
    batches: int = 0
    tasks_dispatched: int = 0
    serial_fallbacks: int = 0
    cancelled_tasks: int = 0
    #: rows shipped through task payloads is zero by design; these count
    #: the shared-memory side instead
    attach_seconds: float = 0.0
    export_seconds: float = 0.0
    largest_shard: int = 0
    shard_items: int = 0
    #: supervision counters (docs/PARALLEL.md failure-modes matrix)
    respawns: int = 0
    retries: int = 0
    quarantined: int = 0
    heartbeat_misses: int = 0
    in_process_tasks: int = 0
    worker_faults_fired: int = 0
    pool_disabled: int = 0  # 0/1: the pool gave up and went serial

    def copy(self) -> "PoolStats":
        return PoolStats(
            workers=self.workers,
            batches=self.batches,
            tasks_dispatched=self.tasks_dispatched,
            serial_fallbacks=self.serial_fallbacks,
            cancelled_tasks=self.cancelled_tasks,
            attach_seconds=self.attach_seconds,
            export_seconds=self.export_seconds,
            largest_shard=self.largest_shard,
            shard_items=self.shard_items,
            respawns=self.respawns,
            retries=self.retries,
            quarantined=self.quarantined,
            heartbeat_misses=self.heartbeat_misses,
            in_process_tasks=self.in_process_tasks,
            worker_faults_fired=self.worker_faults_fired,
            pool_disabled=self.pool_disabled,
        )

    def delta_since(self, mark: "PoolStats") -> "PoolStats":
        return PoolStats(
            workers=self.workers,
            batches=self.batches - mark.batches,
            tasks_dispatched=self.tasks_dispatched - mark.tasks_dispatched,
            serial_fallbacks=self.serial_fallbacks - mark.serial_fallbacks,
            cancelled_tasks=self.cancelled_tasks - mark.cancelled_tasks,
            attach_seconds=self.attach_seconds - mark.attach_seconds,
            export_seconds=self.export_seconds - mark.export_seconds,
            largest_shard=self.largest_shard,
            shard_items=self.shard_items - mark.shard_items,
            respawns=self.respawns - mark.respawns,
            retries=self.retries - mark.retries,
            quarantined=self.quarantined - mark.quarantined,
            heartbeat_misses=self.heartbeat_misses - mark.heartbeat_misses,
            in_process_tasks=self.in_process_tasks - mark.in_process_tasks,
            worker_faults_fired=self.worker_faults_fired,
            pool_disabled=self.pool_disabled,
        )

    def as_dict(self) -> dict[str, int]:
        """Integer counters for ``DataProfile.counters`` (times in µs)."""
        return {
            "pool_workers": self.workers,
            "pool_batches": self.batches,
            "pool_tasks": self.tasks_dispatched,
            "pool_serial_fallbacks": self.serial_fallbacks,
            "pool_cancelled_tasks": self.cancelled_tasks,
            "pool_attach_us": int(self.attach_seconds * 1e6),
            "pool_export_us": int(self.export_seconds * 1e6),
            "pool_largest_shard": self.largest_shard,
            "pool_shard_items": self.shard_items,
            "pool_respawns": self.respawns,
            "pool_retries": self.retries,
            "pool_quarantined": self.quarantined,
            "pool_heartbeat_misses": self.heartbeat_misses,
            "pool_in_process_tasks": self.in_process_tasks,
            "pool_worker_faults": self.worker_faults_fired,
            "pool_disabled": self.pool_disabled,
        }


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _WorkerGovernor(Governor):
    """A worker's governor: the propagated budget, the cancel event, the
    heartbeat slot this worker stamps at every probe, and the pid of the
    parent whose death cancels the task."""

    __slots__ = ("cancel_event", "heartbeats", "worker_slot", "parent_pid")

    def __init__(
        self,
        budget: Budget,
        cancel_event,
        heartbeats=None,
        worker_slot: int = 0,
        parent_pid: int | None = None,
    ) -> None:
        super().__init__(budget)
        self.cancel_event = cancel_event
        self.heartbeats = heartbeats
        self.worker_slot = worker_slot
        self.parent_pid = parent_pid

    def _probe(self, stage: str) -> None:
        if self.heartbeats is not None:
            self.heartbeats[self.worker_slot] = time.monotonic()
        if self.cancel_event is not None and self.cancel_event.is_set():
            raise _Cancelled(stage)
        if self.parent_pid is not None and os.getppid() != self.parent_pid:
            raise _Cancelled(stage)
        super()._probe(stage)


def _reset_worker_state() -> None:
    """Reset process state a forked child inherited from the parent.

    Forked workers share the parent's module globals by copy; anything
    that is (a) mutable and (b) semantically owned by the *run* rather
    than the *process* must be cleared so no parent state leaks into
    worker computations:

    * the ambient governor (a worker must never tick the parent's
      budget object — it gets its own per task),
    * the partition probe buffer (could hold in-flight entries if the
      fork ever raced an intersect; cleared defensively),
    * worker-side relation caches from a previous pool generation
      (only relevant after fork-from-worker, which is refused anyway),
    * the signal handlers: SIGTERM ends a worker silently, and SIGINT
      (which a terminal's Ctrl-C sends the whole process group) is
      ignored, so the parent's teardown is the only shutdown path and
      no worker prints a traceback from a handler it inherited.  Both
      were blocked across the fork (``WorkerSupervisor._spawn``), and
      are unblocked only once these handlers are in place.

    Parent ``RelationInstance`` codes and ``PLICache`` objects need no
    reset: workers never see parent instances — row data only ever
    arrives via shared memory.
    """
    global _IN_WORKER, _POOL
    _IN_WORKER = True
    _POOL = None  # never reuse the parent's pool object (inherited queues)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, supervisor_mod.SHUTDOWN_SIGNALS)
    from repro.runtime import governor as governor_module
    from repro.structures import partitions as partitions_module

    governor_module._ACTIVE = None
    partitions_module.reset_process_state()
    from repro.parallel import tasks as tasks_module

    tasks_module.reset_worker_caches()


def _budget_from_snapshot(
    snapshot: dict | None,
    cancel_event,
    heartbeats=None,
    worker_slot: int = 0,
    parent_pid: int | None = None,
) -> _WorkerGovernor:
    if snapshot is None:
        budget = Budget()
    else:
        remaining = snapshot.get("deadline_remaining")
        budget = Budget(
            deadline_seconds=max(remaining, 1e-6) if remaining is not None else None,
            max_memory_bytes=snapshot.get("max_memory_bytes"),
            check_interval=snapshot.get("check_interval", 256),
        )
    return _WorkerGovernor(budget, cancel_event, heartbeats, worker_slot, parent_pid)


def _describe_remote_error(exc: BaseException) -> dict:
    """Picklable description of a worker exception.

    The formatted traceback always travels (chained into the parent's
    raise so error reports show the real failing frame); taxonomy
    errors additionally travel pickled so the parent can re-raise the
    *original* type and the CLI exit codes stay truthful.
    """
    info = {
        "type": type(exc).__name__,
        "traceback": traceback.format_exc(),
        "pickled": None,
    }
    if isinstance(exc, ReproError):
        try:
            info["pickled"] = pickle.dumps(exc)
        except Exception:  # pragma: no cover - unpicklable payload attrs
            pass
    return info


def _worker_fault_plan(fault: dict, fault_flag):
    """Rebuild the parent's worker-level fault plan inside a worker."""
    from repro.runtime.faults import FaultPlan

    plan = FaultPlan(
        mode=fault["mode"], at_tick=fault["at_tick"], stage=fault.get("stage")
    )
    plan.shared_flag = fault_flag
    return plan


def _post_result(writer, message: tuple) -> None:
    """Frame and send one result tuple; never lose the shard to pickle.

    An unpicklable task value is downgraded to an ``"error"`` message
    (with the pickle failure's traceback) instead of crashing the
    worker — the parent then raises a proper :class:`WorkerError`
    rather than retrying a payload that can never report back.
    """
    try:
        payload = pickle.dumps(message)
    except Exception as exc:
        payload = pickle.dumps(
            (message[0], message[1], message[2], "error", _describe_remote_error(exc))
        )
    supervisor_mod.write_frame(writer, payload)


def _worker_main(
    worker_id,
    tasks_queue,
    result_writer,
    cancel_flag,
    epoch_value,
    heartbeats,
    fault_flag,
) -> None:
    """Worker loop: pull ``(epoch, index, kind, payload, budget, fault)``
    from this worker's private queue.

    ``fault`` is the optional worker-level fault descriptor
    (mode/at_tick/stage); it is armed with the shared once-only flag so
    exactly one worker per plan actually misbehaves.

    Results go back as ``(worker_id, epoch, index, status, value)``
    frames over this worker's private result pipe; the heartbeat slot
    is stamped at task start and end (the governor stamps it mid-task
    at every probe).

    The worker exits once its parent is gone (it was reparented): an
    idle worker checks every :data:`PARENT_CHECK_SECONDS`, a busy one at
    every governor probe, abandoning its task.
    """
    _reset_worker_state()
    from repro.parallel.tasks import handler, worker_attach_seconds

    parent_pid = multiprocessing.parent_process().pid
    while True:
        try:
            item = tasks_queue.get(timeout=PARENT_CHECK_SECONDS)
        except queue.Empty:
            if os.getppid() == parent_pid:
                continue
            break
        if item is None:
            break
        epoch, index, kind, payload, budget_snapshot, fault = item
        heartbeats[worker_id] = time.monotonic()
        if epoch < epoch_value.value or cancel_flag.is_set():
            _post_result(result_writer, (worker_id, epoch, index, "cancelled", None))
            continue
        governor = _budget_from_snapshot(
            budget_snapshot, cancel_flag, heartbeats, worker_id, parent_pid
        )
        if fault is not None:
            governor.fault_plan = _worker_fault_plan(fault, fault_flag)
        attach_before = worker_attach_seconds()
        try:
            with activate(governor):
                value = handler(kind)(payload)
            _post_result(
                result_writer,
                (
                    worker_id,
                    epoch,
                    index,
                    "ok",
                    (
                        value,
                        governor.ticks,
                        worker_attach_seconds() - attach_before,
                    ),
                ),
            )
        except BudgetExceeded as exc:
            _post_result(
                result_writer,
                (
                    worker_id,
                    epoch,
                    index,
                    "budget",
                    {
                        "reason": exc.reason,
                        "stage": exc.stage,
                        "limit": exc.limit,
                        "observed": exc.observed,
                    },
                ),
            )
        except _Cancelled:
            if os.getppid() != parent_pid:
                break
            _post_result(result_writer, (worker_id, epoch, index, "cancelled", None))
        except Exception as exc:
            _post_result(
                result_writer,
                (worker_id, epoch, index, "error", _describe_remote_error(exc)),
            )
        heartbeats[worker_id] = time.monotonic()
    from repro.parallel.tasks import reset_worker_caches

    reset_worker_caches()  # close shared-memory attachments


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _BatchState:
    """Parent-side bookkeeping of one in-flight batch."""

    __slots__ = (
        "kind",
        "payloads",
        "results",
        "done",
        "deaths",
        "queued",
        "pending",
        "breach",
        "error",
        "ticks",
    )

    def __init__(self, kind: str, payloads: list) -> None:
        self.kind = kind
        self.payloads = payloads
        self.results: list = [None] * len(payloads)
        self.done = [False] * len(payloads)
        self.deaths = [0] * len(payloads)  # workers killed per payload
        self.queued = deque(range(len(payloads)))
        self.pending = len(payloads)
        self.breach: dict | None = None
        self.error: dict | None = None
        self.ticks = 0

    def finish(self, index: int) -> None:
        self.done[index] = True
        self.pending -= 1


class WorkerPool:
    """A fixed-size persistent pool dispatching named task batches."""

    def __init__(self, workers: int, strict: bool | None = None) -> None:
        if workers < 1:
            raise InputError("worker count must be >= 1")
        if _IN_WORKER:
            raise InputError("nested worker pools are not allowed")
        if strict is None:
            strict = os.environ.get("REPRO_POOL_STRICT", "").strip() in (
                "1",
                "true",
                "yes",
            )
        self.workers = workers
        self.strict = strict
        self.stats = PoolStats(workers=workers)
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self._supervisor: WorkerSupervisor | None = None
        self._cancel = None
        self._epoch_value = None
        self._fault_flag = None
        self._epoch = 0
        self._closed = False
        self._disabled = False

    @property
    def _procs(self) -> list:
        """The live worker processes (kept for tests/diagnostics)."""
        if self._supervisor is None:
            return []
        return [slot.proc for slot in self._supervisor.slots if slot.proc is not None]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    @property
    def disabled(self) -> bool:
        """True once the pool gave up on workers for the rest of the run."""
        return self._disabled

    def ensure_started(self) -> None:
        if self._closed:
            raise InputError("worker pool is closed")
        if self._disabled:
            return  # in-process mode: no workers to start
        if self._supervisor is not None:
            self._reap_dead()
            return
        from repro.parallel.shm import reap_orphan_segments

        reap_orphan_segments()
        self._cancel = _RawFlag(self._ctx)
        # Raw (lock-free) on purpose: the parent is the only writer and
        # a synchronized Value's lock could be stranded by worker death.
        self._epoch_value = self._ctx.Value("L", 0, lock=False)
        self._fault_flag = self._ctx.Value("i", 0)
        self._supervisor = WorkerSupervisor(
            self._ctx,
            self.workers,
            _worker_main,
            self._cancel,
            self._epoch_value,
            self._fault_flag,
            self.stats,
        )
        self._supervisor.start()

    def _reap_dead(self) -> None:
        """Replace workers that died between batches (e.g. OOM-killed)."""
        for slot in self._supervisor.slots:
            if not slot.alive:
                self._supervisor.drain(slot)  # discard: no batch in flight
                self._supervisor.complete(slot)
                if not self._supervisor.respawn(slot):
                    self._disable("respawn failed while reaping dead workers")
                    return

    def close(self) -> None:
        """Terminate workers and drop queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.shutdown()
            self._supervisor = None
        from repro.parallel.tasks import reset_worker_caches

        # Quarantined/in-process shards may have attached segments in
        # the parent; release those mappings with the pool.
        if not _IN_WORKER:
            reset_worker_caches()

    def _disable(self, reason: str) -> None:
        """Give up on workers for the rest of the run (serial fallback)."""
        if self._disabled:
            return
        self._disabled = True
        self.stats.pool_disabled = 1
        if self._supervisor is not None:
            self._supervisor.shutdown(terminate=True)
            self._supervisor = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def map_tasks(self, kind: str, payloads: list, stage: str = "parallel") -> list:
        """Run one batch; return per-payload results in payload order.

        Raises :class:`BudgetExceeded` when any worker breached its
        propagated budget (after cancelling the rest of the batch),
        :class:`WorkerError` on an unexpected worker exception (the
        remote traceback chained as the cause), and
        :class:`WorkerCrashError` only in strict mode — by default a
        dead or hung worker is respawned and its shard retried or
        quarantined, so the batch still completes with the serial
        result.  The parent keeps ticking its own checkpoints while
        waiting, so parent-side budget breaches and injected faults
        fire mid-shard; the batch is then orphaned via the epoch
        counter and the pool remains usable.
        """
        if not payloads:
            return []
        self.ensure_started()
        if self._disabled:
            self.stats.batches += 1
            return [
                self._execute_in_process(kind, payload, stage)
                for payload in payloads
            ]
        self._epoch += 1
        epoch = self._epoch
        self._epoch_value.value = epoch
        self._cancel.clear()

        governor = current_governor()
        snapshot = _governor_snapshot(governor)
        plan = governor.fault_plan if governor is not None else None
        fault = self._worker_fault_descriptor(plan)

        self.stats.batches += 1
        self.stats.tasks_dispatched += len(payloads)
        self.stats.largest_shard = max(self.stats.largest_shard, len(payloads))

        state = _BatchState(kind, payloads)

        def make_item(index: int):
            return (
                epoch,
                index,
                kind,
                payloads[index],
                snapshot,
                fault,
            )

        try:
            while state.pending:
                if self._disabled:
                    # Respawn gave up mid-batch: finish what the workers
                    # never returned on the in-process serial path.
                    self._finish_in_process(state, stage)
                    break
                self._schedule(state, make_item)
                items = self._supervisor.poll_results(
                    supervisor_mod.POLL_INTERVAL
                )
                if not items:
                    checkpoint(stage)
                    self._supervise(state, epoch, stage)
                    continue
                for item in items:
                    self._consume(state, epoch, item)
        except BaseException:
            # Parent-side breach/fault while waiting: orphan the batch.
            if self._cancel is not None:
                self._cancel.set()
            raise
        finally:
            if self._cancel is not None:
                self._cancel.clear()
            self._note_worker_fault(plan, fault)

        if state.error is not None:
            self._raise_worker_error(kind, state.error)
        if state.breach is not None:
            raise BudgetExceeded(
                state.breach["reason"],
                stage=state.breach["stage"] or stage,
                limit=state.breach["limit"],
                observed=state.breach["observed"],
            )
        # The workers' ticks count against the parent's budget too; the
        # fold probes it when a probe is due.
        checkpoint(stage, units=state.ticks)
        return state.results

    # -- batch plumbing ------------------------------------------------
    def _schedule(self, state: _BatchState, make_item) -> None:
        """Hand queued payloads to idle workers, one in flight each."""
        while state.queued:
            slot = self._supervisor.idle_slot()
            if slot is None:
                return
            index = state.queued.popleft()
            if state.done[index]:
                continue  # a duplicate result beat the retry to it
            self._supervisor.assign(slot, make_item(index), self._epoch, index)

    def _consume(self, state: _BatchState, epoch: int, item) -> None:
        """Fold one result message into the batch state."""
        worker_id, got_epoch, index, status, value = item
        sup = self._supervisor
        if sup is not None:
            slot = sup.slot_by_id(worker_id)
            if (
                slot is not None
                and slot.busy
                and slot.epoch == got_epoch
                and slot.index == index
            ):
                sup.complete(slot)
        if got_epoch != epoch:
            return  # orphaned result of an interrupted batch
        if state.done[index]:
            return  # duplicate after a conservative retry
        if status == "ok":
            task_value, task_ticks, attach = value
            state.results[index] = task_value
            state.ticks += task_ticks
            self.stats.attach_seconds += attach
        elif status == "budget":
            state.breach = state.breach or value
            self._cancel.set()
        elif status == "cancelled":
            self.stats.cancelled_tasks += 1
        else:  # "error"
            state.error = state.error or value
            self._cancel.set()
        state.finish(index)

    def _supervise(self, state: _BatchState, epoch: int, stage: str) -> None:
        """Death/hang sweep, run whenever the result queue is quiet."""
        sup = self._supervisor
        if sup is None:
            return
        now = time.monotonic()
        for slot in list(sup.slots):
            if self._disabled:
                return
            alive = slot.alive
            if alive and sup.is_hung(slot, now):
                self.stats.heartbeat_misses += 1
                sup.kill(slot)
                alive = False
            if not alive:
                self._handle_death(state, slot, epoch, stage)
        if state.pending and not state.queued and sup.busy_count(epoch) == 0:
            # Defensive: nothing queued, nothing in flight, work remains
            # (e.g. an assignment raced a death) — requeue the leftovers.
            for index, is_done in enumerate(state.done):
                if not is_done:
                    state.queued.append(index)

    def _handle_death(
        self, state: _BatchState, slot, epoch: int, stage: str
    ) -> None:
        """Recover from one dead worker: respawn + retry or quarantine."""
        sup = self._supervisor
        # A worker that posted its result and *then* died completes its
        # shard here — only genuinely unreported work is retried.
        for item in sup.drain(slot):
            self._consume(state, epoch, item)
        exitcode = slot.proc.exitcode if slot.proc is not None else None
        lost_index = None
        if slot.busy and slot.epoch == epoch and slot.index is not None:
            if not state.done[slot.index]:
                lost_index = slot.index
        sup.complete(slot)
        if lost_index is not None:
            state.deaths[lost_index] += 1
        if self.strict:
            raise WorkerCrashError(
                f"worker {slot.id} died (exitcode {exitcode}) while running "
                f"task {state.kind!r} shard {lost_index}; strict mode "
                "(REPRO_POOL_STRICT) forbids recovery",
                task_kind=state.kind,
                payload_index=lost_index,
                exitcode=exitcode,
                deaths=state.deaths[lost_index] if lost_index is not None else 0,
            )
        if not sup.respawn(slot):
            self._disable(
                f"worker respawn failed or exceeded the limit of "
                f"{supervisor_mod.RESPAWN_LIMIT}"
            )
        if lost_index is None:
            return
        if self._cancel.is_set():
            # The batch is already being torn down (breach/error): the
            # lost shard would only come back "cancelled" anyway.
            self.stats.cancelled_tasks += 1
            state.finish(lost_index)
            return
        if state.deaths[lost_index] >= supervisor_mod.TASK_DEATH_LIMIT:
            self._quarantine(state, lost_index, stage)
        else:
            self.stats.retries += 1
            state.queued.appendleft(lost_index)

    def _quarantine(self, state: _BatchState, index: int, stage: str) -> None:
        """A payload that keeps killing workers runs in-process instead.

        Handlers are pure functions of payload + shared segment, so the
        in-process execution produces the byte-identical result — the
        shard just loses its parallelism, not its correctness.
        """
        self.stats.quarantined += 1
        state.results[index] = self._execute_in_process(
            state.kind, state.payloads[index], stage
        )
        state.finish(index)

    def _finish_in_process(self, state: _BatchState, stage: str) -> None:
        """Run every not-yet-done payload serially (pool disabled)."""
        for index in range(len(state.payloads)):
            if state.done[index]:
                continue
            state.results[index] = self._execute_in_process(
                state.kind, state.payloads[index], stage
            )
            state.finish(index)

    def _execute_in_process(self, kind: str, payload, stage: str):
        """Run one task handler in the parent, under the ambient governor.

        The parent's own governor ticks advance directly (no fold-back
        needed) and budget breaches propagate as usual; any other
        exception is wrapped like a worker error.
        """
        from repro.parallel.tasks import handler

        self.stats.in_process_tasks += 1
        try:
            return handler(kind)(payload)
        except ReproError:
            raise
        except Exception as exc:
            raise WorkerError(
                f"worker task {kind!r} failed during in-process fallback"
            ) from exc

    def _raise_worker_error(self, kind: str, info: dict) -> None:
        """Re-raise a worker exception with its remote traceback chained."""
        cause = _RemoteTraceback(info.get("traceback", ""))
        pickled = info.get("pickled")
        if pickled is not None:
            try:
                original = pickle.loads(pickled)
            except Exception:  # pragma: no cover - stale pickle
                original = None
            if isinstance(original, ReproError):
                raise original from cause
        raise WorkerError(
            f"worker task {kind!r} failed with {info.get('type', 'Exception')}",
            remote_traceback=info.get("traceback"),
        ) from cause

    # -- worker-level fault injection ----------------------------------
    def _worker_fault_descriptor(self, plan) -> dict | None:
        """The fault descriptor to ship with this batch's tasks, if any."""
        if plan is None or plan.fired:
            return None
        from repro.runtime.faults import WORKER_FAULT_MODES

        if plan.mode not in WORKER_FAULT_MODES:
            return None
        if self._fault_flag is None or self._fault_flag.value:
            return None
        return {"mode": plan.mode, "at_tick": plan.at_tick, "stage": plan.stage}

    def _note_worker_fault(self, plan, fault: dict | None) -> None:
        """Fold the shared fired-flag back into the parent's plan."""
        if fault is None or self._fault_flag is None:
            return
        if self._fault_flag.value and plan is not None and not plan.fired:
            plan.fired = True
            if not plan.fired_at_stage:
                plan.fired_at_stage = "worker"
            self.stats.worker_faults_fired += 1


def _governor_snapshot(governor: Governor | None) -> dict | None:
    if governor is None:
        return None
    return {
        "deadline_remaining": governor.remaining_seconds(),
        "max_memory_bytes": governor.budget.max_memory_bytes,
        "check_interval": governor.budget.check_interval,
    }


# ----------------------------------------------------------------------
# The process-wide pool singleton
# ----------------------------------------------------------------------
_POOL: WorkerPool | None = None
_SHUTDOWN_AT_EXIT = False  # shutdown_pool is registered with atexit


def get_pool(workers: int) -> WorkerPool:
    """Return the shared pool, (re)creating it at the requested size.

    The first pool of a process registers :func:`shutdown_pool` to run
    at exit; later pools reuse that one hook.
    """
    global _POOL, _SHUTDOWN_AT_EXIT
    if _POOL is not None and (_POOL.workers != workers or _POOL._closed):
        if not _POOL._closed:
            _POOL.close()
        _POOL = None
    if _POOL is None:
        _POOL = WorkerPool(workers)
        if not _SHUTDOWN_AT_EXIT:
            # atexit runs hooks last in, first out, and importing
            # multiprocessing.util registers the hook that SIGTERMs
            # daemon workers.  Registered after it, shutdown_pool runs
            # first and stops the workers with sentinels instead.
            import multiprocessing.util  # noqa: F401

            atexit.register(shutdown_pool)
            _SHUTDOWN_AT_EXIT = True
    return _POOL


def shutdown_pool() -> None:
    """Close the shared pool (idempotent; registered atexit).

    Also releases any shared-memory segments this process still owns
    and reaps segments orphaned by dead processes, so a full teardown
    leaves ``/dev/shm`` clean.
    """
    global _POOL
    from repro.parallel.shm import reap_orphan_segments, release_owned_segments

    pool, _POOL = _POOL, None
    try:
        if pool is not None:
            pool.close()
    finally:
        release_owned_segments()
        reap_orphan_segments()


def pool_stats() -> PoolStats | None:
    """The shared pool's cumulative stats (None before first use)."""
    return None if _POOL is None else _POOL.stats
