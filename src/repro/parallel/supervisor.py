"""Worker supervision: heartbeats, death/hang detection, respawn.

The pool's original failure model was "workers live forever": a worker
killed by the OOM killer, a segfaulting native call, or a hung child
left ``WorkerPool.map_tasks`` blocked on a result that would never
arrive.  This module owns the *process* side of the self-healing
design (``docs/PARALLEL.md`` has the failure-modes matrix):

* **One queue per worker.**  Tasks are handed to a specific
  :class:`WorkerSlot`, one in flight at a time, so when a worker dies
  the parent knows *exactly* which shard died with it — a shared task
  queue cannot attribute in-flight work.
* **Heartbeats.**  Workers stamp ``time.monotonic()`` into a shared
  double array at task start/end and at every governor probe (every
  ``check_interval`` ticks), so a busy-but-healthy worker on a long
  shard keeps beating.  A busy slot whose last beat (or assignment) is
  older than :data:`HANG_TIMEOUT` is declared hung and SIGKILLed —
  turning a hang into the crash case the rest of the machinery already
  handles.
* **Death detection.**  ``Process.is_alive()``/``exitcode`` checks run
  in the pool's bounded wait loop (every empty poll), so a death is
  noticed within one :data:`POLL_INTERVAL` even though the result
  queue stays silent.
* **Per-worker result pipes, self-framed.**  Results come back over
  a private pipe per worker as ``length || pickle`` frames that the
  parent reads *non-blocking* (``select`` + buffered parse).  No shared
  lock sits on the result path, so a worker SIGKILLed at any instant —
  even mid-write — can never strand a lock or leave the parent blocked
  on a truncated message (a partial frame is simply discarded with the
  dead worker; its shard is retried).  A shared
  ``multiprocessing.Queue`` cannot give this guarantee: its feeder
  thread takes a cross-process write lock, and a worker killed before
  the feeder releases it deadlocks every other worker's results.
* **Respawn with backoff.**  A dead slot gets a fresh queue and a
  fresh process; per-slot backoff grows with the slot's death count.
  :data:`RESPAWN_LIMIT` bounds total respawns per pool — past it (or
  on spawn failure) the pool disables itself and the run degrades to
  in-process execution, recorded in ``PoolStats``.

Retry accounting and poison-shard quarantine live in the pool's batch
loop (``pool.py``); this module knows processes, not payloads.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import time

from repro.runtime.errors import InputError

__all__ = [
    "HANG_TIMEOUT",
    "POLL_INTERVAL",
    "RESPAWN_BACKOFF",
    "RESPAWN_LIMIT",
    "SHUTDOWN_SIGNALS",
    "TASK_DEATH_LIMIT",
    "WorkerSlot",
    "WorkerSupervisor",
    "write_frame",
]


def write_frame(writer, payload: bytes) -> None:
    """Worker-side: one ``length || payload`` frame onto a result pipe.

    Raw ``os.write`` in a loop — no locks, no feeder thread — so the
    only process a mid-write SIGKILL can affect is the writer itself
    (the parent discards the truncated frame with the dead slot).
    """
    fd = writer.fileno()
    view = memoryview(struct.pack("!I", len(payload)) + payload)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _hang_timeout_default() -> float:
    raw = os.environ.get("REPRO_HANG_TIMEOUT", "").strip()
    if raw:
        try:
            value = float(raw)
        except ValueError:
            raise InputError(
                f"REPRO_HANG_TIMEOUT must be a number of seconds, got {raw!r}"
            ) from None
        if value <= 0:
            raise InputError("REPRO_HANG_TIMEOUT must be > 0")
        return value
    return 30.0


#: Seconds a busy worker may go without a heartbeat before it is
#: declared hung and SIGKILLed.  Generous by default — legitimate
#: shards beat every ``check_interval`` ticks, so only a genuinely
#: stuck worker (native-code loop, deadlock, injected ``worker_hang``)
#: ever gets this old.  Module attribute so tests and the chaos
#: campaign can lower it; ``REPRO_HANG_TIMEOUT`` overrides at import.
HANG_TIMEOUT = _hang_timeout_default()

#: A payload whose execution has killed this many workers is poisoned:
#: the pool stops feeding it to children and quarantines it onto the
#: in-process serial path.
TASK_DEATH_LIMIT = 2

#: Total respawns one pool will attempt before disabling itself.
RESPAWN_LIMIT = 16

#: Base respawn delay; multiplied by the slot's death count (capped).
RESPAWN_BACKOFF = 0.05

#: Bounded-get timeout of the pool's wait loop; also the cadence of
#: death/hang checks while results are quiet.
POLL_INTERVAL = 0.02

#: Blocked while a worker is created; the worker unblocks them after
#: replacing the handlers it inherited.
SHUTDOWN_SIGNALS = frozenset({signal.SIGINT, signal.SIGTERM})


class WorkerSlot:
    """One worker position: a process, its private task queue, its
    result pipe, and the parent-side bookkeeping of what it is running
    right now."""

    __slots__ = (
        "id",
        "proc",
        "queue",
        "reader",
        "rbuf",
        "busy",
        "epoch",
        "index",
        "assigned_at",
        "deaths",
    )

    def __init__(self, slot_id: int) -> None:
        self.id = slot_id
        self.proc = None
        self.queue = None
        self.reader = None  # parent end of this worker's result pipe
        self.rbuf = bytearray()  # partial-frame buffer for the pipe
        self.busy = False
        self.epoch = 0  # epoch of the currently assigned task
        self.index = None  # payload index of the currently assigned task
        self.assigned_at = 0.0
        self.deaths = 0  # how many processes died in this slot

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class WorkerSupervisor:
    """Owns the worker processes of one pool.

    The pool hands over everything a worker needs at spawn time (the
    shared results queue, cancel event, epoch counter, heartbeat array,
    and the worker-fault flag) so a respawned process is
    indistinguishable from an original one: it re-attaches shared
    memory lazily through the normal task path and picks up work from
    its fresh queue.
    """

    def __init__(
        self,
        ctx,
        workers: int,
        target,
        cancel_flag,
        epoch_value,
        fault_flag,
        stats,
    ) -> None:
        self._ctx = ctx
        self._target = target
        self._cancel = cancel_flag
        self._epoch_value = epoch_value
        self._fault_flag = fault_flag
        self._stats = stats
        self.heartbeats = ctx.Array("d", workers, lock=False)
        self.slots = [WorkerSlot(slot_id) for slot_id in range(workers)]

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def start(self) -> None:
        for slot in self.slots:
            self._spawn(slot)

    def _spawn(self, slot: WorkerSlot) -> None:
        old_queue = slot.queue
        old_reader = slot.reader
        slot.queue = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        slot.reader = reader
        slot.rbuf = bytearray()
        proc = self._ctx.Process(
            target=self._target,
            args=(
                slot.id,
                slot.queue,
                writer,
                self._cancel,
                self._epoch_value,
                self.heartbeats,
                self._fault_flag,
            ),
            daemon=True,
        )
        # The shutdown signals stay blocked from the fork until the slot
        # tracks the worker, so an interrupt cannot strand a worker the
        # parent has no record of.  The worker inherits the mask and
        # unblocks them once it has replaced the parent's handlers.
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, SHUTDOWN_SIGNALS)
        try:
            proc.start()
            slot.proc = proc
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        self.heartbeats[slot.id] = time.monotonic()
        # The child owns the write end now; other (earlier-forked)
        # workers may still hold inherited copies, which is why death
        # detection rests on exitcodes, not EOF.
        writer.close()
        if old_queue is not None:
            # A replaced queue may hold an undelivered task; never let
            # its feeder thread block interpreter exit over it.
            try:
                old_queue.cancel_join_thread()
                old_queue.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        if old_reader is not None:
            try:
                old_reader.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass

    def respawn(self, slot: WorkerSlot) -> bool:
        """Replace a dead slot's process; False = give up (disable pool)."""
        slot.deaths += 1
        self._stats.respawns += 1
        if self._stats.respawns > RESPAWN_LIMIT:
            return False
        time.sleep(min(RESPAWN_BACKOFF * slot.deaths, 0.25))
        try:
            self._spawn(slot)
        except OSError:  # pragma: no cover - fork/pipe exhaustion
            return False
        return True

    # ------------------------------------------------------------------
    # Assignment bookkeeping
    # ------------------------------------------------------------------
    def slot_by_id(self, worker_id: int) -> WorkerSlot | None:
        if 0 <= worker_id < len(self.slots):
            return self.slots[worker_id]
        return None

    def idle_slot(self) -> WorkerSlot | None:
        for slot in self.slots:
            if not slot.busy and slot.alive:
                return slot
        return None

    def assign(self, slot: WorkerSlot, item, epoch: int, index: int) -> None:
        slot.busy = True
        slot.epoch = epoch
        slot.index = index
        slot.assigned_at = time.monotonic()
        slot.queue.put(item)

    def complete(self, slot: WorkerSlot) -> None:
        slot.busy = False
        slot.index = None

    def busy_count(self, epoch: int) -> int:
        return sum(1 for slot in self.slots if slot.busy and slot.epoch == epoch)

    # ------------------------------------------------------------------
    # Result pipes
    # ------------------------------------------------------------------
    def poll_results(self, timeout: float) -> list:
        """Messages from every worker whose result pipe has data.

        Non-blocking by construction: ``select`` names the readable
        pipes, one ``os.read`` per pipe takes whatever bytes are there,
        and only *complete* frames are decoded — a truncated frame from
        a worker killed mid-write just sits in the slot buffer until
        the death sweep discards it with the slot.
        """
        readers = {
            slot.reader.fileno(): slot for slot in self.slots if slot.reader
        }
        if not readers:
            time.sleep(timeout)
            return []
        try:
            ready, _, _ = select.select(list(readers), [], [], timeout)
        except OSError:  # pragma: no cover - raced a respawn's close
            return []
        messages: list = []
        for fd in ready:
            frames, _ = self._read_frames(readers[fd])
            messages.extend(frames)
        return messages

    def drain(self, slot: WorkerSlot) -> list:
        """Everything currently readable from one slot's pipe.

        Used by the death handler before respawning: a worker that
        posted its result and *then* died completes its shard here
        instead of being counted as lost.
        """
        messages: list = []
        if slot.reader is None:
            return messages
        while True:
            try:
                ready, _, _ = select.select([slot.reader.fileno()], [], [], 0)
            except OSError:  # pragma: no cover - closed under us
                break
            if not ready:
                break
            frames, grew = self._read_frames(slot)
            messages.extend(frames)
            if not grew:
                break  # EOF: nothing more will ever arrive
        return messages

    def _read_frames(self, slot: WorkerSlot) -> tuple[list, bool]:
        """One ``os.read`` into the slot buffer, then every whole frame.

        Returns ``(messages, got_bytes)``; ``got_bytes`` is False at
        EOF so drain loops can stop.
        """
        try:
            chunk = os.read(slot.reader.fileno(), 1 << 20)
        except OSError:  # pragma: no cover - pipe torn down under us
            chunk = b""
        if chunk:
            slot.rbuf.extend(chunk)
        messages: list = []
        buf = slot.rbuf
        while len(buf) >= 4:
            (length,) = struct.unpack_from("!I", buf, 0)
            if len(buf) < 4 + length:
                break
            payload = bytes(buf[4 : 4 + length])
            del buf[: 4 + length]
            try:
                messages.append(pickle.loads(payload))
            except Exception:  # pragma: no cover - corrupt frame
                continue
        return messages, bool(chunk)

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def is_hung(self, slot: WorkerSlot, now: float) -> bool:
        """A busy slot whose heartbeat and assignment are both stale."""
        if not slot.busy:
            return False
        last_sign_of_life = max(self.heartbeats[slot.id], slot.assigned_at)
        return (now - last_sign_of_life) > HANG_TIMEOUT

    def kill(self, slot: WorkerSlot) -> None:
        """SIGKILL a (hung) worker; the caller then treats it as dead."""
        proc = slot.proc
        if proc is None or proc.pid is None:
            return
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):  # pragma: no cover - raced
            pass
        proc.join(5.0)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def shutdown(self, terminate: bool = False) -> None:
        """Stop every worker: sentinels + join, or terminate outright."""
        for slot in self.slots:
            if slot.proc is None:
                continue
            if not terminate and slot.proc.is_alive():
                try:
                    slot.queue.put(None)
                except Exception:  # pragma: no cover - broken pipe
                    pass
        for slot in self.slots:
            if slot.proc is None:
                continue
            slot.proc.join(timeout=0.5 if terminate else 2.0)
            if slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(timeout=1.0)
            if slot.proc.is_alive():  # pragma: no cover - stuck in kernel
                self.kill(slot)
            if slot.queue is not None:
                try:
                    slot.queue.cancel_join_thread()
                    slot.queue.close()
                except Exception:  # pragma: no cover - teardown best effort
                    pass
            if slot.reader is not None:
                try:
                    slot.reader.close()
                except Exception:  # pragma: no cover - teardown best effort
                    pass
            slot.proc = None
            slot.queue = None
            slot.reader = None
            slot.rbuf = bytearray()
            slot.busy = False
            slot.index = None
