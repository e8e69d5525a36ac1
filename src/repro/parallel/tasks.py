"""Task kinds, the per-worker attachment cache, and the test probes.

A task is a kind plus one picklable payload dict.  Each kind's handler
lives in the module of the loop it parallelizes, next to that loop's
serial path and sharing its per-item code; :data:`TASK_HANDLERS` names
it as ``module.function``, and a worker imports the module on its first
task of that kind.  The pool guarantees results come back to the parent
in payload order, so every handler only has to be a *pure function of
its payload plus the shared-memory segment it names* — that is the
whole deterministic-merge contract.

Row data never travels through payloads: handlers that touch records
carry a :class:`~repro.parallel.shm.ShmHandle` and attach the exported
relation zero-copy through :func:`attached` / :func:`attached_cache`.
Attachments (and the worker-side ``PLICache`` built over them) are
memoized per segment for the lifetime of the worker, so a multi-level
discovery run attaches each relation once.

Handlers run under the worker's own governor (installed by the pool's
worker loop), so the ``checkpoint``/``add_candidates`` calls inside
them enforce the propagated budget and poll the batch-cancel event at
the usual cooperative granularity.
"""

from __future__ import annotations

import time
from importlib import import_module

__all__ = [
    "TASK_HANDLERS",
    "attached",
    "attached_cache",
    "handler",
    "reset_worker_caches",
    "worker_attach_seconds",
]

#: Task handlers by kind, as ``module.function``.
TASK_HANDLERS = {
    "hyfd_validate": "repro.discovery.hyfd.validation.validate_shard",
    "verify_chunk": "repro.verification.runner.verify_chunk",
    "chaos_probe": "repro.parallel.tasks.chaos_probe",
    "pool_probe": "repro.parallel.tasks.pool_probe",
}


def handler(kind: str):
    """The handler function of task ``kind``, imported on demand."""
    module, _, name = TASK_HANDLERS[kind].rpartition(".")
    return getattr(import_module(module), name)


# Segment name → (EncodedRelation view, SharedMemory, PLICache | None).
_ATTACHMENTS: dict[str, tuple] = {}
_ATTACH_SECONDS = 0.0


def worker_attach_seconds() -> float:
    """Cumulative time this worker spent attaching segments."""
    return _ATTACH_SECONDS


def reset_worker_caches() -> None:
    """Close every shared-memory attachment and drop cached state.

    Called on worker start (forked children inherit the parent's module
    globals — a fork must never reuse the parent's attachments) and on
    worker shutdown (so mappings are released deterministically).  The
    memoryviews carved out of each segment must be released before the
    mapping can close, or ``mmap`` refuses with a ``BufferError``.
    """
    global _ATTACH_SECONDS
    for encoding, shm, _ in _ATTACHMENTS.values():
        for codes in encoding.codes:
            try:
                codes.release()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        try:
            shm.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass
    _ATTACHMENTS.clear()
    _ATTACH_SECONDS = 0.0


def attached(handle):
    """The encoded relation a handle names, attached on first use."""
    global _ATTACH_SECONDS
    entry = _ATTACHMENTS.get(handle.segment)
    if entry is None:
        from repro.parallel.shm import attach_encoding

        started = time.perf_counter()
        encoding, shm = attach_encoding(handle)
        _ATTACH_SECONDS += time.perf_counter() - started
        entry = (encoding, shm, None)
        _ATTACHMENTS[handle.segment] = entry
    return entry[0]


def attached_cache(handle):
    """A ``PLICache`` over the attached relation a handle names (memoized)."""
    encoding = attached(handle)
    entry = _ATTACHMENTS[handle.segment]
    if entry[2] is None:
        from repro.structures.partitions import PLICache

        cache = PLICache(
            instance=None,
            null_equals_null=handle.null_equals_null,
            encoding=encoding,
        )
        entry = (entry[0], entry[1], cache)
        _ATTACHMENTS[handle.segment] = entry
    return entry[2]


# ----------------------------------------------------------------------
# Test probes
# ----------------------------------------------------------------------
def chaos_probe(payload: dict) -> dict:
    """Controlled misbehavior for supervisor tests and the chaos campaign.

    ``action`` selects the failure; ``marker`` (a path) makes it
    *transient*: the first execution creates the marker and then fails,
    the retry finds the marker and succeeds — without a marker the
    payload is poison (fails every time, forcing quarantine).  The
    process-fatal actions only fire inside a real pool worker so the
    quarantined in-process execution can complete.
    """
    import os as _os

    from repro.runtime.governor import checkpoint

    action = payload.get("action", "echo")
    marker = payload.get("marker")
    checkpoint("chaos-probe")
    survived = {"value": payload.get("value"), "pid": _os.getpid()}
    if action == "echo":
        return survived
    if action == "raise_input":
        from repro.runtime.errors import InputError

        raise InputError(payload.get("message", "chaos probe input error"))
    if action == "raise_value":
        raise ValueError(payload.get("message", "chaos probe value error"))
    if marker is not None:
        try:
            with open(marker, "x"):
                pass
        except FileExistsError:
            return survived  # the retry after the first crash
    from repro.parallel import pool as pool_module

    if not pool_module._IN_WORKER:
        return survived  # quarantined in-process: succeed serially
    if action == "kill":
        import signal as _signal

        _os.kill(_os.getpid(), _signal.SIGKILL)
    if action == "exit":
        _os._exit(payload.get("status", 137))
    if action == "hang":
        import time as _time

        while True:
            _time.sleep(0.05)
    raise ValueError(f"unknown chaos action {action!r}")


def pool_probe(payload: dict) -> dict:
    """Report the executing process's pool-related state (tests only)."""
    import os as _os

    from repro.parallel import pool as pool_module
    from repro.parallel import resolve_workers
    from repro.runtime.governor import checkpoint

    for _ in range(payload.get("ticks", 1)):
        checkpoint("pool-probe")
    return {
        "pid": _os.getpid(),
        "in_worker": pool_module._IN_WORKER,
        "resolved_workers": resolve_workers(),
        "value": payload.get("value"),
    }
