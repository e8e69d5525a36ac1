"""Worker-side task handlers and the per-worker attachment cache.

Each handler receives one picklable payload dict and returns a
picklable result; the pool guarantees results come back to the parent
in payload order, so every handler here only has to be a *pure
function of its payload plus the shared-memory segment it names* —
that is the whole deterministic-merge contract.

Row data never travels through payloads: handlers that touch records
carry a :class:`~repro.parallel.shm.ShmHandle` and attach the exported
relation zero-copy.  Attachments (and the worker-side ``PLICache``
built over them) are memoized per segment for the lifetime of the
worker, so a multi-level discovery run attaches each relation once.

Handlers run under the worker's own governor (installed by the pool's
worker loop), so the ``checkpoint``/``add_candidates`` calls inside the
library code they delegate to enforce the propagated budget and poll
the batch-cancel event at the usual cooperative granularity.
"""

from __future__ import annotations

import time
from array import array

__all__ = [
    "TASK_HANDLERS",
    "reset_worker_caches",
    "worker_attach_seconds",
]

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


def _attached(handle):
    """Return (encoding, cache) for a segment, attaching on first use."""
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


def _attached_cache(handle):
    """Worker-side ``PLICache`` over an attached relation (memoized)."""
    encoding = _attached(handle)
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
# Handlers
# ----------------------------------------------------------------------
def _closure_shard(payload: dict) -> list[int]:
    """Extend one contiguous shard of a closure computation's FDs.

    The tries are rebuilt from the *original* FD pairs — exactly the
    read-only structure the serial algorithms consult — so extending
    any shard in any process yields the serial result for those FDs.
    """
    from repro.core.closure import (
        _build_lhs_tries,
        _extend_improved,
        _extend_optimized,
    )

    pairs = [[lhs, rhs] for lhs, rhs in payload["pairs"]]
    num_attributes = payload["num_attributes"]
    tries = _build_lhs_tries(pairs, num_attributes)
    all_attrs = (1 << num_attributes) - 1
    extend = (
        _extend_improved
        if payload["algorithm"] == "improved"
        else _extend_optimized
    )
    out = []
    for index in range(payload["start"], payload["stop"]):
        fd = pairs[index]
        extend(fd, tries, all_attrs)
        out.append(fd[1])
    return out


def _hyfd_validate(payload: dict) -> list[list[tuple[int, int]]]:
    """Validate a shard of (lhs, rhs attributes) candidates.

    Per candidate: the refuted RHS attributes in ascending order, each
    with the full agree set of its violating record pair — everything
    the parent needs to replay ``remove`` + ``specialize`` in serial
    candidate order.
    """
    from repro.runtime.governor import checkpoint

    cache = _attached_cache(payload["handle"])
    encoding = cache.encoding
    out = []
    for lhs, rhs_attrs in payload["items"]:
        checkpoint("hyfd-validate")
        probes = [cache.probe(attr) for attr in rhs_attrs]
        violations = cache.get(lhs).find_violations(rhs_attrs, probes)
        refuted = []
        for rhs_attr in rhs_attrs:
            pair = violations.get(rhs_attr)
            if pair is not None:
                refuted.append((rhs_attr, encoding.agree_set(*pair)))
        out.append(refuted)
    return out


def _tane_generate(payload: dict) -> list[tuple[bytes, bytes, int]]:
    """Intersect a shard of TANE next-level candidates.

    ``firsts`` carries the parent's authoritative prefix partitions as
    CSR bytes; the single-attribute side comes from the shared-memory
    codes.  ``intersect_ids`` is deterministic in (partition, codes),
    so the returned CSR bytes are identical to the serial product.
    """
    from repro.runtime.governor import add_candidates
    from repro.structures.partitions import StrippedPartition

    encoding = _attached(payload["handle"])
    num_rows = encoding.num_rows
    firsts = {
        mask: StrippedPartition._from_csr(
            _int_array(rows), _int_array(offsets), num_rows
        )
        for mask, (rows, offsets) in payload["firsts"].items()
    }
    out = []
    for first, attr in payload["items"]:
        add_candidates(1, "tane-generate")
        partition = firsts[first].intersect_ids(encoding.codes[attr])
        out.append(
            (
                partition.row_data.tobytes(),
                partition.offsets.tobytes(),
                partition.error,
            )
        )
    return out


def _verify_chunk(payload: dict) -> tuple[list[int], int, list, int]:
    """Run the verification battery for one contiguous seed chunk."""
    from repro.verification.runner import verify_seeds

    report = verify_seeds(
        payload["seeds"],
        num_rows=payload["num_rows"],
        max_columns=payload["max_columns"],
        shrink=payload["shrink"],
        fd_algorithms=payload["fd_algorithms"],
        ucc_algorithms=payload["ucc_algorithms"],
        workers=1,
    )
    for failure in report.failures:
        # Encoding memos are bulky and derivable — never pickle them.
        failure.instance.invalidate_caches()
        if failure.shrunk is not None:
            failure.shrunk.invalidate_caches()
    return (
        report.seeds,
        report.checks_run,
        report.failures,
        report.dependency_losses,
    )


def _int_array(raw: bytes) -> array:
    out = array("i")
    out.frombytes(raw)
    return out


def _chaos_probe(payload: dict) -> dict:
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


def _pool_probe(payload: dict) -> dict:
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


TASK_HANDLERS = {
    "closure_shard": _closure_shard,
    "hyfd_validate": _hyfd_validate,
    "tane_generate": _tane_generate,
    "verify_chunk": _verify_chunk,
    "chaos_probe": _chaos_probe,
    "pool_probe": _pool_probe,
}
