"""Shared-memory export of dictionary-encoded relations.

The process-parallel backend must hand workers the *row data* of a
relation without pickling it per task: the columnar value-id vectors of
an :class:`~repro.structures.encoding.EncodedRelation` are the only
record-level state any hot path (PLI construction, multi-RHS
validation, agree-set computation) ever touches, so exporting exactly
those vectors into one ``multiprocessing.shared_memory`` segment makes
every worker-side consumer zero-copy:

* the parent copies each column's ``array('i')`` into the segment
  **once** per relation (:func:`export_encoding`),
* a task payload carries only the tiny picklable :class:`ShmHandle`
  (segment name + shape metadata),
* workers :func:`attach_encoding` and get back an ``EncodedRelation``
  whose ``codes`` are ``memoryview`` casts straight into the mapped
  segment — no per-worker copy, no per-task pickling of row data.

Lifecycle contract (documented in ``docs/PARALLEL.md``): the *parent*
owns every segment.  It unlinks via :meth:`SharedRelation.close` (the
integration sites do this in ``finally`` blocks); workers only ever
``close()`` their attachment, after releasing every memoryview carved
out of it.  On CPython < 3.13 *attaching* also registers the segment
with the ``resource_tracker`` — which pool workers share with the
parent, so its bookkeeping is one name-set for the whole process
family.  We deliberately leave that attach-registration in place (a
set re-add is a no-op) and never unregister from workers: the only
unregister is the one ``unlink()`` itself performs, keeping the
tracker balanced with no spurious KeyErrors and a guaranteed unlink
if the parent dies without cleanup.

Segment names encode the owning pid (``repro-shm-<pid>-<hex>``), which
makes orphans *attributable*: :func:`reap_orphan_segments` scans the
shm directory for our prefix, keeps anything whose owner is still
alive, and unlinks the rest.  The pool runs the reaper at startup and
teardown, so segments stranded by a SIGKILLed process (the one case
the resource tracker cannot cover — tracker and owner die together)
are cleaned up by the next run instead of accumulating in
``/dev/shm``.  :func:`release_owned_segments` is the complementary
same-process cleanup used by the CLI's signal boundary.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from multiprocessing import shared_memory

from repro.structures.encoding import EncodedRelation

__all__ = [
    "ShmHandle",
    "SharedRelation",
    "attach_encoding",
    "export_encoding",
    "owned_segments",
    "reap_orphan_segments",
    "release_owned_segments",
]

_ITEMSIZE = array("i").itemsize

#: Every segment this library creates is named ``<prefix>-<pid>-<hex>``.
SEGMENT_PREFIX = "repro-shm"

#: Names of segments created (and not yet unlinked) by *this* process.
_OWNED: set[str] = set()


def _create_segment(size: int) -> shared_memory.SharedMemory:
    """Create a segment under the pid-attributed naming scheme."""
    while True:
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{os.urandom(4).hex()}"
        try:
            shm = shared_memory.SharedMemory(create=True, size=size, name=name)
        except FileExistsError:  # pragma: no cover - 32-bit collision
            continue
        _OWNED.add(shm.name)
        return shm


def owned_segments() -> frozenset[str]:
    """Names of live segments created by this process (diagnostics)."""
    return frozenset(_OWNED)


def release_owned_segments() -> int:
    """Unlink every segment this process still owns; return the count.

    Safe to call while :class:`SharedRelation` objects are live: unlink
    only removes the name, existing mappings stay valid, and the later
    ``SharedRelation.close`` tolerates the double unlink.  Used by the
    CLI's SIGINT/SIGTERM boundary and pool teardown so an interrupted
    run leaves nothing behind in ``/dev/shm``.
    """
    released = 0
    for name in list(_OWNED):
        try:
            segment = shared_memory.SharedMemory(name=name)
            segment.close()
            segment.unlink()
            released += 1
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - platform-specific teardown
            pass
        _OWNED.discard(name)
    return released


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's process
        return True
    except OSError:  # pragma: no cover - conservative: assume alive
        return True
    return True


def reap_orphan_segments(shm_dir: str = "/dev/shm") -> int:
    """Unlink segments whose owning process is dead; return the count.

    Only names matching our ``repro-shm-<pid>-...`` scheme are
    considered, and only when ``<pid>`` no longer exists — segments of
    live processes (including our own) are never touched.  On platforms
    without a scannable shm directory this is a silent no-op.
    """
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return 0
    own_pid = os.getpid()
    reaped = 0
    marker = SEGMENT_PREFIX + "-"
    for name in names:
        if not name.startswith(marker):
            continue
        parts = name.split("-")
        if len(parts) < 4 or not parts[2].isdigit():
            continue
        pid = int(parts[2])
        if pid == own_pid or _pid_alive(pid):
            continue
        try:
            segment = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):  # pragma: no cover - raced
            continue
        try:
            segment.close()
            segment.unlink()
            reaped += 1
        except (FileNotFoundError, OSError):  # pragma: no cover - raced
            pass
    return reaped


@dataclass(frozen=True, slots=True)
class ShmHandle:
    """Picklable descriptor of one exported relation.

    Everything a worker needs to rebuild an ``EncodedRelation`` view:
    the segment name plus the shape/NULL metadata that is *not* stored
    in the segment itself (it is tiny and travels with each task).
    """

    segment: str
    arity: int
    num_rows: int
    cardinalities: tuple[int, ...]
    null_codes: tuple[int | None, ...]
    null_equals_null: bool


class SharedRelation:
    """Parent-side owner of one exported relation segment."""

    __slots__ = ("handle", "_shm", "export_seconds")

    def __init__(
        self, handle: ShmHandle, shm: shared_memory.SharedMemory, seconds: float
    ) -> None:
        self.handle = handle
        self._shm = shm
        self.export_seconds = seconds

    def close(self) -> None:
        """Close and unlink the segment (idempotent).

        Workers that still hold an attachment keep their mapping alive;
        unlinking only removes the name so no new attachment can race a
        dead owner.
        """
        if self._shm is None:
            return
        _OWNED.discard(self._shm.name)
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass
        self._shm = None

    def __enter__(self) -> "SharedRelation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def export_encoding(encoding: EncodedRelation) -> SharedRelation:
    """Copy an encoding's code vectors into a fresh shared segment.

    Column ``a`` occupies the half-open int32 range
    ``[a * num_rows, (a + 1) * num_rows)``, and that one memcpy per
    column is the only copy the parallel backend ever makes of row
    data.
    """
    import time

    started = time.perf_counter()
    num_rows = encoding.num_rows
    arity = encoding.arity
    size = max(arity * num_rows * _ITEMSIZE, 1)
    shm = _create_segment(size)
    view = memoryview(shm.buf).cast("b").cast("i") if num_rows else None
    for attr, codes in enumerate(encoding.codes):
        if num_rows:
            view[attr * num_rows : (attr + 1) * num_rows] = memoryview(codes)
    if view is not None:
        view.release()
    handle = ShmHandle(
        segment=shm.name,
        arity=arity,
        num_rows=num_rows,
        cardinalities=tuple(encoding.cardinalities),
        null_codes=tuple(encoding.null_codes),
        null_equals_null=encoding.null_equals_null,
    )
    return SharedRelation(handle, shm, time.perf_counter() - started)


def attach_encoding(handle: ShmHandle):
    """Worker-side: map the exported columns as an ``EncodedRelation``.

    The returned encoding's ``codes`` are zero-copy ``memoryview``
    casts into the shared segment; every consumer
    (``PLICache``, ``StrippedPartition.from_value_ids`` /
    ``intersect_ids``, ``agree_set``) only indexes and iterates them,
    which memoryviews support.  The caller must keep the returned
    attachment object alive as long as the encoding is in use and
    ``close()`` it when done (the pool's per-worker attachment cache
    handles both).
    """
    shm = shared_memory.SharedMemory(name=handle.segment)
    num_rows = handle.num_rows
    codes: list = []
    if num_rows:
        view = memoryview(shm.buf).cast("b").cast("i")
        for attr in range(handle.arity):
            codes.append(view[attr * num_rows : (attr + 1) * num_rows])
    else:
        codes = [memoryview(array("i")) for _ in range(handle.arity)]
    encoding = EncodedRelation(
        codes=codes,
        cardinalities=list(handle.cardinalities),
        null_codes=list(handle.null_codes),
        num_rows=num_rows,
        null_equals_null=handle.null_equals_null,
        value_ids=None,
    )
    return encoding, shm
