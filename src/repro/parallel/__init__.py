"""Process-parallel execution layer with shared-memory columnar relations.

The paper runs closure calculation and FD validation in parallel inside
Metanome; this package is the reproduction's equivalent for discovery,
built for CPython where threads cannot speed up CPU-bound work (see
DESIGN.md §3).  Closure runs serially: its pooled version did not pay
(``docs/PARALLEL.md``).

* :mod:`repro.parallel.shm` — zero-copy export of a relation's
  dictionary-encoded columns into one ``multiprocessing.shared_memory``
  segment; workers attach views, no row data is ever pickled,
* :mod:`repro.parallel.pool` — a persistent process pool with budget
  propagation, cooperative cancellation, and order-preserving batch
  dispatch,
* :mod:`repro.parallel.supervisor` — worker supervision: heartbeats,
  death/hang detection, respawn with backoff; together with the pool's
  retry/quarantine logic this makes the layer self-healing (a crashed,
  OOM-killed, or hung worker costs a retry, not the run),
* :mod:`repro.parallel.tasks` — the task-kind registry naming each
  hot path's handler (HyFD validation levels, TANE level generation,
  verification campaigns), which lives beside that path's serial loop,
  plus the worker-side attachment cache.

The determinism contract (see ``docs/PARALLEL.md``): results are merged
in payload order and every handler is a pure function of its payload
plus the named shared segment, so parallel runs produce byte-identical
FD covers, key sets, and DDL to serial runs at any worker count.

:class:`RelationRun` below is the one façade every hot path uses: it
owns the lazy shared-memory export of one relation (if the path needs
one), applies the serial-fallback cost model, and snapshots pool
counters so each algorithm run can report the delta it caused.
"""

from __future__ import annotations

import os
import sys

from repro._lazy import lazy_exports
from repro.runtime.errors import InputError

__all__ = [
    "MAX_WORKERS",
    "PoolStats",
    "RelationRun",
    "SharedRelation",
    "ShmHandle",
    "WorkerCrashError",
    "WorkerError",
    "WorkerPool",
    "WorkerSupervisor",
    "attach_encoding",
    "export_encoding",
    "get_pool",
    "pool_stats",
    "reap_orphan_segments",
    "release_owned_segments",
    "resolve_workers",
    "should_parallelize",
    "shutdown_pool",
    "split_ranges",
]

# The pool, shared memory and ``multiprocessing`` load when a pool is
# built, so a serial run never imports them.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.parallel.pool": (
            "PoolStats",
            "WorkerCrashError",
            "WorkerError",
            "WorkerPool",
            "get_pool",
            "pool_stats",
            "should_parallelize",
            "shutdown_pool",
        ),
        "repro.parallel.shm": (
            "SharedRelation",
            "ShmHandle",
            "attach_encoding",
            "export_encoding",
            "reap_orphan_segments",
            "release_owned_segments",
        ),
        "repro.parallel.supervisor": ("WorkerSupervisor",),
    },
)

#: Hard cap honoured by :func:`resolve_workers` (sanity bound).
MAX_WORKERS = 64


def resolve_workers(explicit: int | None = None) -> int:
    """Resolve the effective worker count.

    Precedence: explicit argument > ``REPRO_WORKERS`` env var > 1
    (serial).  Inside a pool worker this always returns 1 — parallel
    sections encountered by worker-side code run serially instead of
    forking grandchildren.  Only a process that imported
    :mod:`repro.parallel.pool` can be one of its workers, so this never
    imports the pool itself.
    """
    pool = sys.modules.get("repro.parallel.pool")
    if pool is not None and pool._IN_WORKER:
        return 1
    value = explicit
    if value is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if raw:
            try:
                value = int(raw)
            except ValueError:
                raise InputError(
                    f"REPRO_WORKERS must be an integer, got {raw!r}"
                ) from None
    if value is None:
        return 1
    if value < 1:
        raise InputError("worker count must be >= 1")
    return min(value, MAX_WORKERS)


def shutdown_pool_if_loaded() -> None:
    """:func:`shutdown_pool` in a process that ever imported the pool.

    Only such a process can own workers or shared-memory segments, so
    teardown paths call this instead of importing the pool just to find
    nothing to release.
    """
    pool = sys.modules.get("repro.parallel.pool")
    if pool is not None:
        pool.shutdown_pool()


def split_ranges(count: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(count)`` into at most ``parts`` contiguous ranges.

    Contiguous (not strided) shards keep every merge a simple
    concatenation in payload order — the backbone of the deterministic
    shard/merge protocol.
    """
    if count <= 0:
        return []
    parts = max(1, min(parts, count))
    step, extra = divmod(count, parts)
    ranges = []
    start = 0
    for index in range(parts):
        stop = start + step + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


class RelationRun:
    """One algorithm run's hook into the pool, for one relation.

    Owns the (lazy) shared-memory export of the relation's encoding —
    created on the first shard dispatch that needs it, unlinked in
    :meth:`close` — plus the cost-model gate and the pool-stats
    snapshot that lets the caller report per-run counters.
    """

    __slots__ = ("workers", "pool", "_encoding", "_shared", "_mark", "stats")

    def __init__(self, workers: int, encoding=None) -> None:
        from repro.parallel.pool import get_pool

        self.workers = workers
        self.pool = get_pool(workers)
        self._encoding = encoding
        self._shared: SharedRelation | None = None
        self._mark = self.pool.stats.copy()
        self.stats: PoolStats | None = None

    @property
    def handle(self) -> ShmHandle:
        """The exported relation's handle (exports on first use)."""
        if self._shared is None:
            if self._encoding is None:
                raise ValueError("RelationRun was created without an encoding")
            from repro.parallel.shm import export_encoding

            self._shared = export_encoding(self._encoding)
            self.pool.stats.export_seconds += self._shared.export_seconds
        return self._shared.handle

    def should(self, work_units: int) -> bool:
        """Cost-model gate; counts the serial fallback when it says no."""
        from repro.parallel.pool import should_parallelize

        if should_parallelize(work_units, self.workers):
            return True
        self.pool.stats.serial_fallbacks += 1
        return False

    def map(self, kind: str, payloads: list, stage: str, items: int = 0) -> list:
        self.pool.stats.shard_items += items
        return self.pool.map_tasks(kind, payloads, stage=stage)

    def ranges(self, count: int) -> list[tuple[int, int]]:
        return split_ranges(count, self.workers)

    def close(self) -> None:
        """Unlink the export (workers keep serving their mappings) and
        freeze this run's pool-counter delta into :attr:`stats`."""
        if self._shared is not None:
            self._shared.close()
            self._shared = None
        self.stats = self.pool.stats.delta_since(self._mark)

    def __enter__(self) -> "RelationRun":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
