"""Tiered backing storage for dictionary-encoded columns.

An :class:`~repro.structures.encoding.EncodedRelation` owns one dense
``int32`` vector per column.  This module decides *where those vectors
live* and provides the on-disk tier that makes larger-than-RAM
discovery possible:

* **memory** — in-process ``array('i')`` buffers (the classic default);
* **shm** — the POSIX shared-memory export of :mod:`repro.parallel.shm`
  (a *transport* tier: the parent copies memory-resident columns into a
  segment once per parallel run);
* **spill** — file-backed columns managed by :class:`ColumnStore`:
  code pages are appended to one file per column and the finished
  column is handed out as a ``memoryview`` cast over an ``mmap`` of
  that file.  Every consumer of ``codes`` (PLI construction, violation
  scans, agree-set kernels, ``np.frombuffer``) already speaks the
  buffer protocol, so a spilled column is indistinguishable from an
  in-heap one — only its residency differs.

Tier selection is a process-wide *policy* (``--storage`` /
``REPRO_STORAGE``) resolved per encoding:

* ``memory`` — never spill (bit-for-bit the historical behavior);
* ``spill`` — every encoding goes to disk (the CI soak mode);
* ``auto`` — spill only when the projected encoded footprint of the
  relation would breach the spill threshold, which derives from the
  runtime governor's memory budget (``--memory-limit``; see
  :func:`spill_threshold_bytes`), so columns migrate to disk exactly
  when keeping them resident would eat the budget the user granted the
  *whole* process.

Spill files live in pid-attributed directories
(``repro-spill-<pid>-<hex>`` under ``$REPRO_SPILL_DIR`` or the system
temp dir) mirroring the ``repro-shm-<pid>-<hex>`` naming of the shm
tier, so the same ownership story applies: a crashed process cannot
clean up after itself, but the *next* run can attribute its leftovers
and :func:`reap_orphan_spill_dirs` removes them (the pool runs both
reapers at startup and teardown; see ``docs/STORAGE.md``).
:func:`release_process_spill` is the same-process counterpart used by
the CLI signal boundary and an ``atexit`` hook.  Unlinking a mapped
file is safe on POSIX — live mappings (ours or a worker's) keep the
pages readable until the last ``mmap`` is closed.

The module imports nothing from :mod:`repro.structures.encoding` or the
model layer at import time, so both can depend on it without cycles.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import mmap
import os
import shutil
import tempfile
from array import array
from dataclasses import dataclass
from pathlib import Path

from repro.runtime.errors import InputError
from repro.runtime.governor import current_governor, note_spill, parse_memory

__all__ = [
    "POLICY_CHOICES",
    "ColumnStore",
    "FileHandle",
    "SpilledRelation",
    "attach_file_handle",
    "counters_delta",
    "counters_snapshot",
    "memory_budget",
    "peak_buffered_cells",
    "policy_name",
    "policy_override",
    "process_spill_dir",
    "reap_orphan_spill_dirs",
    "release_process_spill",
    "reset_counters",
    "resolve_tier",
    "set_policy",
    "spill_dir_override",
    "spill_threshold_bytes",
]

_ITEMSIZE = array("i").itemsize

#: rows buffered per column before a page is flushed to the spill file
PAGE_ROWS = 16384

#: spill threshold when neither ``REPRO_SPILL_THRESHOLD`` nor a
#: governor memory budget is in effect (encoded bytes per relation)
DEFAULT_SPILL_THRESHOLD = 64 * 1024 * 1024

#: Every spill directory this library creates is named
#: ``<prefix>-<pid>-<hex>`` (same attribution scheme as repro-shm).
SPILL_PREFIX = "repro-spill"

POLICY_CHOICES = ("memory", "auto", "spill")


# ----------------------------------------------------------------------
# Policy registry (mirrors repro.kernels)
# ----------------------------------------------------------------------
_requested: str | None = None
_policy_overrides: list[str] = []
_budget_hints: list[int] = []


def _validated(name: str, origin: str) -> str:
    cleaned = name.strip().lower()
    if cleaned not in POLICY_CHOICES:
        raise InputError(
            f"unknown storage policy {name!r} (from {origin}); "
            f"choose from {', '.join(POLICY_CHOICES)}"
        )
    return cleaned


def set_policy(name: str | None) -> None:
    """Select the storage policy for this process (``None`` resets).

    ``--storage`` calls this; it overrides ``REPRO_STORAGE``.
    """
    global _requested
    _requested = None if name is None else _validated(name, "--storage")


def policy_name() -> str:
    """The storage policy in effect, without resolving any tier."""
    if _policy_overrides:
        return _policy_overrides[-1]
    if _requested is not None:
        return _requested
    env = os.environ.get("REPRO_STORAGE")
    if env:
        return _validated(env, "REPRO_STORAGE")
    return "memory"


@contextlib.contextmanager
def policy_override(name: str | None):
    """Temporarily force a policy (``None`` is a no-op).

    The server uses this to honor a per-session ``storage`` option
    without leaking it into other tenants' requests — safe because the
    compute gate serializes heavy work.
    """
    if name is None:
        yield
        return
    _policy_overrides.append(_validated(name, "session option"))
    try:
        yield
    finally:
        _policy_overrides.pop()


@contextlib.contextmanager
def memory_budget(max_bytes: int | None):
    """Make a memory budget visible to tier selection.

    Used where encoding happens outside a governed region (CSV
    ingestion in the CLI, session create/revive in the server) so
    ``auto`` can see the ``--memory-limit`` budget the discovery run
    will be governed by.  An ambient governor, when active, takes
    precedence.
    """
    if not max_bytes:
        yield
        return
    _budget_hints.append(int(max_bytes))
    try:
        yield
    finally:
        _budget_hints.pop()


def spill_threshold_bytes() -> int:
    """Encoded bytes above which ``auto`` spills a relation.

    Resolution order: ``REPRO_SPILL_THRESHOLD`` (a size string like
    ``--memory-limit`` takes), then a quarter of the governing memory
    budget (the encoded columns of *one* relation should never claim
    the whole process allowance), then :data:`DEFAULT_SPILL_THRESHOLD`.
    """
    raw = os.environ.get("REPRO_SPILL_THRESHOLD")
    if raw:
        try:
            return max(1, parse_memory(raw))
        except InputError:
            raise InputError(
                f"invalid REPRO_SPILL_THRESHOLD {raw!r}; "
                "expected a size like 256M or 2G"
            ) from None
    governor = current_governor()
    if governor is not None and governor.budget.max_memory_bytes:
        return max(1, governor.budget.max_memory_bytes // 4)
    if _budget_hints:
        return max(1, _budget_hints[-1] // 4)
    return DEFAULT_SPILL_THRESHOLD


def resolve_tier(estimated_bytes: int | None = None) -> str:
    """``"memory"`` or ``"spill"`` for an encoding of the given size."""
    policy = policy_name()
    if policy == "memory":
        return "memory"
    if policy == "spill":
        return "spill"
    if estimated_bytes is None:
        return "memory"
    return "spill" if estimated_bytes >= spill_threshold_bytes() else "memory"


def chunk_rows() -> int:
    """Rows per ingestion chunk for the streaming CSV reader."""
    raw = os.environ.get("REPRO_CHUNK_ROWS")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise InputError(
                f"invalid REPRO_CHUNK_ROWS {raw!r}; expected an integer"
            ) from None
        if value < 1:
            raise InputError("REPRO_CHUNK_ROWS must be at least 1")
        return value
    return 4096


# ----------------------------------------------------------------------
# Counters (mirrors repro.kernels counters; surfaced via DataProfile)
# ----------------------------------------------------------------------
_COUNTER_KEYS = (
    "spill_columns",
    "spill_pages_written",
    "spill_pages_read",
    "spill_cells_written",
)
_counters: dict[str, int] = {key: 0 for key in _COUNTER_KEYS}
_peak_buffered_cells = 0


def bump(name: str, amount: int = 1) -> None:
    _counters[name] = _counters.get(name, 0) + amount


def note_buffered(cells: int) -> None:
    """Record the in-heap staging footprint (cells) at a flush point."""
    global _peak_buffered_cells
    if cells > _peak_buffered_cells:
        _peak_buffered_cells = cells


def peak_buffered_cells() -> int:
    """High-water mark of cells staged in heap buffers since reset."""
    return _peak_buffered_cells


def counters_snapshot() -> dict[str, int]:
    return dict(_counters)


def counters_delta(mark: dict[str, int]) -> dict[str, int]:
    return {
        key: value - mark.get(key, 0)
        for key, value in _counters.items()
        if value - mark.get(key, 0)
    }


def reset_counters() -> None:
    global _peak_buffered_cells
    for key in list(_counters):
        _counters[key] = 0
    _peak_buffered_cells = 0


# ----------------------------------------------------------------------
# Spill directory lifecycle
# ----------------------------------------------------------------------
_dir_overrides: list[Path] = []
_process_dir: Path | None = None
_process_dir_pid: int | None = None
_store_seq = itertools.count()


def _spill_base() -> Path:
    return Path(os.environ.get("REPRO_SPILL_DIR") or tempfile.gettempdir())


def process_spill_dir() -> Path:
    """This process's pid-attributed spill directory (created lazily).

    After a fork the child sees the parent's path cached; the pid check
    makes it mint its own directory instead of scribbling into one it
    does not own.
    """
    global _process_dir, _process_dir_pid
    pid = os.getpid()
    if _process_dir is None or _process_dir_pid != pid:
        name = f"{SPILL_PREFIX}-{pid}-{os.urandom(4).hex()}"
        path = _spill_base() / name
        path.mkdir(parents=True, exist_ok=True)
        _process_dir = path
        _process_dir_pid = pid
    return _process_dir


@contextlib.contextmanager
def spill_dir_override(path: str | Path):
    """Route new spill stores into ``path`` (per-session server dirs)."""
    target = Path(path)
    target.mkdir(parents=True, exist_ok=True)
    _dir_overrides.append(target)
    try:
        yield target
    finally:
        _dir_overrides.pop()


def _target_dir() -> Path:
    if _dir_overrides:
        return _dir_overrides[-1]
    return process_spill_dir()


def release_process_spill() -> int:
    """Remove this process's spill directory; return 1 if one existed.

    Safe while stores are live: unlinking mapped files leaves existing
    mappings readable (POSIX), and :meth:`ColumnStore.close` tolerates
    already-missing files.  Used by the CLI signal boundary and the
    ``atexit`` hook.
    """
    global _process_dir, _process_dir_pid
    if _process_dir is None or _process_dir_pid != os.getpid():
        return 0
    path = _process_dir
    _process_dir = None
    _process_dir_pid = None
    shutil.rmtree(path, ignore_errors=True)
    return 1


def reap_orphan_spill_dirs(base: str | Path | None = None) -> int:
    """Remove spill directories whose owning process is dead.

    Same contract as :func:`repro.parallel.shm.reap_orphan_segments`:
    only our ``repro-spill-<pid>-...`` naming scheme is considered, and
    directories of live processes (including our own) are never
    touched.  Returns the number of directories removed.
    """
    from repro.parallel.shm import _pid_alive

    root = Path(base) if base is not None else _spill_base()
    try:
        names = os.listdir(root)
    except OSError:
        return 0
    own_pid = os.getpid()
    marker = SPILL_PREFIX + "-"
    reaped = 0
    for name in names:
        if not name.startswith(marker):
            continue
        parts = name.split("-")
        if len(parts) < 4 or not parts[2].isdigit():
            continue
        pid = int(parts[2])
        if pid == own_pid or _pid_alive(pid):
            continue
        shutil.rmtree(root / name, ignore_errors=True)
        reaped += 1
    return reaped


def _atexit_release() -> None:  # pragma: no cover - interpreter teardown
    try:
        release_process_spill()
    except Exception:
        pass


atexit.register(_atexit_release)


# ----------------------------------------------------------------------
# The spill tier proper
# ----------------------------------------------------------------------
class ColumnStore:
    """File-backed code vectors of one relation.

    One binary file per column; pages of ``int32`` codes are appended
    with :meth:`append_page` and :meth:`finalize` maps each file and
    hands out ``memoryview(...).cast('i')`` column views.  Appends
    (:meth:`append_column` + :meth:`remap`) only ever *extend* a file,
    so a handle exported at an earlier generation still maps a
    consistent prefix; deletes (:meth:`rewrite_all`) write fresh
    per-generation files so no mapped bytes are ever mutated in place.
    """

    __slots__ = (
        "directory",
        "arity",
        "generation",
        "num_rows",
        "_paths",
        "_maps",
        "_views",
        "_retired",
        "_closed",
        "stats",
    )

    def __init__(self, arity: int, directory: str | Path | None = None) -> None:
        parent = Path(directory) if directory is not None else _target_dir()
        self.directory = parent / f"store-{next(_store_seq)}"
        self.directory.mkdir(parents=True, exist_ok=True)
        self.arity = arity
        self.generation = 0
        self.num_rows = 0
        self._paths = [self._column_path(attr, 0) for attr in range(arity)]
        self._maps: list[mmap.mmap | None] = [None] * arity
        self._views: list[memoryview | None] = [None] * arity
        self._retired: list[tuple[mmap.mmap | None, memoryview]] = []
        self._closed = False
        self.stats = {
            "spill_pages_written": 0,
            "spill_pages_read": 0,
            "spill_cells_written": 0,
        }
        bump("spill_columns", arity)
        note_spill()

    def _column_path(self, attr: int, generation: int) -> Path:
        return self.directory / f"col{attr}-g{generation}.i32"

    # -- writing -------------------------------------------------------
    def append_page(self, attr: int, codes: array) -> None:
        """Append one page of codes to a column file."""
        if not len(codes):
            return
        with open(self._paths[attr], "ab") as handle:
            handle.write(codes.tobytes())
        bump("spill_pages_written")
        bump("spill_cells_written", len(codes))
        self.stats["spill_pages_written"] += 1
        self.stats["spill_cells_written"] += len(codes)

    def finalize(self, num_rows: int) -> None:
        """Map every column at its final length; views become available."""
        self.num_rows = num_rows
        for attr in range(self.arity):
            self._map_column(attr)

    def append_column(self, attr: int, codes: array) -> None:
        """Append codes to an already-finalized column (incremental extend)."""
        self.append_page(attr, codes)

    def remap(self, num_rows: int) -> None:
        """Re-map every column after appends grew the files."""
        for attr in range(self.arity):
            self._retire(attr)
        self.generation += 1
        self.finalize(num_rows)

    def rewrite_all(self, columns: list[array], num_rows: int) -> None:
        """Replace every column (delete compaction) under a new generation.

        Fresh per-generation filenames keep any still-mapped older
        generation byte-stable; the superseded files are unlinked (live
        mappings survive the unlink).
        """
        self.generation += 1
        for attr, codes in enumerate(columns):
            self._retire(attr)
            old_path = self._paths[attr]
            new_path = self._column_path(attr, self.generation)
            self._paths[attr] = new_path
            self.append_page(attr, codes)
            if not len(codes):
                new_path.touch()
            with contextlib.suppress(OSError):
                old_path.unlink()
        self.finalize(num_rows)

    # -- mapping -------------------------------------------------------
    def _map_column(self, attr: int) -> None:
        num_rows = self.num_rows
        if not num_rows:
            self._paths[attr].touch()
            self._maps[attr] = None
            self._views[attr] = memoryview(array("i"))
            return
        with open(self._paths[attr], "rb") as handle:
            mapped = mmap.mmap(
                handle.fileno(), num_rows * _ITEMSIZE, access=mmap.ACCESS_READ
            )
        self._maps[attr] = mapped
        self._views[attr] = memoryview(mapped).cast("i")
        pages = max(1, -(-num_rows // PAGE_ROWS))
        bump("spill_pages_read", pages)
        self.stats["spill_pages_read"] += pages

    def _retire(self, attr: int) -> None:
        view = self._views[attr]
        if view is None:
            return
        # Consumers may still index the old view (e.g. a PLI probe held
        # across a batch); park it and release on close.
        self._retired.append((self._maps[attr], view))
        self._maps[attr] = None
        self._views[attr] = None

    def views(self) -> list[memoryview]:
        """The current column views (valid after :meth:`finalize`)."""
        return list(self._views)

    # -- export --------------------------------------------------------
    def handle(self, encoding) -> "FileHandle":
        """A picklable descriptor workers can :func:`attach_file_handle`."""
        return FileHandle(
            segment=f"spill:{self.directory}:g{self.generation}",
            paths=tuple(str(path) for path in self._paths),
            arity=self.arity,
            num_rows=self.num_rows,
            cardinalities=tuple(encoding.cardinalities),
            null_codes=tuple(encoding.null_codes),
            null_equals_null=encoding.null_equals_null,
        )

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Release mappings and delete the store's files (idempotent)."""
        if self._closed:
            return
        self._closed = True
        pairs = list(self._retired)
        pairs.extend(zip(self._maps, self._views))
        self._retired = []
        self._maps = [None] * self.arity
        self._views = [None] * self.arity
        for mapped, view in pairs:
            if view is not None:
                with contextlib.suppress(BufferError):
                    view.release()
            if mapped is not None:
                with contextlib.suppress(BufferError, ValueError):
                    mapped.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing
        with contextlib.suppress(Exception):
            self.close()


@dataclass(frozen=True, slots=True)
class FileHandle:
    """Picklable descriptor of one spilled relation (worker transport).

    The mirror of :class:`repro.parallel.shm.ShmHandle` for the spill
    tier.  ``segment`` is the attachment-cache key: it embeds the store
    directory *and* generation, so workers re-attach after an extend or
    delete instead of serving stale pages.  ``num_rows`` bounds the
    worker's mapping — the parent may have appended past it by the time
    a queued task attaches, and mapping exactly ``num_rows`` rows keeps
    the view consistent with the exporting generation.
    """

    segment: str
    paths: tuple[str, ...]
    arity: int
    num_rows: int
    cardinalities: tuple[int, ...]
    null_codes: tuple[int | None, ...]
    null_equals_null: bool

    @property
    def num_cells(self) -> int:
        return self.arity * self.num_rows


class SpilledRelation:
    """Parent-side export of a spilled relation — no copy, nothing to own.

    Quacks like :class:`repro.parallel.shm.SharedRelation` (``handle``,
    ``export_seconds``, ``close``) so ``RelationRun`` needs no special
    case; the backing files belong to the :class:`ColumnStore` and
    outlive the run.
    """

    __slots__ = ("handle", "export_seconds")

    def __init__(self, handle: FileHandle) -> None:
        self.handle = handle
        self.export_seconds = 0.0

    def close(self) -> None:
        return None

    def __enter__(self) -> "SpilledRelation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _FileAttachment:
    """Worker-side owner of the mmaps behind an attached spilled relation.

    Mirrors the ``SharedMemory`` object returned by ``attach_encoding``
    for the shm tier: the attachment cache keeps it alive beside the
    encoding and calls :meth:`close` at teardown, after releasing the
    column views carved out of it.
    """

    __slots__ = ("_maps",)

    def __init__(self, maps: list[mmap.mmap]) -> None:
        self._maps = maps

    def close(self) -> None:
        maps, self._maps = self._maps, []
        for mapped in maps:
            with contextlib.suppress(BufferError, ValueError):
                mapped.close()


def attach_file_handle(handle: FileHandle):
    """Map a spilled relation read-only; the worker-side twin of
    :func:`repro.parallel.shm.attach_encoding`.

    Returns ``(encoding, attachment)`` where the encoding's ``codes``
    are zero-copy ``memoryview`` casts over per-column mmaps of exactly
    ``handle.num_rows`` rows.
    """
    from repro.structures.encoding import EncodedRelation

    num_rows = handle.num_rows
    maps: list[mmap.mmap] = []
    codes: list = []
    if num_rows:
        for path in handle.paths:
            with open(path, "rb") as fh:
                mapped = mmap.mmap(
                    fh.fileno(), num_rows * _ITEMSIZE, access=mmap.ACCESS_READ
                )
            maps.append(mapped)
            codes.append(memoryview(mapped).cast("i"))
        bump("spill_pages_read", handle.arity * max(1, -(-num_rows // PAGE_ROWS)))
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
    return encoding, _FileAttachment(maps)
