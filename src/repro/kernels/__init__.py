"""Kernel backend layer for the encoded-column hot paths.

The partition engine (:mod:`repro.structures.partitions`) and the
agree-set helper (:mod:`repro.structures.encoding`) dispatch their inner
loops through this package so the same interfaces can run on either of
two interchangeable backends:

* ``python`` — the original interpreted loops, moved verbatim into
  :mod:`repro.kernels.pybackend`.  Always available; serves as the
  differential oracle for the vectorized path
  (``tests/test_kernels_differential.py``).
* ``numpy`` — sort/groupby-based partition refinement, bulk multi-RHS
  violation scans, and uint64-packed bitset agree-set extraction in
  :mod:`repro.kernels.npbackend`.  Requires the optional ``[perf]``
  extra (``pip install -e .[test,perf]``).

Selection is by input size: every call site passes its driving element
count to :func:`for_size`, which returns the python backend below
:data:`SMALL_INPUT_THRESHOLD` and otherwise the resolved large-input
backend — numpy when it is importable, python when it is not.  Per-call
numpy overhead exceeds the interpreted loop on small inputs, so a run
whose kernel calls all stay below the threshold never imports numpy.
:func:`set_backend` pins the large-input backend in-process; tests and
micro-benchmarks use it to run both.

Both backends honour the same determinism contract (docs/KERNELS.md):
identical CSR bytes for every partition, the identical violating row
pair for every refuted FD, and identical agree masks — so parallel
numpy runs stay byte-identical to serial pure-Python runs.

Every dispatch records per-kernel call/row counters; ``profile()``
snapshots them into ``DataProfile.counters`` together with the
large-input backend name.
"""

from __future__ import annotations

from types import ModuleType

from repro.kernels import pybackend
from repro.runtime.errors import InputError

__all__ = [
    "SMALL_INPUT_THRESHOLD",
    "active",
    "backend_name",
    "bump",
    "counters_delta",
    "counters_snapshot",
    "for_size",
    "numpy_available",
    "numpy_module",
    "record",
    "reset_counters",
    "reset_process_state",
    "set_backend",
]

_BACKENDS = ("python", "numpy")

#: below this many driving elements a kernel call runs the python
#: backend whatever the large-input backend is; tests set it to 0 to
#: force the vectorized paths on small fixtures
SMALL_INPUT_THRESHOLD = 512

# Programmatic override (set_backend); None means "numpy when importable".
_requested: str | None = None
# Resolved large-input backend module + name; None until first needed.
_active: ModuleType | None = None
_active_name: str | None = None

_counters: dict[str, int] = {}


def numpy_available() -> bool:
    """True iff numpy is importable in this process."""
    try:
        import numpy  # noqa: F401
    except Exception:  # pragma: no cover - import failure path
        return False
    return True


def numpy_module():
    """The numpy module, or ``None`` when it is not importable.

    Callers that build batched index arrays (the HyFD sampler) use this
    instead of importing numpy directly, so they degrade gracefully on
    a pure-Python install.
    """
    try:
        import numpy
    except Exception:  # pragma: no cover - import failure path
        return None
    return numpy


def _resolve() -> None:
    global _active, _active_name
    name = _requested
    if name is None:
        name = "numpy" if numpy_available() else "python"
    if name == "numpy":
        if not numpy_available():
            raise InputError(
                "kernel backend 'numpy' requested but numpy is not "
                "importable; install the [perf] extra "
                "(pip install -e .[perf])"
            )
        from repro.kernels import npbackend as module
    else:
        module = pybackend
    _active = module
    _active_name = name


def active() -> ModuleType:
    """The large-input backend module (resolving lazily on first use)."""
    if _active is None:
        _resolve()
    return _active


def for_size(n: int) -> ModuleType:
    """The backend for one kernel call driven by ``n`` elements.

    Below :data:`SMALL_INPUT_THRESHOLD` this is always the python
    backend and nothing is resolved or imported; otherwise it is
    :func:`active`.  Identity holds either way: the backends are
    byte-identical (docs/KERNELS.md).
    """
    if n < SMALL_INPUT_THRESHOLD:
        return pybackend
    return active()


def backend_name() -> str:
    """The large-input backend name: ``"python"`` or ``"numpy"``."""
    if _active is None:
        _resolve()
    return _active_name


def set_backend(name: str | None) -> None:
    """Pin the large-input kernel backend in-process (tests, benchmarks).

    ``name`` is ``python`` or ``numpy``, or ``None`` to drop the pin and
    pick numpy when it is importable.  Resolution is re-done lazily, so
    pinning ``numpy`` on an install without numpy only fails once a
    kernel call of :data:`SMALL_INPUT_THRESHOLD` or more elements is
    made (or eagerly via :func:`backend_name`).
    """
    global _requested, _active, _active_name
    if name is not None and name not in _BACKENDS:
        raise InputError(
            f"unknown kernel backend {name!r}; "
            f"choose one of {', '.join(_BACKENDS)}"
        )
    _requested = name
    _active = None
    _active_name = None


# ----------------------------------------------------------------------
# Per-kernel call/row counters (surfaced via DataProfile.counters)
# ----------------------------------------------------------------------
def record(kernel: str, rows: int) -> None:
    """Count one kernel dispatch processing ``rows`` row slots."""
    calls_key = f"kernel_{kernel}_calls"
    rows_key = f"kernel_{kernel}_rows"
    _counters[calls_key] = _counters.get(calls_key, 0) + 1
    _counters[rows_key] = _counters.get(rows_key, 0) + rows


def bump(calls_key: str, rows_key: str, rows: int) -> None:
    """Precomputed-key variant of :func:`record`.

    The FD-tree lattice sweeps run millions of times per discovery;
    building the two f-string keys per call would cost more than the
    counter update itself, so those callers precompute the key pair
    once at module scope and bump through this.
    """
    _counters[calls_key] = _counters.get(calls_key, 0) + 1
    _counters[rows_key] = _counters.get(rows_key, 0) + rows


def counters_snapshot() -> dict[str, int]:
    return dict(_counters)


def counters_delta(mark: dict[str, int]) -> dict[str, int]:
    """Counter increments since ``mark`` (zero deltas omitted)."""
    delta = {}
    for key, value in _counters.items():
        increment = value - mark.get(key, 0)
        if increment:
            delta[key] = increment
    return delta


def reset_counters() -> None:
    _counters.clear()


def reset_process_state() -> None:
    """Fork hygiene: drop counters and backend scratch buffers.

    Called by pool workers on start (alongside
    ``partitions.reset_process_state``) so a child never inherits the
    parent's counter totals or a probe buffer with live entries.
    """
    reset_counters()
    pybackend.reset_scratch()
