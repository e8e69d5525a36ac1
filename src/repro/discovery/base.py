"""Common interface for FD discovery algorithms.

Every discoverer consumes a :class:`~repro.model.instance.RelationInstance`
and produces the complete set of minimal, non-trivial functional
dependencies as an aggregated :class:`~repro.model.fd.FDSet` — the
contract the rest of the pipeline (optimized closure, Lemma 1) depends
on.  Discoverers share two knobs:

* ``null_equals_null`` — the NULL comparison semantics (Metanome's and
  the paper's default is that two NULLs agree),
* ``max_lhs_size`` — the paper's memory-bound pruning (§4.3): discard
  all FDs with a larger LHS.  The remaining FD set is still closed
  correctly by Algorithm 3 for all surviving FDs.
"""

from __future__ import annotations

import abc
import inspect
from importlib import import_module

from repro.model.fd import FDSet
from repro.model.instance import RelationInstance
from repro.runtime.errors import InputError

__all__ = ["FDAlgorithm", "discover_fds"]

#: FD discoverers by name, as ``module.Class``.  Resolving a name
#: imports only the module of the discoverer it names.
FD_ALGORITHMS = {
    "hyfd": "repro.discovery.hyfd.HyFD",
    "tane": "repro.discovery.tane.Tane",
    "bruteforce": "repro.discovery.bruteforce.BruteForceFD",
}


class FDAlgorithm(abc.ABC):
    """Base class for complete minimal-FD discovery algorithms."""

    name: str = "fd-algorithm"

    def __init__(
        self, null_equals_null: bool = True, max_lhs_size: int | None = None
    ) -> None:
        if max_lhs_size is not None and max_lhs_size < 0:
            raise ValueError("max_lhs_size must be non-negative")
        self.null_equals_null = null_equals_null
        self.max_lhs_size = max_lhs_size

    @abc.abstractmethod
    def discover(self, instance: RelationInstance) -> FDSet:
        """Return all minimal non-trivial FDs of ``instance``.

        With ``max_lhs_size`` set, FDs with wider LHSs are omitted; the
        result is then complete *up to that LHS size*.
        """

    def _within_lhs_bound(self, lhs: int) -> bool:
        return self.max_lhs_size is None or lhs.bit_count() <= self.max_lhs_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(null_equals_null={self.null_equals_null}, "
            f"max_lhs_size={self.max_lhs_size})"
        )


def algorithm_class(registry: dict[str, str], kind: str, algorithm: str) -> type:
    """The class ``registry`` names ``algorithm`` (any case), imported
    on demand; ``kind`` names the registry in the error message."""
    path = registry.get(algorithm.lower())
    if path is None:
        raise InputError(
            f"unknown {kind} algorithm {algorithm!r}; choose from {sorted(registry)}"
        )
    module, _, name = path.rpartition(".")
    return getattr(import_module(module), name)


def resolve_fd_algorithm(
    algorithm: str, workers: int | None = None, **kwargs
) -> FDAlgorithm:
    """Instantiate an FD discoverer by name (see :data:`FD_ALGORITHMS`).

    ``workers`` reaches only the discoverers whose constructors take it,
    the ones that can use the process pool.
    """
    cls = algorithm_class(FD_ALGORITHMS, "FD", algorithm)
    if "workers" in inspect.signature(cls).parameters:
        kwargs["workers"] = workers
    return cls(**kwargs)


def discover_fds(
    instance: RelationInstance, algorithm: FDAlgorithm | str = "hyfd", **kwargs
) -> FDSet:
    """Convenience front door: discover FDs with a named algorithm.

    ``algorithm`` may be an :class:`FDAlgorithm` instance or one of
    ``"hyfd"``, ``"tane"``, ``"bruteforce"``.
    """
    if isinstance(algorithm, FDAlgorithm):
        return algorithm.discover(instance)
    return resolve_fd_algorithm(algorithm, **kwargs).discover(instance)
