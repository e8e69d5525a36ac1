"""A Metanome-style profiling facade.

The paper implements Normalize inside the Metanome data-profiling
framework, which "standardizes input parsing, result formatting, and
performance measurement".  This module is the equivalent surface for
this library: one call profiles a relation (or a set of relations) and
returns every metadata kind the pipeline and its extensions consume —
column statistics, minimal FDs, minimal UCCs, and cross-relation unary
INDs — together with wall-clock timings and a printable report.

Usage::

    from repro.profiling import profile

    report = profile(instance)
    print(report.to_str())
    report.fds            # FDSet
    report.uccs           # list of key-candidate masks
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import kernels
from repro.discovery.base import FDAlgorithm, resolve_fd_algorithm
from repro.discovery.ind import IND, discover_unary_inds
from repro.discovery.ucc import resolve_ucc_algorithm
from repro.evaluation.reporting import format_table
from repro.model.fd import FDSet
from repro.model.instance import RelationInstance

__all__ = ["ColumnStats", "DataProfile", "profile", "profile_many"]


@dataclass(frozen=True, slots=True)
class ColumnStats:
    """Basic single-column statistics."""

    name: str
    distinct: int
    nulls: int
    min_length: int
    max_length: int
    is_unique: bool
    is_constant: bool


@dataclass(slots=True)
class DataProfile:
    """Everything profiled about one relation."""

    relation: str
    num_attributes: int
    num_records: int
    columns: list[ColumnStats]
    fds: FDSet
    uccs: list[int]
    timings: dict[str, float] = field(default_factory=dict)
    #: integer totals plus the ``kernel_backend`` name string
    counters: dict[str, int | str] = field(default_factory=dict)
    #: per-FD g3 error lines when an approximate (sampled) discoverer
    #: produced the FD set; ``None`` for exact runs
    approx_bounds: list[str] | None = None

    def to_str(self) -> str:
        lines = [
            f"Profile of {self.relation!r}: {self.num_attributes} attributes, "
            f"{self.num_records} records",
            f"  minimal FDs: {self.fds.count_single_rhs()} "
            f"({len(self.fds)} aggregated, avg |RHS| "
            f"{self.fds.average_rhs_size():.1f})",
            f"  minimal UCCs: {len(self.uccs)}",
        ]
        if self.counters:
            lines.append(
                "  counters: "
                + ", ".join(
                    f"{key}={value}" for key, value in self.counters.items()
                )
            )
        if self.approx_bounds is not None:
            lines.append("  approximate FDs (g3 error bounds):")
            lines.extend(f"    {bound}" for bound in self.approx_bounds)
        lines.append("")
        rows = [
            [
                stat.name,
                stat.distinct,
                stat.nulls,
                f"{stat.min_length}-{stat.max_length}",
                "yes" if stat.is_unique else "",
                "yes" if stat.is_constant else "",
            ]
            for stat in self.columns
        ]
        lines.append(
            format_table(
                ["column", "distinct", "nulls", "len", "unique", "constant"],
                rows,
            )
        )
        return "\n".join(lines)


def _column_stats(instance: RelationInstance) -> list[ColumnStats]:
    stats = []
    encoding = instance.encoded()
    rows = instance.num_rows
    for index, name in enumerate(instance.columns):
        # The decode table lists each value that occurs once.
        table = instance.decode_table(index)
        non_null = [value for value in table if value is not None]
        lengths = [len(str(value)) for value in non_null]
        distinct = len(non_null)
        null_code = encoding.null_codes[index]
        nulls = 0 if null_code is None else encoding.codes[index].count(null_code)
        stats.append(
            ColumnStats(
                name=name,
                distinct=distinct,
                nulls=nulls,
                min_length=min(lengths) if lengths else 0,
                max_length=max(lengths) if lengths else 0,
                is_unique=distinct == rows and rows > 0,
                is_constant=distinct <= 1,
            )
        )
    return stats


def profile(
    instance: RelationInstance,
    fd_algorithm: FDAlgorithm | str = "hyfd",
    ucc_algorithm: str = "ducc",
    null_equals_null: bool = True,
    workers: int | None = None,
) -> DataProfile:
    """Profile one relation: column stats, minimal FDs, minimal UCCs.

    ``counters`` in the returned profile carries the PLI-cache
    hit/miss/eviction totals of the discovery runs (prefixed ``fd_`` /
    ``ucc_``) whenever the chosen algorithms expose them, plus — with
    ``workers > 1`` — the worker-pool counters of the FD discovery run
    (``pool_``-prefixed: tasks dispatched, shard sizes, shared-memory
    attach/export times, serial fallbacks, plus the self-healing
    totals — respawns, retries, quarantined shards, heartbeat misses,
    in-process fallback tasks, and whether the pool degraded to serial
    entirely).  It also records the kernel
    backend of calls with at least ``kernels.SMALL_INPUT_THRESHOLD``
    elements (``kernel_backend``) and this profile run's
    per-kernel call/row totals (``kernel_*_calls`` / ``kernel_*_rows``;
    parent process only — worker-side kernel calls are not folded back).
    """
    timings: dict[str, float] = {}
    counters: dict[str, int | str] = {}
    kernel_mark = kernels.counters_snapshot()

    started = time.perf_counter()
    columns = _column_stats(instance)
    timings["column_stats"] = time.perf_counter() - started

    started = time.perf_counter()
    if isinstance(fd_algorithm, str):
        fd_algorithm = resolve_fd_algorithm(
            fd_algorithm, workers=workers, null_equals_null=null_equals_null
        )
    fds = fd_algorithm.discover(instance)
    timings["fd_discovery"] = time.perf_counter() - started
    _collect_cache_counters(counters, "fd_", fd_algorithm)
    _collect_pool_counters(counters, fd_algorithm)
    approx_bounds = None
    if hasattr(fd_algorithm, "format_bounds"):
        approx_bounds = fd_algorithm.format_bounds(instance.columns)
        sampled = getattr(fd_algorithm, "last_sampled_rows", None)
        if sampled is not None:
            counters["fd_sampled_rows"] = sampled

    started = time.perf_counter()
    ucc = resolve_ucc_algorithm(
        ucc_algorithm, null_equals_null=null_equals_null
    )
    uccs = ucc.discover(instance)
    timings["ucc_discovery"] = time.perf_counter() - started
    _collect_cache_counters(counters, "ucc_", ucc)

    counters["kernel_backend"] = kernels.backend_name()
    counters.update(kernels.counters_delta(kernel_mark))

    return DataProfile(
        relation=instance.name,
        num_attributes=instance.arity,
        num_records=instance.num_rows,
        columns=columns,
        fds=fds,
        uccs=uccs,
        timings=timings,
        counters=counters,
        approx_bounds=approx_bounds,
    )


def _collect_cache_counters(counters: dict[str, int], prefix: str, algorithm) -> None:
    stats = getattr(algorithm, "last_cache_stats", None)
    if stats is not None:
        for key, value in stats.as_dict().items():
            counters[f"{prefix}{key}"] = value


def _collect_pool_counters(counters: dict[str, int], algorithm) -> None:
    stats = getattr(algorithm, "last_pool_stats", None)
    if stats is not None:
        counters.update(stats.as_dict())


def profile_many(
    instances: dict[str, RelationInstance],
    fd_algorithm: FDAlgorithm | str = "hyfd",
) -> tuple[dict[str, DataProfile], list[IND]]:
    """Profile several relations plus the unary INDs between them."""
    profiles = {
        name: profile(instance, fd_algorithm)
        for name, instance in instances.items()
    }
    inds = discover_unary_inds(instances)
    return profiles, inds
