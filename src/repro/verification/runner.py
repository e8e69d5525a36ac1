"""Seeded verification campaigns: generate, check, shrink, report.

One *seed* drives one adversarial round: a pure-random table (per-column
domains, Zipf skew, NULL patterns) plus a planted-cover table with known
ground truth, pushed through every check the subsystem offers —

* differential FD discovery under both NULL semantics,
* differential UCC discovery,
* definition-level soundness/minimality of the oracle's own output and
  containment of the planted cover,
* closure metamorphics (agreement + idempotence),
* whole-pipeline metamorphics for BCNF and 3NF (normal-form compliance,
  lossless join, dependency-preservation accounting, and the encode
  round trip of the input and every result instance),
* row-order invariance for BCNF and 3NF under both NULL semantics: the
  planted table with its rows shuffled gives the same cover, DDL and
  per-relation rows.

Every failure is minimized with the shrinker and rendered as a
ready-to-paste pytest module, so a red fuzz run in CI hands the next
developer a finished regression test instead of a seed number.

Console entry point: ``repro verify --seeds N`` (also reachable as
``python -m repro verify``).
"""

from __future__ import annotations

import argparse
import random
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.datagen.random_tables import random_instance
from repro.discovery.base import discover_fds
from repro.discovery.ucc import discover_uccs
from repro.model.attributes import names_of
from repro.model.instance import RelationInstance
from repro.verification.differential import (
    DEFAULT_FD_ALGORITHMS,
    DEFAULT_UCC_ALGORITHMS,
    run_fd_differential,
    run_ucc_differential,
    semantic_fd_errors,
)
from repro.verification.metamorphic import (
    check_closure_properties,
    check_pipeline_properties,
    check_row_order_invariance,
    lost_dependencies,
)
from repro.verification.planted import plant_instance
from repro.verification.shrinker import shrink_instance, to_pytest_repro

__all__ = [
    "VerificationFailure",
    "VerificationReport",
    "build_verify_parser",
    "main_verify",
    "verify_chunk",
    "verify_seeds",
]

_DIFFERENTIAL_IMPORT = (
    "from repro.verification.differential import run_fd_differential"
)
_UCC_IMPORT = "from repro.verification.differential import run_ucc_differential"


@dataclass(slots=True)
class VerificationFailure:
    """One failed check, with its shrunk reproduction."""

    seed: int
    check: str
    detail: str
    instance: RelationInstance
    shrunk: RelationInstance | None = None
    repro: str | None = None

    def describe(self) -> str:
        lines = [
            f"seed {self.seed} / {self.check}: {self.detail}",
            f"  original instance: {self.instance.arity} cols x "
            f"{self.instance.num_rows} rows",
        ]
        if self.shrunk is not None:
            lines.append(
                f"  shrunk to: {self.shrunk.arity} cols x "
                f"{self.shrunk.num_rows} rows"
            )
        return "\n".join(lines)


@dataclass(slots=True)
class VerificationReport:
    """Outcome of one verification campaign."""

    seeds: list[int] = field(default_factory=list)
    checks_run: int = 0
    failures: list[VerificationFailure] = field(default_factory=list)
    #: FDs the BCNF/3NF decompositions could not keep enforceable in a
    #: single relation (informational; BCNF legitimately loses some)
    dependency_losses: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_str(self) -> str:
        lines = [
            f"verified {len(self.seeds)} seeds, {self.checks_run} checks: "
            + ("all passed" if self.ok else f"{len(self.failures)} FAILURES"),
            f"dependency-preservation losses observed: {self.dependency_losses}"
            " (accounting only)",
        ]
        for failure in self.failures:
            lines.append("")
            lines.append(failure.describe())
            if failure.repro:
                lines.append("  pytest reproduction:")
                lines.extend(
                    "    " + line for line in failure.repro.splitlines()
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def verify_seeds(
    seeds: int | Iterable[int],
    num_rows: int = 26,
    max_columns: int = 6,
    shrink: bool = True,
    fd_algorithms: Mapping[str, object] | Sequence[str] | None = None,
    ucc_algorithms: Sequence[str] | None = None,
    progress: Callable[[str], None] | None = None,
    workers: int | None = None,
) -> VerificationReport:
    """Run the full check battery over a seed range or iterable.

    ``fd_algorithms`` follows the differential runner's convention
    (names, or a mapping including pre-built algorithm objects — the
    mutation smoke tests inject deliberately broken discoverers this
    way).  Failures are shrunk unless ``shrink=False``.

    ``workers > 1`` shards the seed list over the process pool, one
    contiguous chunk per worker; every seed's round is independent and
    chunk reports are merged in seed order, so the campaign outcome is
    identical to a serial run.  Campaigns with injected algorithm
    *objects* (not picklable by contract) always run serially.
    """
    if isinstance(seeds, int):
        seeds = range(seeds)
    fd_algorithms = (
        tuple(DEFAULT_FD_ALGORITHMS) if fd_algorithms is None else fd_algorithms
    )
    ucc_algorithms = (
        tuple(DEFAULT_UCC_ALGORITHMS) if ucc_algorithms is None else ucc_algorithms
    )
    seed_list = list(seeds)
    resolved = _workers_for_campaign(workers, seed_list, fd_algorithms)
    if resolved > 1:
        return _verify_seeds_parallel(
            seed_list,
            num_rows,
            max_columns,
            shrink,
            fd_algorithms,
            ucc_algorithms,
            progress,
            resolved,
        )
    report = VerificationReport()
    for seed in seed_list:
        report.seeds.append(seed)
        if progress is not None:
            progress(f"seed {seed}")
        _verify_one_seed(
            seed, report, num_rows, max_columns, shrink, fd_algorithms, ucc_algorithms
        )
    return report


def _workers_for_campaign(workers, seed_list, fd_algorithms) -> int:
    from repro.parallel import resolve_workers

    resolved = resolve_workers(workers)
    if resolved <= 1 or len(seed_list) < 2:
        return 1
    named = (
        fd_algorithms.values()
        if isinstance(fd_algorithms, Mapping)
        else fd_algorithms
    )
    if not all(isinstance(algorithm, str) for algorithm in named):
        return 1
    return resolved


def _verify_seeds_parallel(
    seed_list: list[int],
    num_rows: int,
    max_columns: int,
    shrink: bool,
    fd_algorithms,
    ucc_algorithms,
    progress,
    workers: int,
) -> VerificationReport:
    from repro.parallel import RelationRun

    names = (
        dict(fd_algorithms)
        if isinstance(fd_algorithms, Mapping)
        else tuple(fd_algorithms)
    )
    run = RelationRun(workers)
    try:
        payloads = [
            {
                "seeds": seed_list[start:stop],
                "num_rows": num_rows,
                "max_columns": max_columns,
                "shrink": shrink,
                "fd_algorithms": names,
                "ucc_algorithms": tuple(ucc_algorithms),
            }
            for start, stop in run.ranges(len(seed_list))
        ]
        report = VerificationReport()
        for index, chunk in enumerate(
            run.map(
                "verify_chunk",
                payloads,
                stage="verify-campaign",
                items=len(seed_list),
            )
        ):
            chunk_seeds, checks_run, failures, losses = chunk
            report.seeds.extend(chunk_seeds)
            report.checks_run += checks_run
            report.failures.extend(failures)
            report.dependency_losses += losses
            if progress is not None:
                progress(
                    f"chunk {index + 1}/{len(payloads)} "
                    f"({len(report.seeds)}/{len(seed_list)} seeds)"
                )
    finally:
        run.close()
    return report


def verify_chunk(payload: dict) -> tuple[list[int], int, list, int]:
    """Pool task ``verify_chunk``: the serial campaign over one
    contiguous seed chunk, as (seeds, checks run, failures, dependency
    losses).  The payload holds :func:`verify_seeds` arguments."""
    report = verify_seeds(**payload, workers=1)
    return (
        report.seeds,
        report.checks_run,
        report.failures,
        report.dependency_losses,
    )


def _verify_one_seed(
    seed: int,
    report: VerificationReport,
    num_rows: int,
    max_columns: int,
    shrink: bool,
    fd_algorithms,
    ucc_algorithms,
) -> None:
    rng = random.Random(seed * 0x9E3779B1 + 7)
    columns = rng.randint(3, max(3, max_columns))
    rows = rng.randint(6, max(6, num_rows))
    domains = [rng.randint(2, 4) for _ in range(columns)]
    skews = [rng.choice([0.0, 0.0, 1.0, 2.0]) for _ in range(columns)]
    null_rate = rng.choice([0.0, 0.0, 0.25])
    rand = random_instance(
        seed, columns, rows, domain_size=domains, null_rate=null_rate, skew=skews
    )
    planted = plant_instance(
        seed,
        num_columns=columns,
        num_rows=rows,
        null_rate=null_rate / 2,
    )

    named_algorithms = (
        fd_algorithms
        if isinstance(fd_algorithms, Mapping)
        else {name: name for name in fd_algorithms}
    )
    only_names = all(isinstance(a, str) for a in named_algorithms.values())

    for label, instance in (("random", rand), ("planted", planted.instance)):
        # 1. Differential FD discovery, both NULL semantics.
        for nen in (True, False):
            report.checks_run += 1
            disagreements = run_fd_differential(
                instance, named_algorithms, null_equals_null=nen
            )
            if disagreements:
                detail = "\n".join(
                    d.describe(instance.columns) for d in disagreements
                )
                expr = (
                    f"run_fd_differential(instance, null_equals_null={nen})"
                    if only_names
                    else f"run_fd_differential(instance, ALGORITHMS, "
                    f"null_equals_null={nen})"
                )
                predicate = lambda inst, nen=nen: bool(  # noqa: E731
                    run_fd_differential(
                        inst, named_algorithms, null_equals_null=nen
                    )
                )
                _record(
                    report,
                    seed,
                    f"fd-differential[{label}, nen={nen}]",
                    detail,
                    instance,
                    predicate,
                    expr,
                    (_DIFFERENTIAL_IMPORT,),
                    shrink,
                )

        # 2. Differential UCC discovery.
        report.checks_run += 1
        ucc_disagreements = run_ucc_differential(instance, ucc_algorithms)
        if ucc_disagreements:
            detail = "\n".join(
                d.describe(instance.columns) for d in ucc_disagreements
            )
            predicate = lambda inst: bool(  # noqa: E731
                run_ucc_differential(inst, ucc_algorithms)
            )
            _record(
                report,
                seed,
                f"ucc-differential[{label}]",
                detail,
                instance,
                predicate,
                "run_ucc_differential(instance)",
                (_UCC_IMPORT,),
                shrink,
            )

        # 3. Closure metamorphics on the discovered (minimal) FD set.
        report.checks_run += 1
        fds = discover_fds(instance, "bruteforce")
        closure_violations = check_closure_properties(fds)
        if closure_violations:
            detail = "; ".join(v.describe() for v in closure_violations)
            predicate = lambda inst: bool(  # noqa: E731
                check_closure_properties(discover_fds(inst, "bruteforce"))
            )
            _record(
                report,
                seed,
                f"closure[{label}]",
                detail,
                instance,
                predicate,
                "check_closure_properties(discover_fds(instance, 'bruteforce'))",
                (
                    "from repro.discovery.base import discover_fds",
                    "from repro.verification.metamorphic import"
                    " check_closure_properties",
                ),
                shrink,
            )

        # 4. Whole-pipeline metamorphics, BCNF and 3NF.
        for target in ("bcnf", "3nf"):
            report.checks_run += 1
            violations, result = check_pipeline_properties(
                instance, target=target
            )
            report.dependency_losses += len(
                lost_dependencies(instance, result)
            )
            if violations:
                detail = "; ".join(v.describe() for v in violations)
                predicate = lambda inst, target=target: bool(  # noqa: E731
                    check_pipeline_properties(inst, target=target)[0]
                )
                _record(
                    report,
                    seed,
                    f"pipeline[{label}, {target}]",
                    detail,
                    instance,
                    predicate,
                    f"check_pipeline_properties(instance, target={target!r})[0]",
                    (
                        "from repro.verification.metamorphic import"
                        " check_pipeline_properties",
                    ),
                    shrink,
                )

        # 5. Row-order invariance: ids follow row order, outputs must not.
        permutation = seed + 1000
        for nen in (True, False):
            for target in ("bcnf", "3nf"):
                report.checks_run += 1
                order_violations = check_row_order_invariance(
                    instance, target, nen, permutation
                )
                if order_violations:
                    detail = "; ".join(v.describe() for v in order_violations)
                    predicate = lambda inst, target=target, nen=nen: bool(  # noqa: E731
                        check_row_order_invariance(inst, target, nen, permutation)
                    )
                    _record(
                        report,
                        seed,
                        f"invariance[row-order, {label}, {target}, nen={nen}]",
                        detail,
                        instance,
                        predicate,
                        f"check_row_order_invariance(instance, {target!r}, "
                        f"{nen}, {permutation})",
                        (
                            "from repro.verification.metamorphic import"
                            " check_row_order_invariance",
                        ),
                        shrink,
                    )

    # 6. Ground-truth checks only the planted table can provide.
    report.checks_run += 1
    oracle_fds = discover_fds(planted.instance, "bruteforce")
    errors = semantic_fd_errors(
        planted.instance, oracle_fds, planted_cover=planted.cover
    )
    if errors:
        predicate = lambda inst: bool(  # noqa: E731
            semantic_fd_errors(inst, discover_fds(inst, "bruteforce"))
        )
        _record(
            report,
            seed,
            "planted-cover",
            errors.describe(planted.instance.columns),
            planted.instance,
            predicate,
            "semantic_fd_errors(instance, discover_fds(instance, 'bruteforce'))",
            (
                "from repro.discovery.base import discover_fds",
                "from repro.verification.differential import semantic_fd_errors",
            ),
            shrink,
        )

    if planted.key_mask:
        report.checks_run += 1
        uccs = discover_uccs(planted.instance, "naive")
        if not any(ucc & ~planted.key_mask == 0 for ucc in uccs):
            key_names = names_of(planted.key_mask, planted.instance.columns)
            _record(
                report,
                seed,
                "planted-key",
                f"no minimal UCC within planted key {{{','.join(key_names)}}}",
                planted.instance,
                predicate=None,
                failure_expr=None,
                imports=(),
                shrink=False,
            )


def _record(
    report: VerificationReport,
    seed: int,
    check: str,
    detail: str,
    instance: RelationInstance,
    predicate,
    failure_expr,
    imports,
    shrink: bool,
) -> None:
    failure = VerificationFailure(
        seed=seed, check=check, detail=detail, instance=instance
    )
    if shrink and predicate is not None:
        try:
            failure.shrunk = shrink_instance(instance, predicate)
        except ValueError:
            failure.shrunk = None  # flaky predicate; keep the original
        if failure.shrunk is not None and failure_expr is not None:
            safe = "".join(c if c.isalnum() else "_" for c in check)
            failure.repro = to_pytest_repro(
                failure.shrunk,
                failure_expr,
                imports=imports,
                test_name=f"test_repro_seed{seed}_{safe}".rstrip("_"),
                comment=f"shrunk from seed {seed}: {check}",
            )
    report.failures.append(failure)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_verify_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro verify",
        description="Differential & metamorphic verification of the whole "
        "Normalize pipeline over generated adversarial instances.",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=25,
        help="number of seeds to verify (seed values start at --start)",
    )
    parser.add_argument(
        "--start", type=int, default=0, help="first seed value (default: 0)"
    )
    parser.add_argument(
        "--rows", type=int, default=26, help="max rows per generated table"
    )
    parser.add_argument(
        "--columns", type=int, default=6, help="max columns per generated table"
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip failure minimization (faster triage runs)",
    )
    parser.add_argument(
        "--repro-out",
        metavar="FILE",
        help="write shrunk pytest reproductions of all failures to FILE",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-seed progress"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard the seed campaign over N worker processes "
        "(default: $REPRO_WORKERS or 1); with --faults, N > 1 also runs "
        "worker-level chaos seeds (worker_kill/worker_oom/worker_hang) "
        "against the self-healing pool; --incremental stays serial",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="run the fault-injection campaign instead: deterministic "
        "timeout/OOM/kill faults at checkpoint ticks, asserting graceful "
        "degradation and checkpoint/resume (see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="run the incremental-differential campaign instead: seeded "
        "batch streams (insert-only, delete-only, mixed, NULL-carrying, "
        "key-flipping) against the incremental engine, asserting the "
        "maintained covers, keys, and DDL stay byte-identical to "
        "from-scratch runs (see docs/INCREMENTAL.md)",
    )
    parser.add_argument(
        "--batches",
        type=int,
        default=10,
        help="batches per seed for --incremental (default: 10)",
    )
    return parser


def main_verify(argv: Sequence[str] | None = None) -> int:
    args = build_verify_parser().parse_args(argv)
    progress = None
    if not args.quiet:
        progress = lambda msg: print(f"  {msg}", end="\r", flush=True)  # noqa: E731
    if args.incremental:
        from repro.verification.incremental import verify_incremental_seeds

        incremental_report = verify_incremental_seeds(
            range(args.start, args.start + args.seeds),
            num_batches=args.batches,
            progress=progress,
        )
        if not args.quiet:
            print()
        print(incremental_report.to_str())
        return 0 if incremental_report.ok else 1
    if args.faults:
        from repro.verification.faults_campaign import run_fault_campaign

        fault_report = run_fault_campaign(
            range(args.start, args.start + args.seeds),
            num_rows=args.rows,
            max_columns=args.columns,
            progress=progress,
            workers=args.workers,
        )
        if not args.quiet:
            print()
        print(fault_report.to_str())
        return 0 if fault_report.ok else 1
    report = verify_seeds(
        range(args.start, args.start + args.seeds),
        num_rows=args.rows,
        max_columns=args.columns,
        shrink=not args.no_shrink,
        progress=progress,
        workers=args.workers,
    )
    if not args.quiet:
        print()
    print(report.to_str())
    if args.repro_out and not report.ok:
        blocks = [
            failure.repro for failure in report.failures if failure.repro
        ]
        if blocks:
            with open(args.repro_out, "w", encoding="utf-8") as handle:
                handle.write("\n\n".join(blocks))
            print(f"shrunk reproductions written to {args.repro_out}")
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_verify())
