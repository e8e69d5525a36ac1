"""Console front-end for Normalize.

The paper's implementation "is currently console-based, offering only
basic user interaction" (§9); this module is that surface.  Batch mode
normalizes fully automatically; ``--interactive`` puts the human in the
loop at each decomposition and primary-key decision, exactly the
(semi-)automatic mode of the paper.

Examples::

    repro-normalize data.csv
    repro-normalize data.csv --algorithm tane --target 3nf
    repro-normalize data.csv --interactive --ddl schema.sql --out-dir normalized/

A single subcommand hosts the correctness harness (see
``docs/TESTING.md``)::

    repro verify --seeds 50
    python -m repro verify --seeds 200 --repro-out shrunk_repros.py

Two subcommands host the incremental engine (``docs/INCREMENTAL.md``)::

    repro apply-batch data.csv --changes changes.json --report
    repro watch data.csv --changes changes.jsonl --interval 2

Each handler imports the modules it runs after its arguments parse, so
``--help`` loads no pipeline and ``repro submit`` loads only the client.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.runtime.errors import (
    BudgetExceeded,
    CheckpointError,
    InputError,
    WorkerCrashError,
)

if TYPE_CHECKING:
    from repro.core.scoring import KeyScore, ViolatingFDScore
    from repro.core.selection import CallbackDecider
    from repro.model.instance import RelationInstance
    from repro.runtime.governor import Budget

__all__ = ["build_parser", "main"]

#: structured exit codes of the CLI boundary (documented in
#: docs/ROBUSTNESS.md): bad input data/arguments, a propagated budget
#: breach (only with --no-degrade), a checkpoint defect, an unrecovered
#: worker crash (strict pool mode), and the conventional signal codes
#: (128 + SIGINT/SIGTERM/SIGPIPE): after a graceful teardown, or when
#: the reader of standard output went away.
EXIT_INPUT_ERROR = 2
EXIT_BUDGET_EXCEEDED = 3
EXIT_CHECKPOINT_ERROR = 4
EXIT_WORKER_CRASH = 5
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141
EXIT_TERMINATED = 143

#: the ``--algorithm`` choices: the keys of
#: ``repro.discovery.base.FD_ALGORITHMS``, spelled out so ``--help``
#: need not import the discovery package (a test pins the two together)
FD_ALGORITHM_NAMES = ("hyfd", "tane", "bruteforce")


class _Terminated(BaseException):
    """Raised by the SIGTERM handler so ``finally`` blocks run.

    A ``BaseException`` (like ``KeyboardInterrupt``) so no library-level
    ``except Exception`` can swallow the shutdown on its way to the CLI
    boundary.
    """


def _graceful_shutdown() -> None:
    """Best-effort teardown on a signal: pool down, shm unlinked.

    Checkpoint journals need no flushing here — every write is already
    atomic (tmp + rename), so an interrupt can only lose the in-flight
    step, never corrupt the journal.  What a signal *can* strand is the
    worker pool and its shared-memory segments; release both, if this
    process ever built a pool.
    """
    try:
        from repro.parallel import shutdown_pool_if_loaded

        shutdown_pool_if_loaded()
    except Exception:  # pragma: no cover - teardown best effort
        pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-normalize",
        description="Data-driven BCNF/3NF/4NF normalization of CSV datasets "
        "(reproduction of Papenbrock & Naumann, EDBT 2017).",
    )
    parser.add_argument(
        "files", nargs="+", help="input CSV files (one relation each)"
    )
    parser.add_argument(
        "--algorithm",
        default="hyfd",
        choices=FD_ALGORITHM_NAMES,
        help="FD discovery algorithm (default: hyfd)",
    )
    parser.add_argument(
        "--target",
        default="bcnf",
        choices=("bcnf", "3nf", "4nf"),
        help="normal form to establish (default: bcnf); 4nf adds the "
        "MVD-driven extension phase",
    )
    parser.add_argument(
        "--closure",
        default="optimized",
        choices=("naive", "improved", "optimized"),
        help="closure algorithm (default: optimized)",
    )
    parser.add_argument(
        "--max-lhs-size",
        type=int,
        default=None,
        help="prune FDs with a wider LHS during discovery (paper §4.3)",
    )
    parser.add_argument(
        "--delimiter", default=",", help="CSV field delimiter (default: ,)"
    )
    parser.add_argument(
        "--no-header",
        action="store_true",
        help="input files have no header row",
    )
    parser.add_argument(
        "--interactive",
        action="store_true",
        help="ask at every decomposition / primary-key decision",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="candidates shown per interactive decision (default: 10)",
    )
    parser.add_argument(
        "--ddl", metavar="FILE", help="write CREATE TABLE statements here"
    )
    parser.add_argument(
        "--dot",
        metavar="FILE",
        help="write a Graphviz DOT preview of the normalized schema",
    )
    parser.add_argument(
        "--out-dir",
        metavar="DIR",
        help="write one CSV per normalized relation into this directory",
    )
    parser.add_argument(
        "--tree",
        action="store_true",
        help="print the Figure-3-style foreign-key tree of the result",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a data profile (column stats, FDs, keys) and exit",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="only check conformance with --target and report violations; "
        "do not normalize",
    )
    parser.add_argument(
        "--save-fds",
        metavar="FILE",
        help="save the discovered FD set as JSON (reusable via --load-fds)",
    )
    parser.add_argument(
        "--load-fds",
        metavar="FILE",
        help="skip discovery: load a previously saved FD set "
        "(single input file only)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="export the full normalization result (schema, log, stats) as JSON",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size for HyFD validation levels; every other "
        "stage runs serially (default: $REPRO_WORKERS or 1 = serial); "
        "results are byte-identical at any worker count",
    )
    governance = parser.add_argument_group("resource governance")
    governance.add_argument(
        "--deadline",
        metavar="DURATION",
        help="wall-clock budget for normalizing, e.g. 5s, 250ms, 2m; it "
        "starts once the CSV files are parsed and does not cover writing "
        "the outputs",
    )
    governance.add_argument(
        "--memory-limit",
        metavar="SIZE",
        help="peak resident-memory ceiling, e.g. 512MB, 2gb",
    )
    governance.add_argument(
        "--max-candidates",
        type=int,
        metavar="N",
        help="cap on discovery candidate work units (lattice nodes, "
        "partition intersections)",
    )
    governance.add_argument(
        "--no-degrade",
        action="store_true",
        help="on a budget breach in discovery, fail (exit 3) instead of "
        "keeping the partial FDs discovered before it",
    )
    governance.add_argument(
        "--approximate",
        action="store_true",
        help="sampled discovery: run discovery on a --sample-rows sample, "
        "verify candidates against the full data with the g3 measure, "
        "and report per-FD error bounds",
    )
    governance.add_argument(
        "--sample-rows",
        type=int,
        metavar="N",
        help="row-sample size of --approximate (default: 512)",
    )
    governance.add_argument(
        "--approx-error",
        type=float,
        metavar="EPS",
        help="g3 error --approximate tolerates when verifying sampled FDs "
        "against the full data (default: 0.0 = keep only exactly-holding "
        "FDs)",
    )
    governance.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="journal pipeline progress to this file after every "
        "discovery and decision (atomic writes)",
    )
    governance.add_argument(
        "--resume",
        metavar="FILE",
        help="resume a killed run from its checkpoint file (implies "
        "--checkpoint FILE unless given separately)",
    )
    governance.add_argument(
        "--csv-errors",
        default="strict",
        choices=("strict", "pad", "skip"),
        help="how to treat malformed CSV rows: strict = fail (default), "
        "pad = fill/truncate ragged rows, skip = drop them",
    )
    return parser


def _budget(args: argparse.Namespace) -> Budget | None:
    """The run's budget from the governance flags (None if unbounded)."""
    if not (args.deadline or args.memory_limit or args.max_candidates):
        return None
    from repro.runtime.governor import Budget, parse_duration, parse_memory

    return Budget(
        deadline_seconds=parse_duration(args.deadline) if args.deadline else None,
        max_memory_bytes=(
            parse_memory(args.memory_limit) if args.memory_limit else None
        ),
        max_candidates=args.max_candidates,
    )


def _interactive_decider(top: int) -> CallbackDecider:
    from repro.core.selection import CallbackDecider

    def on_violating_fd(
        instance: RelationInstance, ranking: list[ViolatingFDScore]
    ) -> int | None:
        print(f"\nRelation {instance.name!r} violates the normal form.")
        print("Ranked decomposition candidates (LHS -> RHS):")
        for index, score in enumerate(ranking[:top]):
            lhs = ",".join(instance.relation.names_of(score.fd.lhs))
            rhs = ",".join(instance.relation.names_of(score.fd.rhs))
            print(f"  [{index}] ({score.total:.3f}) {lhs} -> {rhs}")
        if len(ranking) > top:
            print(f"  ... and {len(ranking) - top} more")
        answer = input("Pick index, or 's' to stop this relation [0]: ").strip()
        if answer.lower() == "s":
            return None
        return int(answer) if answer else 0

    def on_primary_key(
        instance: RelationInstance, ranking: list[KeyScore]
    ) -> int | None:
        print(f"\nPick a primary key for relation {instance.name!r}:")
        for index, score in enumerate(ranking[:top]):
            key = ",".join(instance.relation.names_of(score.key))
            print(f"  [{index}] ({score.total:.3f}) {{{key}}}")
        answer = input("Pick index, or 'n' for no key [0]: ").strip()
        if answer.lower() == "n":
            return None
        return int(answer) if answer else 0

    return CallbackDecider(
        on_violating_fd=on_violating_fd, on_primary_key=on_primary_key
    )


def main(argv: list[str] | None = None) -> int:
    """Console entry point with the structured error boundary.

    Deliberate failures map to stable exit codes instead of tracebacks:
    bad input → 2, propagated budget breach → 3, checkpoint defect → 4,
    unrecovered worker crash → 5.  SIGINT and SIGTERM tear the worker
    pool and shared memory down before exiting 130/143 (128 + signal),
    so an interrupted run never strands ``/dev/shm`` segments or
    orphaned workers.  A reader that closes standard output early
    (``repro data.csv --profile | head -1``) ends the run with 141
    (128 + SIGPIPE) and no traceback.  Anything else escaping is a
    genuine bug and keeps its traceback.
    """
    if argv is None:
        argv = sys.argv[1:]

    def _on_sigterm(signum, frame):
        raise _Terminated()

    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    try:
        code = _run_command(argv)
        # Flush here so a closed pipe raises inside this boundary, not
        # in the interpreter's final flush.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT_ERROR
    except WorkerCrashError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER_CRASH
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except KeyboardInterrupt:
        _graceful_shutdown()
        print("\ninterrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except _Terminated:
        _graceful_shutdown()
        print("terminated", file=sys.stderr)
        return EXIT_TERMINATED
    finally:
        if previous_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, previous_sigterm)
            except ValueError:  # pragma: no cover - not the main thread
                pass


def _run_command(argv: list[str]) -> int:
    if argv and argv[0] == "verify":
        # The verification harness rides on the same console entry
        # point (`repro verify --seeds N`); the rest is normalization.
        from repro.verification.runner import main_verify

        return main_verify(argv[1:])
    if argv and argv[0] == "apply-batch":
        return _main_apply_batch(argv[1:], watch=False)
    if argv and argv[0] == "watch":
        return _main_apply_batch(argv[1:], watch=True)
    if argv and argv[0] == "serve":
        return _main_serve(argv[1:])
    if argv and argv[0] == "submit":
        return _main_submit(argv[1:])
    return _main_normalize(argv)


def _main_normalize(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    budget = _budget(args)

    from repro.io.csv_io import read_csv, write_csv

    instances = [
        read_csv(
            path,
            delimiter=args.delimiter,
            has_header=not args.no_header,
            on_error=args.csv_errors,
        )
        for path in args.files
    ]

    sampling = {
        name: value
        for name, value in (
            ("sample_rows", args.sample_rows),
            ("approx_error", args.approx_error),
        )
        if value is not None
    }
    if sampling and not args.approximate:
        raise InputError("--sample-rows and --approx-error need --approximate")
    sampled = None
    if args.approximate:
        if args.load_fds:
            raise InputError("--approximate cannot be combined with --load-fds")
        from repro.discovery.sampled import SampledG3FD

        sampled = SampledG3FD(max_lhs_size=args.max_lhs_size, **sampling)

    if args.profile:
        from repro.profiling import profile

        for instance in instances:
            print(
                profile(
                    instance,
                    fd_algorithm=sampled if sampled is not None else args.algorithm,
                    workers=args.workers,
                ).to_str()
            )
            print()
        return 0

    if args.check:
        from repro.core.nf_check import check_normal_form

        all_conform = True
        for instance in instances:
            report = check_normal_form(
                instance, target=args.target, algorithm=args.algorithm
            )
            print(report.to_str(instance.columns))
            all_conform = all_conform and report.conforms
        return 0 if all_conform else 1

    from repro.core.normalize import Normalizer
    from repro.core.selection import AutoDecider

    algorithm: object = sampled if sampled is not None else args.algorithm
    if args.load_fds:
        from repro.discovery.precomputed import PrecomputedFDs
        from repro.io.serialization import load_fdset

        if len(instances) != 1:
            raise InputError("--load-fds supports exactly one input file")
        fds, columns = load_fdset(args.load_fds)
        if columns != instances[0].columns:
            raise InputError(
                "--load-fds: saved FD set was profiled on different columns"
            )
        algorithm = PrecomputedFDs({instances[0].name: fds})

    decider = _interactive_decider(args.top) if args.interactive else AutoDecider()
    if args.target == "4nf":
        from repro.extensions.fournf import FourNFNormalizer

        if len(instances) != 1:
            raise InputError("--target 4nf supports exactly one input file")
        four = FourNFNormalizer(
            algorithm=algorithm,
            decider=decider,
            closure_algorithm=args.closure,
            max_lhs_size=args.max_lhs_size,
        ).run(instances[0])
        print(four.to_str())
        return 0

    if args.save_fds and len(instances) != 1:
        raise InputError("--save-fds supports exactly one input file")
    resume_state = None
    checkpoint_path = args.checkpoint
    if args.resume:
        from repro.runtime.checkpointing import load_state

        resume_state = load_state(args.resume)
        if checkpoint_path is None:
            checkpoint_path = args.resume

    normalizer = Normalizer(
        algorithm=algorithm,
        decider=decider,
        target=args.target,
        closure_algorithm=args.closure,
        max_lhs_size=args.max_lhs_size,
        budget=budget,
        degrade=not args.no_degrade,
        checkpoint_path=checkpoint_path,
        workers=args.workers,
    )
    result = normalizer.run(instances, resume_state=resume_state)

    if args.save_fds:
        from repro.io.serialization import save_fdset

        fds = result.discovered_fds[instances[0].name]
        save_fdset(fds, instances[0].columns, args.save_fds)
        print(f"FD set written to {args.save_fds}")

    print(result.to_str())
    if args.tree:
        from repro.evaluation.snowflake import schema_tree

        print()
        print("Foreign-key tree:")
        print(schema_tree(result.schema))
    print()
    for stat in result.stats:
        print(
            f"[{stat.relation}] {stat.num_fds} minimal FDs, "
            f"{stat.num_fd_keys} FD-derived keys | "
            f"discovery {stat.fd_discovery_seconds:.2f}s, "
            f"closure {stat.closure_seconds:.2f}s"
        )
    if sampled is not None and sampled.reports:
        print()
        print("approximate discovery (g3 error bounds):")
        for name, bounds in sampled.reports.items():
            print(f"  [{name}]")
            for bound in bounds:
                print(f"    {bound}")

    if args.ddl:
        from repro.io.ddl import schema_to_ddl

        Path(args.ddl).write_text(
            schema_to_ddl(result.schema, result.instances), encoding="utf-8"
        )
        print(f"DDL written to {args.ddl}")
    if args.dot:
        from repro.io.graphviz import schema_to_dot

        Path(args.dot).write_text(
            schema_to_dot(result.schema), encoding="utf-8"
        )
        print(f"DOT graph written to {args.dot}")
    if args.json:
        import json as _json

        from repro.io.serialization import result_to_json

        Path(args.json).write_text(
            _json.dumps(result_to_json(result), indent=2), encoding="utf-8"
        )
        print(f"Result JSON written to {args.json}")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, instance in result.instances.items():
            write_csv(instance, out_dir / f"{name}.csv")
        print(f"{len(result.instances)} relations written to {out_dir}/")
    return 0


def build_apply_batch_parser(watch: bool = False) -> argparse.ArgumentParser:
    """Parser of ``repro apply-batch`` / ``repro watch``."""
    prog = "repro watch" if watch else "repro apply-batch"
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Maintain a normalized schema under batched inserts/deletes "
            "(the incremental engine; see docs/INCREMENTAL.md)."
        ),
    )
    parser.add_argument(
        "files", nargs="+", help="input CSV files (the original relations)"
    )
    parser.add_argument(
        "--changes",
        metavar="FILE",
        required=True,
        help="change log: a repro/changelog JSON document or JSON-Lines "
        "(one batch object per line)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print a per-batch, per-relation violation and fidelity summary",
    )
    parser.add_argument(
        "--algorithm",
        default="hyfd",
        choices=FD_ALGORITHM_NAMES,
        help="FD discovery algorithm for the initial run (default: hyfd)",
    )
    parser.add_argument(
        "--target",
        default="bcnf",
        choices=("bcnf", "3nf"),
        help="normal form to maintain (default: bcnf)",
    )
    parser.add_argument(
        "--closure",
        default="optimized",
        choices=("naive", "improved", "optimized"),
        help="closure algorithm (default: optimized)",
    )
    parser.add_argument(
        "--delimiter", default=",", help="CSV field delimiter (default: ,)"
    )
    parser.add_argument(
        "--no-header",
        action="store_true",
        help="input files have no header row",
    )
    parser.add_argument(
        "--csv-errors",
        default="strict",
        choices=("strict", "pad", "skip"),
        help="how to treat malformed CSV rows (default: strict)",
    )
    parser.add_argument(
        "--ddl",
        metavar="FILE",
        help="write the final schema's CREATE TABLE statements here",
    )
    parser.add_argument(
        "--migration",
        metavar="FILE",
        help="write the per-batch migration plans (ordered DDL) here",
    )
    parser.add_argument(
        "--out-dir",
        metavar="DIR",
        help="write one CSV per final normalized relation into this directory",
    )
    parser.add_argument(
        "--journal",
        metavar="FILE",
        help="journal engine state here after every batch (atomic writes)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from --journal if it exists: already-applied batches "
        "are replayed as raw edits, covers are restored, discovery is skipped",
    )
    governance = parser.add_argument_group("resource governance")
    governance.add_argument(
        "--deadline",
        metavar="DURATION",
        help="wall-clock budget per batch (and for the initial run), "
        "e.g. 5s, 250ms, 2m",
    )
    governance.add_argument(
        "--memory-limit",
        metavar="SIZE",
        help="peak resident-memory ceiling, e.g. 512MB, 2gb",
    )
    governance.add_argument(
        "--max-candidates",
        type=int,
        metavar="N",
        help="cap on candidate work units per governed phase",
    )
    if watch:
        parser.add_argument(
            "--interval",
            type=float,
            default=2.0,
            metavar="SECONDS",
            help="poll interval for new batches in the change log "
            "(default: 2.0)",
        )
        parser.add_argument(
            "--once",
            action="store_true",
            help="apply whatever the change log currently holds, then exit",
        )
        parser.add_argument(
            "--max-batches",
            type=int,
            default=None,
            metavar="N",
            help="exit after this many batches have been applied in total",
        )
    return parser


def _main_apply_batch(argv: list[str], watch: bool) -> int:
    import time as _time

    args = build_apply_batch_parser(watch=watch).parse_args(argv)
    budget = _budget(args)

    from repro.incremental import IncrementalNormalizer, resume_engine
    from repro.io.csv_io import read_csv, write_csv
    from repro.io.serialization import load_changelog

    instances = [
        read_csv(
            path,
            delimiter=args.delimiter,
            has_header=not args.no_header,
            on_error=args.csv_errors,
        )
        for path in args.files
    ]

    if args.resume and not args.journal:
        raise InputError("--resume requires --journal FILE")

    engine_kwargs = dict(
        algorithm=args.algorithm,
        target=args.target,
        closure_algorithm=args.closure,
        budget=budget,
    )
    log = load_changelog(args.changes, coerce_str=True)
    if args.resume and Path(args.journal).exists():
        engine = resume_engine(
            instances, log.batches, args.journal, **engine_kwargs
        )
        print(
            f"resumed from {args.journal}: {engine.applied_batches} "
            "batch(es) already applied"
        )
    else:
        engine = IncrementalNormalizer(
            instances, journal_path=args.journal, **engine_kwargs
        )

    migration_log: list[str] = []

    def apply_pending() -> int:
        current = load_changelog(args.changes, coerce_str=True)
        applied = 0
        while engine.applied_batches < len(current):
            outcome = engine.apply_batch(current[engine.applied_batches])
            applied += 1
            if args.report:
                print(outcome.to_str())
            if outcome.schema_changed:
                migration_log.append(
                    f"-- batch {outcome.batch_index} "
                    f"({outcome.relation})\n" + outcome.migration.to_sql()
                )
        return applied

    if watch:
        # SIGINT/SIGTERM propagate to the main() boundary, which tears
        # down the pool and shared memory and exits 130/143.
        limit = args.max_batches
        while True:
            apply_pending()
            if args.once:
                break
            if limit is not None and engine.applied_batches >= limit:
                break
            _time.sleep(args.interval)
    else:
        apply_pending()

    result = engine.result
    assert result is not None
    print(
        f"applied {engine.applied_batches} batch(es); schema has "
        f"{len(result.instances)} relation(s)"
    )
    for name in engine.relation_names():
        cover = engine.fd_cover(name)
        print(
            f"[{name}] {cover.count_single_rhs()} minimal FDs, "
            f"{len(engine.key_cover(name))} minimal key(s), "
            f"{engine.live(name).num_rows} row(s)"
        )
    print(result.schema.to_str())

    if args.ddl:
        Path(args.ddl).write_text(engine.ddl(), encoding="utf-8")
        print(f"DDL written to {args.ddl}")
    if args.migration:
        text = (
            "\n".join(migration_log)
            if migration_log
            else "-- No schema changes.\n"
        )
        Path(args.migration).write_text(text, encoding="utf-8")
        print(f"Migration plans written to {args.migration}")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, instance in result.instances.items():
            write_csv(instance, out_dir / f"{name}.csv")
        print(f"{len(result.instances)} relations written to {out_dir}/")
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser of ``repro serve`` (the normalization daemon)."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the multi-tenant normalization daemon: upload datasets "
            "once, then stream change batches and read schema/DDL views "
            "without ever re-paying discovery (docs/SERVER.md)."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8651,
        help="TCP port; 0 picks a free one (default %(default)s)",
    )
    parser.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="also/instead listen on a unix domain socket",
    )
    parser.add_argument(
        "--resume-dir",
        metavar="DIR",
        default=None,
        help="persist sessions here; a restarted daemon revives them "
        "from their incremental journals without rediscovery",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        metavar="N",
        help="LRU ceiling on in-memory sessions (default %(default)s); "
        "evicted sessions revive from --resume-dir on next touch",
    )
    parser.add_argument(
        "--idle-ttl",
        metavar="DUR",
        default="1h",
        help="drop sessions idle this long, e.g. 30s, 15m, 1h "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--max-body",
        metavar="SIZE",
        default="64MB",
        help="request-body ceiling, e.g. 8MB (default %(default)s)",
    )
    parser.add_argument(
        "--drain-timeout",
        metavar="DUR",
        default="10s",
        help="how long a SIGTERM drain waits for in-flight requests "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker-pool size for discovery fan-out (default: "
        "$REPRO_WORKERS or 1 = serial)",
    )
    return parser


def _main_serve(argv: list[str]) -> int:
    args = build_serve_parser().parse_args(argv)
    if args.workers is not None:
        if args.workers < 1:
            raise InputError("--workers must be >= 1")
        os.environ["REPRO_WORKERS"] = str(args.workers)

    from repro.runtime.governor import parse_duration, parse_memory
    from repro.server.app import ServerConfig, serve

    config = ServerConfig(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        resume_dir=args.resume_dir,
        max_sessions=args.max_sessions,
        idle_ttl=parse_duration(args.idle_ttl),
        max_body_bytes=parse_memory(args.max_body),
        drain_timeout=parse_duration(args.drain_timeout),
    )
    return serve(config)


def build_submit_parser() -> argparse.ArgumentParser:
    """Parser of ``repro submit`` (client of a running daemon)."""
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description=(
            "Talk to a running `repro serve` daemon: upload a dataset, "
            "stream change batches, and fetch schema/DDL/migration views."
        ),
    )
    parser.add_argument(
        "file",
        nargs="?",
        metavar="FILE.csv",
        help="dataset to upload as a new session (omit to reuse one)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8651)
    parser.add_argument(
        "--unix-socket",
        metavar="PATH",
        default=None,
        help="connect over a unix domain socket instead of TCP",
    )
    parser.add_argument(
        "--tenant", default="default", help="tenant id (default %(default)s)"
    )
    parser.add_argument(
        "--session",
        metavar="ID",
        default=None,
        help="session id to create or address (server generates one "
        "when omitted at upload)",
    )
    parser.add_argument(
        "--changes",
        metavar="FILE",
        default=None,
        help="JSON/JSONL changelog to stream as change batches",
    )
    parser.add_argument(
        "--ddl",
        metavar="FILE",
        default=None,
        help="fetch the session DDL into FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--migration",
        metavar="FILE",
        default=None,
        help="fetch the accumulated migration plans into FILE "
        "('-' for stdout)",
    )
    parser.add_argument(
        "--schema",
        action="store_true",
        help="print the session's normalized schema",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print daemon statistics JSON"
    )
    parser.add_argument(
        "--delete",
        action="store_true",
        help="delete the session (after any other actions)",
    )
    for flag, kwargs in (
        ("--algorithm", {"choices": FD_ALGORITHM_NAMES}),
        ("--target", {"choices": ("bcnf", "3nf")}),
        ("--closure", {"choices": ("naive", "improved", "optimized")}),
        ("--deadline", {"metavar": "DUR"}),
        ("--memory-limit", {"metavar": "SIZE"}),
        ("--max-candidates", {"metavar": "N"}),
        ("--delimiter", {"metavar": "CHAR"}),
    ):
        parser.add_argument(flag, default=None, **kwargs)
    return parser


def _main_submit(argv: list[str]) -> int:
    args = build_submit_parser().parse_args(argv)

    from repro.server.client import ReproClient, ServerError

    client = ReproClient(
        host=args.host,
        port=args.port,
        tenant=args.tenant,
        socket_path=args.unix_socket,
    )
    session_id = args.session

    def _write(path: str, text: str, label: str) -> None:
        if path == "-":
            sys.stdout.write(text)
        else:
            Path(path).write_text(text, encoding="utf-8")
            print(f"{label} written to {path}")

    try:
        if args.file:
            options = {
                key: value
                for key, value in (
                    ("algorithm", args.algorithm),
                    ("target", args.target),
                    ("closure", args.closure),
                    ("deadline", args.deadline),
                    ("memory_limit", args.memory_limit),
                    ("max_candidates", args.max_candidates),
                    ("delimiter", args.delimiter),
                )
                if value is not None
            }
            info = client.create_session(
                Path(args.file).read_bytes(),
                name=Path(args.file).stem,
                session=session_id,
                **options,
            )
            session_id = info["session"]
            print(
                f"session {session_id} created: {info['rows']} row(s), "
                f"{info['relations']} relation(s)"
            )
        if args.changes:
            if session_id is None:
                raise InputError("--changes needs --session (or an upload)")
            from repro.io.serialization import load_changelog

            for batch in load_changelog(args.changes, coerce_str=True):
                outcome = client.apply_batch(session_id, batch.to_json())
                print(
                    f"batch {outcome['batch_index']} -> "
                    f"+{outcome['inserts_applied']} "
                    f"-{outcome['deletes_applied']} rows, "
                    f"schema_changed={outcome['schema_changed']}, "
                    f"fidelity={outcome['fidelity']}"
                )
        if args.schema:
            if session_id is None:
                raise InputError("--schema needs --session (or an upload)")
            sys.stdout.write(client.schema_text(session_id))
        if args.ddl:
            if session_id is None:
                raise InputError("--ddl needs --session (or an upload)")
            _write(args.ddl, client.ddl(session_id), "DDL")
        if args.migration:
            if session_id is None:
                raise InputError(
                    "--migration needs --session (or an upload)"
                )
            _write(
                args.migration, client.migration(session_id), "Migration plans"
            )
        if args.stats:
            import json as _json

            print(_json.dumps(client.stats(), indent=2, sort_keys=True))
        if args.delete:
            if session_id is None:
                raise InputError("--delete needs --session (or an upload)")
            client.delete_session(session_id)
            print(f"session {session_id} deleted")
    except ServerError as exc:
        # Mirror the offline exit-code taxonomy over the wire.
        print(f"error: {exc}", file=sys.stderr)
        if exc.status == 429:
            return EXIT_BUDGET_EXCEEDED
        if exc.status in (500,) and exc.code == "checkpoint_error":
            return EXIT_CHECKPOINT_ERROR
        if exc.status == 503 and exc.code == "worker_crash":
            return EXIT_WORKER_CRASH
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: cannot reach the daemon: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
