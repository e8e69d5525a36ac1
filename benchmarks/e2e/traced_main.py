"""Launch ``repro`` with the benchmark's span recorder installed.

Usage (``PYTHONPATH=src``)::

    python benchmarks/e2e/traced_main.py TRACE_OUT.json <repro arguments>

Wraps the public functions of each layer in spans (see ``trace.py``),
runs ``repro.cli.main`` with the remaining arguments, and writes the
spans and counters to ``TRACE_OUT.json`` when the process exits.  Pool
workers forked from this process inherit the wrappers, but their spans
die with them: only the parent's view (including its wait in
``parallel.map``) is recorded.
"""

from __future__ import annotations

import atexit
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from trace import Recorder  # noqa: E402


def _count(name, value_of):
    def on_result(recorder, args, result):
        recorder.add(name, value_of(result))

    return on_result


def _on_batch(recorder, args, outcome):
    recorder.add("incremental.maintenance_s", outcome.maintenance_seconds)
    recorder.add("incremental.refresh_s", outcome.refresh_seconds)
    recorder.add("incremental.pairs_examined", outcome.delta.pairs_examined)
    recorder.add("incremental.validations", outcome.delta.validations)


def _on_should(recorder, args, said_yes):
    if not said_yes:
        recorder.add("parallel.should.declined", 1)


def _on_close(recorder, args, _):
    stats = args[0].stats
    if stats is not None:
        recorder.add("parallel.tasks", stats.tasks_dispatched)
        recorder.add("parallel.serial_fallbacks", stats.serial_fallbacks)
        recorder.add("parallel.export_s", stats.export_seconds)


def install(recorder: Recorder) -> list:
    """Wrap every traced layer; returns the PLI-cache stats sink."""
    import repro.cli  # noqa: F401  (binds the names the CLI imports)
    from repro.core import closure, decomposition, key_derivation, scoring
    from repro.core import violations
    from repro.core.normalize import Normalizer
    from repro.core.selection import AutoDecider
    from repro.discovery.hyfd import induction, validation
    from repro.discovery.hyfd.hyfd import HyFD
    from repro.discovery.hyfd.sampler import Sampler
    from repro.incremental import journal
    from repro.incremental.engine import IncrementalNormalizer
    from repro.io import csv_io, ddl
    from repro.parallel import RelationRun
    from repro.parallel.pool import WorkerPool
    from repro.server import app  # noqa: F401  (binds its imports too)
    from repro.server.sessions import Session, SessionRegistry
    from repro.structures.fdtree import FDTree
    from repro.structures.fdtree_legacy import LegacyFDTree
    from repro.structures.partitions import PLICache

    cache_stats: list = []

    def on_cache_init(recorder, args, _):
        cache_stats.append(args[0].stats)

    functions = [
        (csv_io, "read_csv", "io.read_csv", None),
        (ddl, "schema_to_ddl", "io.ddl", None),
        (induction, "apply_agree_sets", "discovery.induction", None),
        (validation, "validate_tree", "discovery.validation", None),
        (closure, "calculate_closure", "core.closure", None),
        (key_derivation, "derive_keys", "core.keys", None),
        (violations, "find_violating_fds", "core.violations", None),
        (
            scoring,
            "rank_violating_fds",
            "core.scoring",
            _count("core.scoring.ranked", len),
        ),
        (decomposition, "decompose", "core.decomposition", None),
        (journal, "save_journal", "incremental.journal", None),
    ]
    methods = [
        (PLICache, "__init__", "structures.plicache.init", on_cache_init),
        (PLICache, "get", "structures.plicache.get", None),
        (FDTree, "add_minimal_specializations", "structures.fdtree.specialize", None),
        (
            LegacyFDTree,
            "add_minimal_specializations",
            "structures.fdtree.specialize",
            None,
        ),
        (
            HyFD,
            "discover",
            "discovery.hyfd",
            _count("discovery.fds", lambda fds: fds.count_single_rhs()),
        ),
        (Sampler, "__init__", "discovery.sampler", None),
        (Sampler, "next_round", "discovery.sampler", None),
        (Normalizer, "run", "core.normalize", None),
        (Normalizer, "_select_primary_key", "core.primary_key", None),
        (scoring.DistinctEstimator, "distinct", "core.scoring.distinct", None),
        (AutoDecider, "choose_violating_fd", "core.selection", None),
        (AutoDecider, "edit_rhs", "core.selection", None),
        (WorkerPool, "ensure_started", "parallel.start", None),
        (RelationRun, "map", "parallel.map", None),
        (RelationRun, "should", "parallel.should", _on_should),
        (RelationRun, "close", "parallel.close", _on_close),
        (IncrementalNormalizer, "apply_batch", "incremental.apply_batch", _on_batch),
        (IncrementalNormalizer, "ddl", "server.compute.ddl", None),
        (SessionRegistry, "create", "server.compute.create", None),
        (SessionRegistry, "apply_batch", "server.compute.batch", None),
        (Session, "migration_sql", "server.compute.migration", None),
    ]

    # getattr raises if a listed layer function was renamed or moved, so
    # a lost span fails the traced run instead of reading as 0 s.
    replaced = {}
    for module, attr, name, hook in functions:
        original = getattr(module, attr)
        replaced[id(original)] = recorder.wrap(name, original, hook)
        setattr(module, attr, replaced[id(original)])
    wrapped = set()
    for cls, attr, name, hook in methods:
        original = getattr(cls, attr)
        # A subclass that inherits a method from a class wrapped above
        # (LegacyFDTree from FDTree) already records it under that name.
        if id(original) in wrapped:
            continue
        wrapper = recorder.wrap(name, original, hook)
        wrapped.add(id(wrapper))
        setattr(cls, attr, wrapper)
    # Modules that imported a wrapped function by name hold the original.
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and wrapper is not value:
                setattr(module, attr, wrapper)
    return cache_stats


def main(argv: list[str]) -> int:
    out_path, repro_args = argv[0], argv[1:]
    from repro import kernels
    from repro.cli import main as repro_main

    recorder = Recorder()
    cache_stats = install(recorder)
    owner = os.getpid()
    kernels_before = kernels.counters_snapshot()

    def dump() -> None:
        if os.getpid() != owner:  # a forked pool worker exiting
            return
        delta = kernels.counters_delta(kernels_before)
        recorder.add(
            "kernel_calls",
            sum(v for k, v in delta.items() if k.endswith("_calls")),
        )
        recorder.add(
            "kernel_rows", sum(v for k, v in delta.items() if k.endswith("_rows"))
        )
        recorder.add("pli_hits", sum(s.hits for s in cache_stats))
        recorder.add("pli_misses", sum(s.misses for s in cache_stats))
        recorder.dump(out_path)

    atexit.register(dump)
    return recorder.wrap("cli.main", repro_main)(repro_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
