"""Incremental maintenance vs. full re-discovery under append streams.

The incremental engine's pitch: when a batch arrives, re-running the
full pipeline (FD discovery included) from scratch costs what the
paper's Table 3 says discovery costs — by far the dominant share — and
that cost is paid *per batch*.  The engine instead maintains the
covers in O(new pairs) and re-runs only the pipeline tail.

This benchmark drives an append-heavy stream of small batches into a
mid-sized planted table and, as the batch count grows, compares the
cumulative wall-clock of

* ``incremental`` — one :class:`IncrementalNormalizer` absorbing every
  batch via ``apply_batch`` (cover maintenance + pipeline tail), and
* ``full re-discovery`` — a from-scratch ``normalize()`` (HyFD
  included) of the updated instance after every batch, which is what a
  batch-oblivious deployment would run.

Expected shape: the curves diverge with the batch count — the
incremental cumulative cost grows roughly linearly in the number of
*new* tuples, the from-scratch cost re-pays the whole (growing)
instance every batch.  At every checkpoint the engine's DDL must equal
a from-scratch run's (that check sits outside the timed region).  The
table persists to ``benchmarks/results/incremental_vs_full.txt``;
``test_incremental_smoke`` runs the check alone on a few batches of a
small base (``make bench-incremental-smoke``).
"""

from __future__ import annotations

import time

import pytest

from _util import emit
from repro.core.normalize import Normalizer
from repro.core.selection import AutoDecider
from repro.evaluation.reporting import format_table
from repro.incremental import IncrementalNormalizer
from repro.io.ddl import schema_to_ddl
from repro.model.instance import RelationInstance
from repro.verification.incremental import generate_batch_stream
from repro.verification.planted import plant_instance

#: cumulative batch counts at which both series are sampled
CHECKPOINTS = [1, 2, 4, 8, 16, 32]
_ROWS_PER_BATCH = "1-4"

_SERIES: dict[int, dict[str, float]] = {}


def _base(num_rows=2_000):
    return plant_instance(
        1234, num_columns=7, num_rows=num_rows, derived_rate=0.6
    )


def _stream(planted, count):
    _, batches = generate_batch_stream(
        1234, planted.instance, planted.key_mask, count, kind="insert-only"
    )
    return batches


def _scratch_normalizer() -> Normalizer:
    return Normalizer(
        algorithm="hyfd", decider=AutoDecider(), degrade=False
    )


def _run_incremental(planted, batches, checkpoints) -> dict[int, float]:
    """Absorb ``batches`` in one engine; return the cumulative
    ``apply_batch`` seconds at each checkpoint, asserting there that
    the engine's DDL equals a from-scratch run's."""
    engine = IncrementalNormalizer(
        RelationInstance(
            planted.instance.relation,
            [list(c) for c in planted.instance.columns_data],
        )
    )
    rows = list(planted.instance.iter_rows())
    marks = {}
    elapsed = 0.0
    for index, batch in enumerate(batches, start=1):
        started = time.perf_counter()
        engine.apply_batch(batch)
        elapsed += time.perf_counter() - started
        rows.extend(tuple(row) for row in batch.inserts)
        if index in checkpoints:
            marks[index] = elapsed
            scratch = _scratch_normalizer().run(
                RelationInstance.from_rows(planted.instance.relation, rows)
            )
            assert engine.ddl() == schema_to_ddl(
                scratch.schema, scratch.instances
            ), f"DDL diverged after batch {index}"
    return marks


@pytest.fixture(scope="module", autouse=True)
def _incremental_report(request):
    yield
    if not _SERIES:
        return
    headers = [
        "batches",
        "incremental cum. (s)",
        "full re-discovery cum. (s)",
        "speedup",
    ]
    rows = []
    for count in sorted(_SERIES):
        data = _SERIES[count]
        if "incremental" in data and "scratch" in data:
            speedup = data["scratch"] / max(data["incremental"], 1e-9)
            rows.append(
                [
                    count,
                    f"{data['incremental']:.3f}",
                    f"{data['scratch']:.3f}",
                    f"{speedup:.1f}x",
                ]
            )
    emit(
        format_table(
            headers,
            rows,
            title=(
                "Incremental maintenance vs. full re-discovery, "
                f"append-heavy stream ({_ROWS_PER_BATCH} rows/batch, "
                "2k-row base table)"
            ),
        ),
        request,
        filename="incremental_vs_full",
    )


def test_incremental_smoke():
    planted = _base(num_rows=200)
    marks = _run_incremental(planted, _stream(planted, 4), [1, 2, 4])
    assert sorted(marks) == [1, 2, 4]


def test_incremental_cumulative(benchmark):
    planted = _base()
    batches = _stream(planted, max(CHECKPOINTS))
    marks = benchmark.pedantic(
        _run_incremental, (planted, batches, CHECKPOINTS), rounds=1, iterations=1
    )
    for count, seconds in marks.items():
        _SERIES.setdefault(count, {})["incremental"] = seconds


def test_full_rediscovery_cumulative(benchmark):
    planted = _base()
    batches = _stream(planted, max(CHECKPOINTS))

    def run():
        rows = list(planted.instance.iter_rows())
        marks = {}
        started = time.perf_counter()
        for index, batch in enumerate(batches, start=1):
            rows.extend(tuple(row) for row in batch.inserts)
            instance = RelationInstance.from_rows(
                planted.instance.relation, rows
            )
            _scratch_normalizer().run(instance)
            if index in CHECKPOINTS:
                marks[index] = time.perf_counter() - started
        return marks

    marks = benchmark.pedantic(run, rounds=1, iterations=1)
    for count, seconds in marks.items():
        _SERIES.setdefault(count, {})["scratch"] = seconds
