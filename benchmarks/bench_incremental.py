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
instance every batch.  The table persists to
``benchmarks/results/incremental_vs_full.txt``.
"""

from __future__ import annotations

import time

import pytest

from _util import emit
from repro.core.normalize import Normalizer
from repro.core.selection import AutoDecider
from repro.evaluation.reporting import format_table
from repro.incremental import IncrementalNormalizer
from repro.model.instance import RelationInstance
from repro.verification.incremental import generate_batch_stream
from repro.verification.planted import plant_instance

#: cumulative batch counts at which both series are sampled
CHECKPOINTS = [1, 2, 4, 8, 16, 32]
_ROWS_PER_BATCH = "1-4"

_SERIES: dict[int, dict[str, float]] = {}


def _base():
    planted = plant_instance(
        1234, num_columns=7, num_rows=2_000, derived_rate=0.6
    )
    return planted


def _stream(planted, count):
    _, batches = generate_batch_stream(
        1234, planted.instance, planted.key_mask, count, kind="insert-only"
    )
    return batches


def _scratch_normalizer() -> Normalizer:
    return Normalizer(
        algorithm="hyfd", decider=AutoDecider(), degrade=False
    )


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


def test_incremental_cumulative(benchmark):
    planted = _base()
    batches = _stream(planted, max(CHECKPOINTS))

    def run():
        engine = IncrementalNormalizer(
            RelationInstance(
                planted.instance.relation,
                [list(c) for c in planted.instance.columns_data],
            )
        )
        marks = {}
        started = time.perf_counter()
        for index, batch in enumerate(batches, start=1):
            engine.apply_batch(batch)
            if index in CHECKPOINTS:
                marks[index] = time.perf_counter() - started
        return marks

    marks = benchmark.pedantic(run, rounds=1, iterations=1)
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
