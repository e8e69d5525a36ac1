"""Per-call-site speedup of the process pool: serial vs two workers.

The pool has three call sites, one per task kind: HyFD validation
levels (``hyfd_validate``), TANE level generation (``tane_generate``)
and ``repro verify`` seed shards (``verify_chunk``).  Each ``record`` row times one site, serial and at
``workers=2``, on an input where that site dispatches under the
production cost model (``SERIAL_THRESHOLD`` untouched).  The time is
the site's own:

* ``validate_tree`` inside ``HyFD.discover``;
* ``Tane._generate_next_level`` inside ``Tane.discover``;
* ``verify_seeds`` over a seed range.

For the two discovery sites the enclosing ``discover`` call is timed
too, so the table also shows what the site buys end to end.  Each row
runs ``REPEATS[site]`` serial/pooled pairs, alternating which side
goes first, and records the medians.  Every pooled run must dispatch
tasks and return exactly the serial output (cover or report text).

The ``smoke`` rows run the same sites on tiny inputs with the
threshold forced to zero: they check identity and dispatch in seconds
(``-k smoke``) and record nothing.  The ``record`` rows write
``benchmarks/results/parallel_scaling.txt`` and
``BENCH_parallel_scaling.json`` with ``os.cpu_count()``; on one CPU
the two workers time-slice a core, so a speedup needs at least two.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import pytest

from _util import emit, emit_json
from repro import kernels
from repro.discovery.hyfd import HyFD
from repro.discovery.hyfd import hyfd as hyfd_module
from repro.discovery.tane import Tane
from repro.evaluation.reporting import format_table
from repro.parallel import pool as pool_module
from repro.parallel import pool_stats, shutdown_pool
from repro.verification.planted import plant_instance
from repro.verification.runner import verify_seeds

#: Serial/pooled pairs per record row.
REPEATS = {"validation": 3, "tane": 3, "verify": 3}

#: (columns, rows, max_domain) of each site's planted input, or the
#: number of seeds for ``verify``.  Each record input is one on which
#: the site beat serial on a 2-CPU host.
INPUTS = {
    "record": {
        "validation": (20, 10_000, 50),
        "tane": (16, 30_000, 200),
        "verify": 300,
    },
    "smoke": {
        "validation": (6, 200, 4),
        "tane": (6, 200, 4),
        "verify": 4,
    },
}

TASK_KINDS = {
    "validation": "hyfd_validate",
    "tane": "tane_generate",
    "verify": "verify_chunk",
}

_RECORD: dict[str, dict] = {}


def _planted(spec):
    columns, rows, domain = spec
    return plant_instance(
        7, num_columns=columns, num_rows=rows, null_rate=0.02, max_domain=domain
    ).instance


def _tasks_dispatched() -> int:
    stats = pool_stats()
    return 0 if stats is None else stats.tasks_dispatched


class _SiteClock:
    """Accumulates the wall time spent inside one wrapped function."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def wrap(self, function):
        @functools.wraps(function)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - started

        return timed


@pytest.fixture(autouse=True)
def _fresh_pool():
    yield
    shutdown_pool()


def _measure(site: str, scale: str, run) -> None:
    """Alternate serial and pooled runs of ``run(workers)``.

    ``run`` returns ``(output, site_seconds, call_seconds)``, the last
    ``None`` when the site is the whole call.  Asserts that the serial
    run never touches the pool, that every pooled run dispatches, and
    that every output equals the first one.
    """
    site_s = {1: [], 2: []}
    call_s = {1: [], 2: []}
    tasks = 0
    reference = None
    for index in range(REPEATS[site] if scale == "record" else 1):
        for workers in (1, 2) if index % 2 == 0 else (2, 1):
            before = _tasks_dispatched()
            output, seconds, call = run(workers)
            dispatched = _tasks_dispatched() - before
            if reference is None:
                reference = output
            assert output == reference, f"{site}: workers={workers} changed the output"
            if workers == 1:
                assert dispatched == 0, f"{site}: the serial run used the pool"
            else:
                assert dispatched > 0, f"{site}: the pooled run never dispatched"
                tasks = dispatched
            site_s[workers].append(seconds)
            if call is not None:
                call_s[workers].append(call)
    if scale != "record":
        return
    serial = statistics.median(site_s[1])
    pooled = statistics.median(site_s[2])
    entry = {
        "task_kind": TASK_KINDS[site],
        "input": INPUTS[scale][site],
        "serial_s": site_s[1],
        "workers2_s": site_s[2],
        "serial_median_s": serial,
        "workers2_median_s": pooled,
        "speedup": serial / pooled,
        "pairs": REPEATS[site],
        "pool_tasks_per_run": tasks,
    }
    if call_s[1]:
        entry["call_serial_median_s"] = statistics.median(call_s[1])
        entry["call_workers2_median_s"] = statistics.median(call_s[2])
    _RECORD[site] = entry


@pytest.fixture(params=["smoke", "record"])
def scale(request, monkeypatch):
    if request.param == "smoke":
        monkeypatch.setattr(pool_module, "SERIAL_THRESHOLD", 0)
    return request.param


def test_validation(benchmark, monkeypatch, scale):
    instance = _planted(INPUTS[scale]["validation"])
    clock = _SiteClock()
    monkeypatch.setattr(
        hyfd_module, "validate_tree", clock.wrap(hyfd_module.validate_tree)
    )

    def run(workers):
        clock.seconds = 0.0
        started = time.perf_counter()
        cover = HyFD(workers=workers).discover(instance)
        call = time.perf_counter() - started
        return list(cover.items()), clock.seconds, call

    benchmark.pedantic(
        _measure, args=("validation", scale, run), rounds=1, iterations=1
    )


def test_tane(benchmark, monkeypatch, scale):
    instance = _planted(INPUTS[scale]["tane"])
    clock = _SiteClock()
    monkeypatch.setattr(
        Tane,
        "_generate_next_level",
        staticmethod(clock.wrap(Tane._generate_next_level)),
    )

    def run(workers):
        clock.seconds = 0.0
        started = time.perf_counter()
        cover = Tane(workers=workers).discover(instance)
        call = time.perf_counter() - started
        return list(cover.items()), clock.seconds, call

    benchmark.pedantic(_measure, args=("tane", scale, run), rounds=1, iterations=1)


def test_verify(benchmark, scale):
    seeds = INPUTS[scale]["verify"]

    def run(workers):
        started = time.perf_counter()
        report = verify_seeds(range(seeds), workers=workers)
        return report.to_str(), time.perf_counter() - started, None

    benchmark.pedantic(
        _measure, args=("verify", scale, run), rounds=1, iterations=1
    )


@pytest.fixture(scope="module", autouse=True)
def _scaling_report(request):
    yield
    if not _RECORD:
        return
    cpus = os.cpu_count()
    rows = []
    for site, entry in _RECORD.items():
        shape = entry["input"]
        described = (
            f"{shape} seeds"
            if isinstance(shape, int)
            else f"{shape[1]:,}x{shape[0]} d={shape[2]}"
        )
        call = "-"
        if "call_serial_median_s" in entry:
            call = (
                f"{entry['call_serial_median_s']:.2f} -> "
                f"{entry['call_workers2_median_s']:.2f}"
            )
        rows.append(
            [
                site,
                entry["task_kind"],
                described,
                f"{entry['serial_median_s']:.3f}",
                f"{entry['workers2_median_s']:.3f}",
                f"{entry['speedup']:.2f}x",
                entry["pairs"],
                entry["pool_tasks_per_run"],
                call,
            ]
        )
    emit(
        format_table(
            [
                "site",
                "task kind",
                "input",
                "serial (s)",
                "workers 2 (s)",
                "speedup",
                "pairs",
                "tasks",
                "enclosing call (s)",
            ],
            rows,
            title=(
                "Pool speedup per call site, medians of alternating runs "
                f"({cpus} CPU(s), kernel {kernels.backend_name()}; "
                "identical output asserted)"
            ),
        ),
        request,
        filename="parallel_scaling",
    )
    emit_json(
        "parallel_scaling",
        {
            "cpus": cpus,
            "kernel_backend": kernels.backend_name(),
            "serial_threshold": pool_module.SERIAL_THRESHOLD,
            "sites": _RECORD,
        },
    )
