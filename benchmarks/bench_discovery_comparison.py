"""Supplementary: FD-discovery algorithm comparison, and HyFD's pair budget.

Not a table of the paper itself, but the paper's choice of HyFD for
step (1) rests on the VLDB'15 experimental comparison ("Functional
dependency discovery: an experimental evaluation of seven algorithms",
the paper's [18]) and on HyFD itself ([19]).  This benchmark backs that
choice within this reproduction: HyFD, TANE and the brute-force oracle
(``BruteForceFD``, agree sets of every row pair) return identical FD
covers on each input (asserted), and their runtimes are compared on the
four profile datasets at a size every algorithm can handle.  HyFD runs
twice: as shipped, and with ``hyfd.ALL_PAIRS_BUDGET`` at 0, so the
table still times HyFD's own sampling and validation on inputs small
enough for its all-pairs path.

DFD, the random-walk discoverer the paper also cites, was deleted after
it lost to HyFD on every end-to-end input in time and peak memory.

Expected shape: TANE and HyFD lead on these small, FD-dense inputs;
the brute force pays for every row pair, which these row counts still
afford.

Run as a script, the file sweeps synthetic relations over rows,
columns and value domains, and times HyFD's all-pairs path against its
sampling and validation on each (one child process per shape, the two
paths alternating in it), with each path's traced heap peak::

    PYTHONPATH=src python benchmarks/bench_discovery_comparison.py

The results go to ``benchmarks/results/BENCH_hyfd_all_pairs.json``
(docs/ALGORITHMS.md, "HyFD on small relations", reads them);
``test_all_pairs_budget_smoke`` checks the budget's edge on two tiny
shapes (``make bench-discovery-smoke``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from _util import emit
from repro.datagen.profiles import (
    amalgam_like,
    flight_like,
    horse_like,
    plista_like,
)
from repro.discovery.bruteforce import BruteForceFD
from repro.discovery.hyfd import HyFD
from repro.discovery.hyfd import hyfd as hyfd_module
from repro.discovery.tane import Tane
from repro.evaluation.reporting import format_table

HERE = Path(__file__).resolve().parent
SWEEP_RESULT = HERE / "results" / "BENCH_hyfd_all_pairs.json"

DATASETS = {
    "horse-150": lambda: horse_like(num_rows=150),
    "plista-300": lambda: plista_like(num_rows=300),
    "amalgam1": lambda: amalgam_like(),
    "flight-300": lambda: flight_like(num_rows=300),
}
#: "hyfd (budget 0)" is HyFD with ``ALL_PAIRS_BUDGET`` at 0
ALGORITHMS = {
    "hyfd": HyFD,
    "hyfd (budget 0)": HyFD,
    "tane": Tane,
    "bruteforce": BruteForceFD,
}

_ROWS: dict[str, dict[str, float]] = {}
_COVERS: dict[str, dict[int, int]] = {}
#: HyFD's cover per dataset in FDSet iteration order, which both of its
#: paths must reproduce
_HYFD_ORDER: dict[str, list[tuple[int, int]]] = {}


@pytest.fixture(scope="module")
def instances():
    return {name: build() for name, build in DATASETS.items()}


@pytest.fixture(scope="module", autouse=True)
def _comparison_report(request):
    yield
    if not _ROWS:
        return
    headers = ["Dataset", "#FDs", *(f"{name} (s)" for name in ALGORITHMS)]
    rows = []
    for name in DATASETS:
        data = _ROWS.get(name, {})
        if set(ALGORITHMS) <= data.keys():
            rows.append(
                [
                    name,
                    sum(rhs.bit_count() for rhs in _COVERS[name].values()),
                    *(f"{data[algo]:.2f}" for algo in ALGORITHMS),
                ]
            )
    emit(
        format_table(
            headers,
            rows,
            title="FD discovery algorithm comparison (identical covers asserted)",
        ),
        request,
        filename="discovery_comparison",
    )


@pytest.mark.parametrize("algo_name", list(ALGORITHMS))
@pytest.mark.parametrize("dataset", list(DATASETS))
def test_discovery(benchmark, dataset, algo_name, instances, monkeypatch):
    if algo_name == "hyfd (budget 0)":
        monkeypatch.setattr(hyfd_module, "ALL_PAIRS_BUDGET", 0)
    instance = instances[dataset]
    algorithm = ALGORITHMS[algo_name]()
    fds = benchmark.pedantic(
        algorithm.discover, args=(instance,), rounds=1, iterations=1
    )
    _ROWS.setdefault(dataset, {})[algo_name] = benchmark.stats.stats.mean
    if algo_name.startswith("hyfd"):
        ordered = list(fds.items())
        assert _HYFD_ORDER.setdefault(dataset, ordered) == ordered
    cover = dict(fds.items())
    assert _COVERS.setdefault(dataset, cover) == cover, (
        f"{algo_name} disagrees with the first discoverer on {dataset}"
    )


# ----------------------------------------------------------------------
# The all-pairs sweep
# ----------------------------------------------------------------------
#: swept shapes: every generator x columns x domain x rows
SWEEP_GENERATORS = ("random", "planted")
SWEEP_COLUMNS = (4, 8, 16, 32)
SWEEP_DOMAINS = (4, 64)
SWEEP_ROWS = (25, 50, 100, 200, 400)
#: a discovery still running after this many seconds is stopped (by a
#: deadline) and recorded as null; once both paths were, larger row
#: counts of that series are skipped
SWEEP_CAP_S = 30.0
#: paths whose first discovery took less than this are timed this many
#: more times, alternating with the other path; the fastest run counts
REPEATS = ((0.05, 7), (0.5, 3), (3.0, 1))
#: the paths, as the budget each runs HyFD at
PATHS = {"all_pairs": 10**12, "validation": 0}


def _shape_instance(generator: str, rows: int, columns: int, domain: int):
    if generator == "planted":
        from repro.verification.planted import plant_instance

        return plant_instance(
            7, num_columns=columns, num_rows=rows, max_domain=domain
        ).instance
    from repro.datagen.random_tables import random_instance

    return random_instance(7, columns, rows, domain_size=domain)


def _discover(instance, budget: int, cap_s: float | None = None):
    """``(seconds, FDs)`` of one HyFD run at ``budget``; ``None`` when
    it ran past ``cap_s``."""
    from repro.runtime.errors import BudgetExceeded
    from repro.runtime.governor import Budget, Governor, activate

    hyfd_module.ALL_PAIRS_BUDGET = budget
    governor = Governor(Budget(deadline_seconds=cap_s)) if cap_s else None
    started = time.perf_counter()
    try:
        with activate(governor):
            fds = HyFD().discover(instance)
    except BudgetExceeded:
        return None
    return time.perf_counter() - started, fds


def child(generator: str, rows: int, columns: int, domain: int) -> int:
    """Time both paths on one shape in this process and print a JSON
    record per path: the fastest run's seconds, the traced heap peak of
    one more run under tracemalloc (KB; deterministic where RSS is
    not), the FD count and a digest of the cover.

    Each path's first run is capped at ``SWEEP_CAP_S``; fast paths are
    then timed again, the two paths alternating run by run, so a slow
    spell of the host hits both alike."""
    import tracemalloc

    instance = _shape_instance(generator, rows, columns, domain)
    instance.encoded(True)
    record: dict = {}
    times: dict[str, list[float]] = {}
    for name, budget in PATHS.items():
        first = _discover(instance, budget, SWEEP_CAP_S)
        if first is None:
            record[name] = None
            continue
        seconds, fds = first
        times[name] = [seconds]
        record[name] = {
            "fds": fds.count_single_rhs(),
            "cover": hashlib.sha256(repr(list(fds.items())).encode()).hexdigest()[
                :16
            ],
        }
    repeats = {
        name: next((n for below, n in REPEATS if runs[0] < below), 0)
        for name, runs in times.items()
    }
    for round_ in range(max(repeats.values(), default=0)):
        names = list(times) if round_ % 2 else list(times)[::-1]
        for name in names:
            if round_ < repeats[name]:
                times[name].append(_discover(instance, PATHS[name])[0])
    for name, runs in times.items():
        record[name]["seconds"] = round(min(runs), 5)
        record[name]["runs"] = len(runs)
        traced = None
        if runs[0] < REPEATS[-1][0]:
            tracemalloc.start()
            _discover(instance, PATHS[name])
            traced = round(tracemalloc.get_traced_memory()[1] / 1024, 1)
            tracemalloc.stop()
        record[name]["traced_kb"] = traced
    print(json.dumps(record))
    return 0


def _measure(src: str, generator: str, rows: int, columns: int, domain: int):
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("REPRO_WORKERS", None)
    args = [generator, str(rows), str(columns), str(domain)]
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


def sweep(src: str, shapes=None, progress=print) -> list[dict]:
    """Both paths on every shape, one child process per shape."""
    if shapes is None:
        shapes = [
            (generator, rows, columns, domain)
            for generator in SWEEP_GENERATORS
            for columns in SWEEP_COLUMNS
            for domain in SWEEP_DOMAINS
            for rows in SWEEP_ROWS
        ]
    records = []
    capped: set[tuple] = set()
    for generator, rows, columns, domain in shapes:
        series = (generator, columns, domain)
        record = {
            "generator": generator,
            "rows": rows,
            "columns": columns,
            "domain": domain,
            "row_pairs": rows * (rows - 1) // 2,
        }
        if series in capped:
            record["skipped"] = "both paths over the cap at fewer rows"
            records.append(record)
            continue
        record.update(_measure(src, generator, rows, columns, domain))
        pairs, validation = record["all_pairs"], record["validation"]
        if pairs is None and validation is None:
            capped.add(series)
            record["winner"] = None
        elif pairs is None or validation is None:
            record["winner"] = "validation" if pairs is None else "all_pairs"
        else:
            assert pairs["cover"] == validation["cover"], record
            record["winner"] = (
                "all_pairs"
                if pairs["seconds"] < validation["seconds"]
                else "validation"
            )
        progress(json.dumps(record))
        records.append(record)
    return records


def test_all_pairs_budget_smoke(monkeypatch):
    """Two tiny relations, one row either side of the shipped budget:
    the all-pairs path runs for the one below it only, and both covers
    equal the ones HyFD finds with the budget at 0."""
    from repro.datagen.random_tables import random_instance
    from repro.discovery.hyfd.sampler import Sampler

    columns = 3
    edge = hyfd_module.ALL_PAIRS_BUDGET * columns
    built = []
    original = Sampler.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Sampler, "__init__", init)
    for rows, all_pairs in ((edge - 1, True), (edge, False)):
        instance = random_instance(rows, columns, rows, domain_size=3)
        built.clear()
        shipped = list(HyFD().discover(instance).items())
        assert (not built) == all_pairs, rows
        with monkeypatch.context() as patch:
            patch.setattr(hyfd_module, "ALL_PAIRS_BUDGET", 0)
            assert list(HyFD().discover(instance).items()) == shipped


#: candidate budget units, each a function of (rows, columns)
UNITS = {
    "row_pairs": lambda rows, columns: rows * (rows - 1) // 2,
    "row_pairs_x_columns": lambda rows, columns: rows * (rows - 1) // 2 * columns,
    "rows_per_column": lambda rows, columns: rows / columns,
}
#: the paper's Figure-4 relation, where the budget has to pay off
FIGURE4_SHAPE = (213, 32)


def _peaks_higher(record: dict) -> bool:
    pairs, validation = record.get("all_pairs"), record.get("validation")
    return bool(
        pairs
        and validation
        and pairs["traced_kb"] is not None
        and validation["traced_kb"] is not None
        and pairs["traced_kb"] > validation["traced_kb"]
    )


def analyse(records: list[dict]) -> dict:
    """Per unit: the smallest swept value at which the all-pairs path
    lost (slower, or over the cap where validation was not), the
    largest swept value below it, the smallest value at which its
    traced peak was higher, and the Figure-4 relation's value."""
    decided = [record for record in records if record.get("winner")]
    result = {}
    for unit, value_of in UNITS.items():

        def smallest(records):
            values = [value_of(r["rows"], r["columns"]) for r in records]
            return min(values, default=None)

        first_loss = smallest(r for r in decided if r["winner"] == "validation")
        below = [
            value_of(r["rows"], r["columns"])
            for r in decided
            if first_loss is None or value_of(r["rows"], r["columns"]) < first_loss
        ]
        result[unit] = {
            "first_loss": first_loss,
            "largest_value_below_first_loss": max(below, default=None),
            "first_higher_peak": smallest(r for r in decided if _peaks_higher(r)),
            "figure4": value_of(*FIGURE4_SHAPE),
        }
    return result


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--child":
        generator, rows, columns, domain = argv[1:5]
        return child(generator, int(rows), int(columns), int(domain))
    parser = argparse.ArgumentParser(description="HyFD all-pairs budget sweep")
    parser.add_argument(
        "--src", default=str(HERE.parent / "src"), help="the src directory to run"
    )
    parser.add_argument("--out", default=str(SWEEP_RESULT), help="the JSON to write")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    records = sweep(str(Path(args.src).resolve()))
    decided = [r for r in records if r.get("all_pairs") and r.get("validation")]
    document = {
        "bench": "hyfd_all_pairs",
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "method": (
            "one child process per shape times both paths; each path's "
            f"first run is stopped at {SWEEP_CAP_S} s (recorded as null); "
            "a path whose first run took under (seconds, more runs) "
            f"{list(REPEATS)} runs that many more times, alternating with "
            "the other path, and its fastest run counts; a path under "
            f"{REPEATS[-1][0]} s runs once more under tracemalloc "
            "(traced_kb)"
        ),
        "units": analyse(records),
        "median_speedup_all_pairs": round(
            statistics.median(
                r["validation"]["seconds"] / r["all_pairs"]["seconds"]
                for r in decided
            ),
            2,
        )
        if decided
        else None,
        "sweep_seconds": round(time.perf_counter() - started, 1),
        "shapes": records,
    }
    rows = ",\n  ".join(json.dumps(record) for record in records)
    fields = [
        f"{json.dumps(key)}: {json.dumps(value)}"
        for key, value in document.items()
        if key != "shapes"
    ]
    fields.append(f'"shapes": [\n  {rows}\n ]')
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("{\n " + ",\n ".join(fields) + "\n}\n", encoding="utf-8")
    print(json.dumps(document["units"], indent=1))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main(sys.argv[1:]))
