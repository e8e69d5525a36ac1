"""Supplementary: FD-discovery algorithm comparison.

Not a table of the paper itself, but the paper's choice of HyFD for
step (1) rests on the VLDB'15 experimental comparison ("Functional
dependency discovery: an experimental evaluation of seven algorithms",
the paper's [18]) and on HyFD itself ([19]).  This benchmark backs that
choice within this reproduction: HyFD, TANE and the brute-force oracle
(``BruteForceFD``, agree sets of every row pair) return identical FD
covers on each input (asserted), and their runtimes are compared on the
four profile datasets at a size every algorithm can handle.

DFD, the random-walk discoverer the paper also cites, was deleted after
it lost to HyFD on every end-to-end input in time and peak memory.

Expected shape: TANE and HyFD lead on these small, FD-dense inputs;
the brute force pays for every row pair, which these row counts still
afford.
"""

from __future__ import annotations

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
from repro.discovery.tane import Tane
from repro.evaluation.reporting import format_table

DATASETS = {
    "horse-150": lambda: horse_like(num_rows=150),
    "plista-300": lambda: plista_like(num_rows=300),
    "amalgam1": lambda: amalgam_like(),
    "flight-300": lambda: flight_like(num_rows=300),
}
ALGORITHMS = {"hyfd": HyFD, "tane": Tane, "bruteforce": BruteForceFD}

_ROWS: dict[str, dict[str, float]] = {}
_COVERS: dict[str, dict[int, int]] = {}


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
def test_discovery(benchmark, dataset, algo_name, instances):
    instance = instances[dataset]
    algorithm = ALGORITHMS[algo_name]()
    fds = benchmark.pedantic(
        algorithm.discover, args=(instance,), rounds=1, iterations=1
    )
    _ROWS.setdefault(dataset, {})[algo_name] = benchmark.stats.stats.mean
    cover = dict(fds.items())
    assert _COVERS.setdefault(dataset, cover) == cover, (
        f"{algo_name} disagrees with the first discoverer on {dataset}"
    )
