"""Traced heap per cell of the two row-heavy stages on a tall input.

CSV ingestion and HyFD's sampler once held one Python object per cell:
``read_csv`` kept every cell's ``str``, and the sampler kept its sorted
clusters as lists of Python ints.  At 20,000 x 12 that measured about
29 (ingest) and 41 (sampler) retained bytes per cell under tracemalloc.
Both now keep ``int32`` vectors (about 4-5 bytes per cell), so the
budgets below sit well above today's figures and well below the old
ones.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import kernels
from repro.discovery.hyfd.sampler import Sampler
from repro.io.csv_io import read_csv, write_csv
from repro.structures.partitions import PLICache
from repro.verification.planted import plant_instance

ROWS, COLUMNS = 20_000, 12

#: traced bytes per cell: (retained after the call, peak during it)
SAMPLER_BUDGET = (12.0, 24.0)
READ_CSV_BUDGET = (12.0, 36.0)


@pytest.fixture(scope="module")
def tall_instance():
    return plant_instance(
        7, num_columns=COLUMNS, num_rows=ROWS, null_rate=0.02, max_domain=50
    ).instance


def _traced_per_cell(build, cells: int) -> tuple[float, float]:
    """(retained, peak) traced bytes per cell of ``build()``."""
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    del built  # kept alive until the retained size was read
    return (current - before) / cells, (peak - before) / cells


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_sampler_clusters_stay_int32(tall_instance, backend):
    if backend == "numpy" and not kernels.numpy_available():
        pytest.skip("numpy not installed")
    kernels.set_backend(backend)
    try:
        cache = PLICache(tall_instance)
        retained, peak = _traced_per_cell(
            lambda: Sampler(tall_instance, cache), ROWS * COLUMNS
        )
    finally:
        kernels.set_backend(None)
    assert retained <= SAMPLER_BUDGET[0]
    assert peak <= SAMPLER_BUDGET[1]


def test_read_csv_keeps_codes_not_cells(tall_instance, tmp_path):
    path = tmp_path / "tall.csv"
    write_csv(tall_instance, path)
    retained, peak = _traced_per_cell(lambda: read_csv(path), ROWS * COLUMNS)
    assert retained <= READ_CSV_BUDGET[0]
    assert peak <= READ_CSV_BUDGET[1]
