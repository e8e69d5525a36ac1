"""Traced heap per cell of the two row-heavy stages on a tall input.

CSV ingestion and HyFD's sampler once held one Python object per cell:
``read_csv`` kept every cell's ``str``, and the sampler kept its sorted
clusters as lists of Python ints.  At 20,000 x 12 that measured about
29 (ingest) and 41 (sampler) retained bytes per cell under tracemalloc.
Both now keep ``int32`` vectors (about 4-5 bytes per cell), so the
budgets below sit well above today's figures and well below the old
ones.

Normalize itself once copied its input: ``rename`` turned every column
into a list and dropped the encoding, HyFD encoded that copy again, and
each R1 was copied and re-encoded for key discovery.  That measured
8.5-9.6 retained and 34.0-37.8 peak bytes per cell on the 20,000 x 12
input (both kernel backends); sharing columns and codes brought it to
0.3-1.4 and 17.9-24.0.

HyFD's validation once kept every partition it built.  On the first 20
columns of the Figure-4 relation (213 rows) that peaked at 339-349
traced bytes per cell; keeping only the partitions of the last two LHS
sizes brought it to 263-270.

``PLICache`` once also cached every chain product it built on the way
to a requested partition.  DUCC's key search on the 20,000 x 12 input
peaked at 29.9 (python kernels) and 34.9 (numpy) traced bytes per cell
with them, and at 16.7 and 21.8 once only requested partitions were
cached.  A vectorized sampler window once gathered all its pairs at
once and returned one Python int per pair: the warm-up windows on that
input peaked at about 1,690 traced bytes per 1,024 positions.  Windows
walked in chunks of 1,024 positions, with each distinct agree mask
returned once with its count, peak at about 145, whatever the row
count.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import kernels
from repro.core.normalize import Normalizer
from repro.datagen.musicbrainz import denormalized_musicbrainz
from repro.discovery.hyfd import HyFD
from repro.discovery.hyfd import hyfd as hyfd_module
from repro.discovery.hyfd import sampler as sampler_module
from repro.discovery.hyfd.sampler import Sampler
from repro.discovery.ucc import DuccUCC
from repro.io.csv_io import read_csv, write_csv
from repro.structures.partitions import PLICache
from repro.verification.planted import plant_instance

ROWS, COLUMNS = 20_000, 12

#: traced bytes per cell: (retained after the call, peak during it)
SAMPLER_BUDGET = (12.0, 24.0)
READ_CSV_BUDGET = (12.0, 36.0)
NORMALIZE_BUDGET = (4.0, 30.0)
#: traced peak bytes per cell of HyFD on a wide, short input
HYFD_WIDE_PEAK_BUDGET = 300.0
#: traced peak bytes per cell of DUCC's key search, singles included
DUCC_PEAK_BUDGET = 26.0
#: traced peak bytes per chunk position of vectorized sampler windows
#: (the row count does not enter)
SAMPLER_WINDOW_CHUNK = 1024
SAMPLER_WINDOW_PEAK_BUDGET = 200.0


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


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_normalize_shares_the_input_encoding(tall_instance, backend, tmp_path):
    if backend == "numpy" and not kernels.numpy_available():
        pytest.skip("numpy not installed")
    path = tmp_path / "tall.csv"
    write_csv(tall_instance, path)
    instance = read_csv(path)
    # Pinned before tracing, so REPRO_WORKERS cannot change what is
    # measured and the backend's import is not counted.
    normalizer = Normalizer(workers=1)
    kernels.set_backend(backend)
    try:
        kernels.active()
        retained, peak = _traced_per_cell(
            lambda: normalizer.run(instance), ROWS * COLUMNS
        )
    finally:
        kernels.set_backend(None)
    assert retained <= NORMALIZE_BUDGET[0]
    assert peak <= NORMALIZE_BUDGET[1]


def test_hyfd_keeps_only_its_validation_frontier(monkeypatch):
    # 213 rows: every kernel call runs the python loops, so the backend
    # does not matter.  One worker, so REPRO_WORKERS cannot add a pool.
    # The pair budget at 0 sends the relation through validation.
    monkeypatch.setattr(hyfd_module, "ALL_PAIRS_BUDGET", 0)
    instance = denormalized_musicbrainz(seed=7).project((1 << 20) - 1)
    algo = HyFD(workers=1)
    _, peak = _traced_per_cell(
        lambda: algo.discover(instance), instance.num_rows * instance.arity
    )
    assert peak <= HYFD_WIDE_PEAK_BUDGET
    assert algo.last_cache_stats.evictions > 0


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_ducc_caches_only_what_it_asks_for(tall_instance, backend):
    if backend == "numpy" and not kernels.numpy_available():
        pytest.skip("numpy not installed")
    tall_instance.encoded(True)  # shared by every cache; not measured
    algo = DuccUCC()
    kernels.set_backend(backend)
    try:
        kernels.active()
        _, peak = _traced_per_cell(
            lambda: algo.discover(tall_instance), ROWS * COLUMNS
        )
    finally:
        kernels.set_backend(None)
    assert peak <= DUCC_PEAK_BUDGET


def test_sampler_window_peak_is_bounded_by_the_chunk(tall_instance, monkeypatch):
    if not kernels.numpy_available():
        pytest.skip("numpy not installed")
    monkeypatch.setattr(sampler_module, "CHUNK_POSITIONS", SAMPLER_WINDOW_CHUNK)
    kernels.set_backend("numpy")
    try:
        sampler = Sampler(tall_instance, PLICache(tall_instance))
        # Windows over all 20,000 rows: about 20 chunks each.
        _, peak = _traced_per_cell(sampler.initial_rounds, SAMPLER_WINDOW_CHUNK)
    finally:
        kernels.set_backend(None)
    assert sampler.comparisons > 10 * SAMPLER_WINDOW_CHUNK
    assert peak <= SAMPLER_WINDOW_PEAK_BUDGET
