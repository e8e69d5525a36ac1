"""Experiment E5 — the paper's Figure 4: normalizing MusicBrainz.

The eleven-table MusicBrainz-like join is *not* snowflake-shaped: two
m:n link tables fan it out, so the paper observes (a) almost all
original relations recovered, (b) ARTIST_CREDIT_NAME as the one
relation that is not reconstructed (absorbed into semantically related
relations), and (c) a fact-table-like top-level relation representing
the many-to-many relationships.

Expected shape here: the same three observations on the scaled
generator.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from _util import emit, emit_json
from repro.core.normalize import Normalizer
from repro.datagen.musicbrainz import MUSICBRAINZ_GOLD
from repro.discovery.hyfd import HyFD
from repro.discovery.precomputed import PrecomputedFDs
from repro.evaluation.metrics import evaluate_schema_recovery
from repro.evaluation.snowflake import schema_tree
from repro.model.instance import RelationInstance

_REPORT: list[str] = []

#: operation → seconds
_TIMINGS: dict[str, float] = {}

#: HyFD's traced heap peak and PLI-cache counters, from an untimed run
_MEMORY: dict[str, int] = {}


@pytest.fixture(scope="module", autouse=True)
def _figure4_report(request, datasets):
    yield
    for text in _REPORT:
        emit(text, request, filename="figure4_musicbrainz_recovery")
    if not _TIMINGS:
        return
    universal = datasets["musicbrainz"]
    emit_json(
        "figure4_musicbrainz",
        {
            "workers": 1,
            "dataset_sizes": {
                "musicbrainz_universal": {
                    "rows": universal.num_rows,
                    "columns": universal.arity,
                }
            },
            "timings_seconds": _TIMINGS,
            "hyfd_memory": _MEMORY,
        },
    )


def test_hyfd_discovery(benchmark, datasets, discovery):
    """End-to-end FD discovery on the denormalized MusicBrainz table —
    the Figure 4 pipeline's dominant cost.

    Every kernel call on these 213 rows is below
    ``kernels.SMALL_INPUT_THRESHOLD``, so one run covers every backend
    pin.  Beyond the timing, the cover must be byte-identical to the
    one the normalize benchmark below is given: a faster-but-different
    cover is a failure.

    A second, untimed run under tracemalloc (which slows it down)
    records HyFD's traced heap peak and its PLI-cache misses and
    evictions.  Both runs discover on a freshly built instance, so
    dictionary-encoding the columns is part of the measured work.
    """
    universal = datasets["musicbrainz"]
    columns = [list(column) for column in universal.columns_data]

    def fresh() -> RelationInstance:
        return RelationInstance(universal.relation, columns)

    cover = benchmark.pedantic(
        lambda: HyFD().discover(fresh()), rounds=1, iterations=1
    )
    _TIMINGS["hyfd_discovery"] = benchmark.stats.stats.min
    assert cover, "MusicBrainz universal relation must yield FDs"
    given = discovery.fds("musicbrainz")
    assert sorted((fd.lhs, fd.rhs) for fd in cover) == sorted(
        (fd.lhs, fd.rhs) for fd in given
    ), "FD cover differs between two HyFD runs"

    algo = HyFD()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traced = algo.discover(fresh())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sorted((fd.lhs, fd.rhs) for fd in traced) == sorted(
        (fd.lhs, fd.rhs) for fd in cover
    )
    _MEMORY["traced_peak_bytes"] = peak
    _MEMORY["pli_misses"] = algo.last_cache_stats.misses
    _MEMORY["pli_evictions"] = algo.last_cache_stats.evictions


def test_normalize_musicbrainz_universal(benchmark, datasets, discovery):
    universal = datasets["musicbrainz"]
    fds = discovery.fds("musicbrainz")
    normalizer = Normalizer(
        algorithm=PrecomputedFDs({universal.name: fds})
    )
    result = benchmark.pedantic(
        normalizer.run, args=(universal,), rounds=1, iterations=1
    )
    _TIMINGS["normalize"] = benchmark.stats.stats.min

    report = evaluate_schema_recovery(result.schema, MUSICBRAINZ_GOLD)
    # the root relation (kept name) is the fact-table-like top relation
    top = result.instances[universal.name]
    lines = [
        "Figure 4 (scaled): BCNF normalization of denormalized MusicBrainz",
        "=" * 64,
        schema_tree(result.schema),
        "",
        report.to_str(),
        "",
        f"values: {result.original_values} -> {result.total_values}",
        f"decompositions: {len(result.steps)}",
        f"top-level (fact-table-like) relation: {top.name} "
        f"({top.arity} attrs, {top.num_rows} rows)",
    ]
    acn_match = report.relation_matches.get("artist_credit_name", ("", 1.0))
    lines.append(
        f"artist_credit_name best match: J={acn_match[1]:.2f} "
        "(the paper reports exactly this relation as not reconstructed)"
    )
    _REPORT.append("\n".join(lines))

    # Shape assertions.
    assert report.pair_recall > 0.75
    assert report.pair_precision > 0.75
    assert len(report.perfectly_recovered) >= 7
    rebuilt = result.reconstruct(universal.name)
    assert sorted(rebuilt.iter_rows()) == sorted(universal.iter_rows())
