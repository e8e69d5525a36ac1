"""Micro-benchmarks for the FD-tree (induction hot path).

The level-indexed tree is pure Python under every kernel backend, so
each workload runs once:

* **generalization batch (wide lattice)** — a 36-attribute lattice
  holding ~4.1k stored LHSs on levels 2 and 4, probed with 200
  popcount-30 generalization queries whose RHS attributes exist in the
  tree (so RHS-union bookkeeping cannot prune the walk) but that all
  miss (every stored LHS contains an attribute the queries exclude),
  forcing full sweeps with no early exit;
* **collect_violated sweep** — 100 wide agree sets against the same
  lattice (HyFD induction's per-pair violation scan);
* **any_violated screen** — 2 000 agree sets through the batched
  screening entry point (the ``apply_agree_sets`` pre-filter);
* **induction end-to-end** — ``build_positive_cover`` over 8 000
  sampled agree sets of a 12-attribute planted instance.

The table is persisted to ``benchmarks/results/fdtree.txt`` and
machine-readable timings to ``benchmarks/results/BENCH_fdtree.json``.
"""

from __future__ import annotations

import random

import pytest

from _util import emit, emit_json
from repro.evaluation.reporting import format_table
from repro.structures.fdtree import FDTree

#: operation → seconds (best of the measured rounds)
_ROWS: dict[str, float] = {}

WIDTH = 36
EXCLUDED = WIDTH - 1  # every stored LHS contains it; no query does

DATASET_SIZES = {
    "generalization batch (wide lattice)": {
        "attributes": WIDTH,
        "stored_lhss": 30 + 4060,
        "queries": 200,
        "query_popcount": 30,
    },
    "collect_violated sweep (wide lattice)": {
        "attributes": WIDTH,
        "stored_lhss": 30 + 4060,
        "agree_sets": 100,
    },
    "any_violated screen (wide lattice)": {
        "attributes": WIDTH,
        "stored_lhss": 30 + 4060,
        "agree_sets": 2_000,
    },
    "induction end-to-end (12 attrs)": {
        "attributes": 12,
        "agree_sets": 8_000,
    },
}


@pytest.fixture(scope="module", autouse=True)
def _report(request):
    yield
    if not _ROWS:
        return
    emit(
        format_table(
            ["operation", "time (ms)"],
            [
                [operation, f"{seconds * 1e3:.2f}"]
                for operation, seconds in _ROWS.items()
            ],
            title="FD-tree micro-benchmarks",
        ),
        request,
        filename="fdtree",
    )
    emit_json(
        "fdtree",
        {"dataset_sizes": DATASET_SIZES, "timings_seconds": dict(_ROWS)},
    )


def _populate_wide_lattice(tree: FDTree) -> None:
    """30 pairs + 4 060 quads, every LHS containing ``EXCLUDED``."""
    excluded_bit = 1 << EXCLUDED
    for a in range(30):
        tree.add((1 << a) | excluded_bit, 1 << (a % 8))
    for a in range(30):
        for b in range(a + 1, 30):
            for c in range(b + 1, 30):
                lhs = (1 << a) | (1 << b) | (1 << c) | excluded_bit
                tree.add(lhs, 1 << ((a + b + c) % 12))


def _wide_queries(
    count: int, seed: int, include_excluded: bool = False
) -> list[int]:
    """Popcount-30 masks over attributes 0..34 (never ``EXCLUDED``).

    With ``include_excluded`` the masks sample all ``WIDTH`` attributes
    instead, so stored LHSs (which all contain ``EXCLUDED``) can be
    subsets — the violation workloads need real hits.
    """
    rng = random.Random(seed)
    population = list(range(WIDTH if include_excluded else WIDTH - 1))
    out = []
    for _ in range(count):
        chosen = rng.sample(population, 30)
        mask = 0
        for attr in chosen:
            mask |= 1 << attr
        out.append(mask)
    return out


def test_generalization_batch_wide(benchmark):
    tree = FDTree(WIDTH)
    _populate_wide_lattice(tree)
    # RHS attributes drawn from the stored RHS range (0..11), so the
    # rhs-union bookkeeping cannot prune the walk outright; every query
    # still misses because stored LHSs all contain ``EXCLUDED``.
    rng = random.Random(19)
    pairs = [
        (mask, rng.randrange(12)) for mask in _wide_queries(200, 17)
    ]

    hits = benchmark.pedantic(
        tree.contains_generalization_batch, args=(pairs,),
        rounds=5, iterations=1,
    )
    assert hits == [False] * len(pairs)  # full sweeps: nothing matches
    _ROWS["generalization batch (wide lattice)"] = benchmark.stats.stats.min


def test_collect_violated_sweep_wide(benchmark):
    tree = FDTree(WIDTH)
    _populate_wide_lattice(tree)
    agree_sets = _wide_queries(100, 23, include_excluded=True)

    violated = benchmark.pedantic(
        tree.collect_violated_batch, args=(agree_sets,),
        rounds=5, iterations=1,
    )
    assert sum(len(v) for v in violated) > 0
    _ROWS["collect_violated sweep (wide lattice)"] = benchmark.stats.stats.min


def test_any_violated_screen_wide(benchmark):
    tree = FDTree(WIDTH)
    _populate_wide_lattice(tree)
    agree_sets = _wide_queries(2_000, 29, include_excluded=True)

    flags = benchmark.pedantic(
        tree.any_violated_batch, args=(agree_sets,),
        rounds=3, iterations=1,
    )
    assert any(flags)
    _ROWS["any_violated screen (wide lattice)"] = benchmark.stats.stats.min


@pytest.fixture(scope="module")
def induction_agree_sets():
    from repro.verification.planted import plant_instance

    instance = plant_instance(
        91, num_columns=12, num_rows=600, null_rate=0.1
    ).instance
    encoding = instance.encoded(True)
    rng = random.Random(13)
    n = encoding.num_rows
    lefts = [rng.randrange(n) for _ in range(8_000)]
    rights = [rng.randrange(n) for _ in range(8_000)]
    masks = encoding.agree_sets_batch(lefts, rights)
    full = (1 << 12) - 1
    return [mask for left, right, mask in zip(lefts, rights, masks)
            if left != right and mask != full]


def test_induction_end_to_end(benchmark, induction_agree_sets):
    from repro.discovery.hyfd.induction import build_positive_cover

    benchmark.pedantic(
        build_positive_cover, args=(12, induction_agree_sets),
        rounds=3, iterations=1,
    )
    _ROWS["induction end-to-end (12 attrs)"] = benchmark.stats.stats.min
