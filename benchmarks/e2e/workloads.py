"""Workload definitions and input generation for the end-to-end benchmark.

Every input is made here, before any timing, and handed to the program
only as files and HTTP bodies.  ``run.py`` generates in a child process
(``python workloads.py WORKLOAD SEED SCALE DIR``): a process's peak RSS
as ``wait4`` reports it includes the pre-``exec`` image it was forked
from, so the measuring process must stay small.

The data sets and the served change stream are fixed; the run's
``--seed`` draws the *row order* of the tall and served inputs (and
with it the row ids the stream's deletes name).  That split is
deliberate:

* every output the benchmark checks (DDL, migration plans) is a
  function of the data as a *set*, so one golden digest holds for every
  seed and any seed is still checked byte for byte;
* the cost of the tall and served workloads depends on sizes, domains
  and dependencies, not on one draw, so runs with different seeds
  measure the same work.

``figure4_wide`` keeps the committed row order for every seed: on that
213-row relation HyFD's sampling cost depends on row order (measured
8.6-12.3 s per job over ten shuffles), which would swamp any bound.
"""

from __future__ import annotations

import csv
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

#: the seed the fixed data sets and the change stream are drawn from
#: (``denormalized_musicbrainz(seed=7)`` is the paper's Figure-4 fixture)
DATA_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    #: "cli" (``python -m repro <csv> --ddl``) or "serve" (the daemon)
    surface: str
    workers: int


#: why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("figure4_wide", "cli", 1),
        Workload("tall_narrow", "cli", 1),
        Workload("tall_narrow_w2", "cli", 2),
        Workload("served_stream", "serve", 1),
    )
}

#: input sizes per scale; "smoke" keeps the whole smoke test fast
SCALES = {
    "full": {
        "figure4_columns": 32,
        "tall_rows": 100_000,
        "served_rows": 2_000,
        "stream_rounds": 400,
    },
    "smoke": {
        "figure4_columns": 12,
        "tall_rows": 4_000,
        "served_rows": 300,
        "stream_rounds": 40,
    },
}


@dataclass
class Inputs:
    """Everything one run hands to the program."""

    csv_path: Path
    #: served_stream only: one JSON body per round, in order
    batches: list[dict]

    @classmethod
    def load(cls, work: Path) -> "Inputs":
        """The inputs ``make_inputs`` wrote into ``work``."""
        batches = json.loads((work / "batches.json").read_text(encoding="utf-8"))
        return cls(work / "rel.csv", batches)


def _figure4(scale: dict) -> tuple[list[str], list[list]]:
    from repro.datagen.musicbrainz import denormalized_musicbrainz

    instance = denormalized_musicbrainz(seed=DATA_SEED)
    width = scale["figure4_columns"]
    header = list(instance.columns[:width])
    rows = [list(row[:width]) for row in zip(*instance.columns_data)]
    return header, rows


def _planted(num_columns: int, num_rows: int, max_domain: int):
    from repro.verification.planted import plant_instance

    planted = plant_instance(
        DATA_SEED,
        num_columns=num_columns,
        num_rows=num_rows,
        null_rate=0.02,
        max_domain=max_domain,
    )
    instance = planted.instance
    return list(instance.columns), [list(row) for row in zip(*instance.columns_data)]


def _stream(
    base_rows: int, pool: list[list], rounds: int
) -> list[tuple[list[list], list[int]]]:
    """The logical change stream: per round, rows to insert and the
    *logical* rows to delete (base rows are ``0..base_rows-1``, inserted
    rows continue the count in insertion order)."""
    rng = random.Random(DATA_SEED)
    live = list(range(base_rows))
    next_logical = base_rows
    pool_iter = iter(pool)
    stream = []
    for _ in range(rounds):
        deletes = [
            live.pop(rng.randrange(len(live)))
            for _ in range(rng.randint(1, 3))
        ]
        inserts = [next(pool_iter) for _ in range(rng.randint(1, 4))]
        live.extend(range(next_logical, next_logical + len(inserts)))
        next_logical += len(inserts)
        stream.append((inserts, deletes))
    return stream


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            ["" if value is None else value for value in row] for row in rows
        )


def make_inputs(workload: str, seed: int, scale_name: str, work: Path) -> None:
    """Write the inputs of one run into ``work``: ``rel.csv`` and
    ``batches.json``.

    The CSV is always named ``rel.csv``: the relation name (the file
    stem) prefixes every decomposed table name in the DDL.
    """
    scale = SCALES[scale_name]
    csv_path = work / "rel.csv"
    batches: list[dict] = []
    order = random.Random(seed)
    if workload == "figure4_wide":
        _write_csv(csv_path, *_figure4(scale))
    elif workload in ("tall_narrow", "tall_narrow_w2"):
        header, rows = _planted(12, scale["tall_rows"], max_domain=50)
        order.shuffle(rows)
        _write_csv(csv_path, header, rows)
    elif workload == "served_stream":
        batches = _served(scale, order, csv_path)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (work / "batches.json").write_text(json.dumps(batches), encoding="utf-8")


def _served(scale: dict, order: random.Random, csv_path: Path) -> list[dict]:
    """Write the upload CSV; return the stream as JSON batch bodies."""
    base = scale["served_rows"]
    rounds = scale["stream_rounds"]
    # Inserts come from the same planted draw, so they keep the planted
    # FDs and key; --regen-golden checks the schema stays fixed throughout.
    header, rows = _planted(8, base + 4 * rounds, max_domain=20)
    base_rows, pool = rows[:base], rows[base:]
    positions = list(range(base))
    order.shuffle(positions)  # logical base row i sits at positions[i]
    shuffled = [None] * base
    for logical, position in enumerate(positions):
        shuffled[position] = base_rows[logical]
    _write_csv(csv_path, header, shuffled)

    def row_id(logical: int) -> int:
        return positions[logical] if logical < base else logical

    return [
        {
            "inserts": [
                [None if value is None else str(value) for value in row]
                for row in inserts
            ],
            "deletes": sorted(row_id(logical) for logical in deletes),
        }
        for inserts, deletes in _stream(base, pool, rounds)
    ]


def main(argv: list[str]) -> int:
    workload, seed, scale, work = argv
    make_inputs(workload, int(seed), scale, Path(work))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
