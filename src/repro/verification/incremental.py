"""Differential verification of the incremental normalization engine.

The incremental engine's correctness bar is brutal on purpose: after
*every* applied batch, the maintained FD cover, key set, and emitted
DDL must be **byte-identical** to a from-scratch run of the full
pipeline over the updated instance.  This module turns that bar into a
seeded campaign:

* one seed draws a planted-cover base table
  (:func:`repro.verification.planted.plant_instance`) and a stream of
  change batches in one of five shapes — insert-only, delete-only,
  mixed, NULL-carrying inserts, and *key-flipping* batches that
  duplicate an existing key value with different dependent values
  (the adversarial case: they refute planted FDs and force cover
  repairs);
* an :class:`~repro.incremental.engine.IncrementalNormalizer` consumes
  the stream while a plain row mirror tracks what the data should be;
* after each batch four oracles run — row fidelity (live data vs the
  mirror), FD-cover equality against scratch HyFD (content *and*
  emission order), key-cover equality against scratch
  :class:`~repro.discovery.ucc.NaiveUCC` (the levelwise oracle, not
  DUCC, which seeds the engine's key cover), and DDL equality against
  a scratch :class:`~repro.core.normalize.Normalizer` configured
  exactly like the engine.

Console entry point: ``repro verify --incremental`` (wired in
:mod:`repro.verification.runner`).
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.core.normalize import Normalizer
from repro.core.selection import AutoDecider
from repro.discovery.base import discover_fds
from repro.discovery.ucc import NaiveUCC
from repro.incremental.changes import ChangeBatch
from repro.incremental.engine import IncrementalNormalizer
from repro.io.ddl import schema_to_ddl
from repro.model.attributes import iter_bits
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.verification.planted import plant_instance

__all__ = [
    "IncrementalMismatch",
    "IncrementalReport",
    "STREAM_KINDS",
    "generate_batch_stream",
    "run_incremental_differential",
    "verify_incremental_seeds",
]

#: the batch-stream shapes one seed can draw (see module docstring)
STREAM_KINDS = ("insert-only", "delete-only", "mixed", "nulls", "key-flip")


@dataclass(slots=True)
class IncrementalMismatch:
    """One divergence between the engine and the from-scratch oracle."""

    seed: int
    kind: str
    batch_index: int
    check: str
    detail: str

    def describe(self) -> str:
        return (
            f"seed {self.seed} [{self.kind}] batch {self.batch_index} / "
            f"{self.check}: {self.detail}"
        )


@dataclass(slots=True)
class IncrementalReport:
    """Outcome of an incremental-differential campaign."""

    seeds: list[int] = field(default_factory=list)
    batches_applied: int = 0
    checks_run: int = 0
    mismatches: list[IncrementalMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_str(self) -> str:
        lines = [
            f"incremental-differential: {len(self.seeds)} seeds, "
            f"{self.batches_applied} batches, {self.checks_run} checks: "
            + (
                "all passed"
                if self.ok
                else f"{len(self.mismatches)} MISMATCHES"
            )
        ]
        for mismatch in self.mismatches:
            lines.append("  " + mismatch.describe())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Batch-stream generation
# ----------------------------------------------------------------------
def generate_batch_stream(
    seed: int,
    base: RelationInstance,
    key_mask: int,
    num_batches: int,
    kind: str | None = None,
) -> tuple[str, list[ChangeBatch]]:
    """Draw a seeded stream of batches against ``base``.

    Ids follow the engine's convention: the initial rows get ids
    ``0..n-1`` and each insert takes the next free id, so this
    generator can produce valid delete targets without consulting the
    engine.  Returns the drawn stream kind and the batches.
    """
    rng = random.Random(seed * 0xC2B2AE35 + 11)
    if kind is None:
        kind = rng.choice(STREAM_KINDS)
    elif kind not in STREAM_KINDS:
        raise ValueError(f"unknown stream kind {kind!r}; one of {STREAM_KINDS}")

    arity = base.arity
    key_columns = list(iter_bits(key_mask))
    # Value pools per column: what the base table uses, plus a few fresh
    # values so inserts both collide with and extend the old domains.
    pools: list[list] = []
    for col in range(arity):
        seen = [v for v in base.columns_data[col] if v is not None]
        fresh = [f"n{seed % 97}_{col}_{i}" for i in range(2)]
        pools.append((seen or [0]) + fresh)

    live: dict[int, tuple] = dict(enumerate(base.iter_rows()))
    next_id = base.num_rows

    def draw_row(allow_null: bool) -> tuple:
        values = []
        for col in range(arity):
            if allow_null and rng.random() < 0.2:
                values.append(None)
            else:
                values.append(rng.choice(pools[col]))
        return tuple(values)

    def flip_row() -> tuple:
        """Copy an existing row's key values, randomize the dependents."""
        victim = list(live[rng.choice(list(live))])
        for col in range(arity):
            if col not in key_columns:
                victim[col] = rng.choice(pools[col])
        return tuple(victim)

    batches: list[ChangeBatch] = []
    for _ in range(num_batches):
        inserts: list[tuple] = []
        deletes: list[int] = []
        if kind in ("insert-only", "mixed", "nulls", "key-flip"):
            for _ in range(rng.randint(1, 4)):
                if kind == "key-flip" and live and rng.random() < 0.7:
                    inserts.append(flip_row())
                elif rng.random() < 0.25 and live:
                    # exact duplicate of a live row
                    inserts.append(live[rng.choice(list(live))])
                else:
                    inserts.append(draw_row(allow_null=(kind == "nulls")))
        if kind in ("delete-only", "mixed") or (
            kind in ("nulls", "key-flip") and rng.random() < 0.3
        ):
            removable = max(0, len(live) - 2)  # keep >= 2 rows live
            for row_id in rng.sample(
                list(live), min(removable, rng.randint(1, 3))
            ):
                deletes.append(row_id)

        if not inserts and not deletes:
            inserts.append(draw_row(allow_null=False))
        for row_id in deletes:
            del live[row_id]
        for row in inserts:
            live[next_id] = row
            next_id += 1
        batches.append(
            ChangeBatch(
                inserts=tuple(inserts),
                deletes=tuple(sorted(deletes)),
                relation=base.name,
            )
        )
    return kind, batches


# ----------------------------------------------------------------------
# One seed = one engine run against four oracles
# ----------------------------------------------------------------------
def run_incremental_differential(
    seed: int,
    num_batches: int = 10,
    num_columns: int | None = None,
    num_rows: int | None = None,
    null_equals_null: bool | None = None,
    target: str | None = None,
    kind: str | None = None,
) -> list[IncrementalMismatch]:
    """Drive one seeded batch stream; return every oracle divergence.

    Unset parameters are drawn from the seed, so a bare seed range
    covers both NULL semantics, both normal-form targets, and all
    stream kinds.
    """
    rng = random.Random(seed * 0x85EBCA77 + 3)
    if num_columns is None:
        num_columns = rng.randint(3, 6)
    if num_rows is None:
        num_rows = rng.randint(8, 24)
    if null_equals_null is None:
        null_equals_null = rng.random() < 0.5
    if target is None:
        target = rng.choice(("bcnf", "3nf"))

    planted = plant_instance(
        seed,
        num_columns=num_columns,
        num_rows=num_rows,
        null_rate=rng.choice([0.0, 0.0, 0.15]),
    )
    base = planted.instance
    kind, batches = generate_batch_stream(
        seed, base, planted.key_mask, num_batches, kind=kind
    )

    engine = IncrementalNormalizer(
        base,
        target=target,
        null_equals_null=null_equals_null,
    )
    mismatches: list[IncrementalMismatch] = []

    # The independent row mirror (id -> row), same id discipline as the
    # engine: initial rows are 0..n-1, inserts take the next free id.
    mirror: dict[int, tuple] = dict(enumerate(base.iter_rows()))
    next_id = base.num_rows

    def fail(index: int, check: str, detail: str) -> None:
        mismatches.append(
            IncrementalMismatch(
                seed=seed,
                kind=kind,
                batch_index=index,
                check=check,
                detail=detail,
            )
        )

    for index, batch in enumerate(batches):
        engine.apply_batch(batch)
        for row_id in batch.deletes:
            del mirror[row_id]
        for row in batch.inserts:
            mirror[next_id] = row
            next_id += 1

        live = engine.live(base.name)
        expected_rows = [mirror[row_id] for row_id in sorted(mirror)]

        # Oracle 1: live data matches the mirror, in stable-id order.
        encoding = live.encoding
        actual_rows = [
            tuple(
                encoding.tables[col][encoding.codes[col][pos]]
                for col in range(base.arity)
            )
            for pos in range(live.num_rows)
        ]
        mirror_order = [
            mirror[row_id] for row_id in live.row_ids
        ] if sorted(live.row_ids) == sorted(mirror) else None
        if mirror_order is None:
            fail(
                index,
                "rows",
                f"live ids {sorted(live.row_ids)} != mirror ids "
                f"{sorted(mirror)}",
            )
        elif actual_rows != mirror_order:
            fail(index, "rows", "live rows diverged from the mirror")
        if Counter(actual_rows) != Counter(expected_rows):
            fail(index, "rows", "live multiset diverged from the mirror")

        updated = RelationInstance(
            Relation(base.name, base.relation.columns),
            [
                [row[col] for row in expected_rows]
                for col in range(base.arity)
            ],
        )

        # Oracle 2: FD cover == scratch HyFD, content and order.
        scratch_fds = discover_fds(
            updated, "hyfd", null_equals_null=null_equals_null
        )
        maintained = engine.fd_cover(base.name)
        if list(maintained.items()) != list(scratch_fds.items()):
            fail(
                index,
                "fd-cover",
                f"maintained {sorted(maintained.items())} != scratch "
                f"{sorted(scratch_fds.items())}",
            )

        # Oracle 3: key cover == scratch NaiveUCC.
        scratch_uccs = NaiveUCC(null_equals_null=null_equals_null).discover(
            updated
        )
        if engine.key_cover(base.name) != list(scratch_uccs):
            fail(
                index,
                "key-cover",
                f"maintained {engine.key_cover(base.name)} != scratch "
                f"{list(scratch_uccs)}",
            )

        # Oracle 4: DDL byte-identical to a from-scratch pipeline run.
        scratch = Normalizer(
            algorithm="hyfd",
            decider=AutoDecider(),
            target=target,
            closure_algorithm=engine.closure_algorithm,
            null_equals_null=null_equals_null,
            degrade=False,
        ).run(updated)
        scratch_ddl = schema_to_ddl(scratch.schema, scratch.instances)
        if engine.ddl() != scratch_ddl:
            fail(
                index,
                "ddl",
                "maintained DDL != from-scratch DDL:\n--- maintained\n"
                f"{engine.ddl()}\n--- scratch\n{scratch_ddl}",
            )
    return mismatches


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------
def verify_incremental_seeds(
    seeds: int | Iterable[int],
    num_batches: int = 10,
    progress: Callable[[str], None] | None = None,
) -> IncrementalReport:
    """Run :func:`run_incremental_differential` over a seed range."""
    if isinstance(seeds, int):
        seeds = range(seeds)
    report = IncrementalReport()
    for seed in seeds:
        report.seeds.append(seed)
        if progress is not None:
            progress(f"seed {seed}")
        report.batches_applied += num_batches
        report.checks_run += num_batches * 4
        report.mismatches.extend(
            run_incremental_differential(seed, num_batches=num_batches)
        )
    return report
