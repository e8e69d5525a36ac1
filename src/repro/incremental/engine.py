"""The incremental normalization engine.

:class:`IncrementalNormalizer` keeps a set of original (denormalized)
relations, their normalized schema, and the maintained FD/key covers
consistent under a stream of :class:`~repro.incremental.changes.ChangeBatch`
edits.  Per batch:

1. **report** — the incoming rows are routed through the
   :class:`~repro.incremental.monitor.ConstraintMonitor` of the
   *current* result, so the caller learns which discovered constraints
   the batch breaks before the schema evolves to accommodate it;
2. **maintain** — the live data structures (raw columns, dictionary
   encoding, single-attribute PLIs, stable row ids) absorb the batch in
   O(Δ) where possible, and the minimal FD / UCC covers are maintained
   via :class:`~repro.incremental.cover.IncrementalCover`;
3. **refresh** — the normalization pipeline (closure → keys →
   violating FDs → decomposition → primary keys) re-runs with the
   maintained covers served through
   :class:`~repro.discovery.precomputed.PrecomputedFDs`, skipping FD
   discovery entirely — the step the paper's evaluation shows dominates
   the runtime.  A closure cache keyed by cover fingerprint skips
   closure/key recomputation for relations whose cover did not change.
4. **plan** — the schema diff against the pre-batch schema becomes an
   ordered :class:`~repro.incremental.migration.MigrationPlan`.

The engine's correctness bar (checked by ``repro verify
--incremental``): after every batch, the maintained cover, key set and
DDL are byte-identical to a from-scratch :func:`repro.normalize` of the
updated data.  Everything is threaded through the runtime governor —
pass a :class:`~repro.runtime.governor.Budget` and both the maintenance
loops and the refresh pipeline become cooperatively cancellable
(budgets apply per batch) — and through the incremental journal
(:mod:`repro.incremental.journal`), so a killed run resumes at the
last completed batch.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.normalize import Normalizer
from repro.core.result import NormalizationResult
from repro.core.selection import AutoDecider
from repro.discovery.hyucc import HyUCC
from repro.discovery.precomputed import PrecomputedFDs
from repro.incremental.changes import ChangeBatch
from repro.incremental.cover import CoverDelta, IncrementalCover
from repro.incremental.migration import MigrationPlan
from repro.incremental.monitor import ConstraintMonitor, ConstraintViolation
from repro.incremental.structures import LiveRelation
from repro.io.ddl import schema_to_ddl
from repro.model.fd import FD, FDSet
from repro.model.instance import RelationInstance
from repro.model.schema import Schema
from repro.runtime.errors import InputError
from repro.runtime.governor import Budget, Governor, activate

__all__ = ["BatchOutcome", "IncrementalNormalizer"]


@dataclass(slots=True)
class BatchOutcome:
    """Everything one ``apply_batch`` call did, for reports and tests."""

    relation: str
    batch_index: int
    columns: tuple[str, ...]
    inserts_applied: int = 0
    deletes_applied: int = 0
    violations: list[ConstraintViolation] = field(default_factory=list)
    delta: CoverDelta = field(default_factory=CoverDelta)
    schema_changed: bool = False
    migration: MigrationPlan = field(default_factory=MigrationPlan)
    fidelity: str = "exact"
    maintenance_seconds: float = 0.0
    refresh_seconds: float = 0.0

    def to_str(self) -> str:
        """Render the per-relation violation and fidelity summary."""
        lines = [
            f"batch {self.batch_index} -> relation {self.relation!r}: "
            f"+{self.inserts_applied} rows, -{self.deletes_applied} rows"
        ]
        if self.violations:
            lines.append(
                f"  {len(self.violations)} constraint violation(s) against "
                "the previous schema:"
            )
            for violation in self.violations:
                lines.append(f"    {violation.to_str()}")
        else:
            lines.append("  no constraint violations against the previous schema")
        removed = sum(rhs.bit_count() for _, rhs in self.delta.fds_removed)
        added = sum(rhs.bit_count() for _, rhs in self.delta.fds_added)
        lines.append(
            f"  FD cover: -{removed} / +{added}; keys: "
            f"-{len(self.delta.uccs_removed)} / +{len(self.delta.uccs_added)} "
            f"({self.delta.pairs_examined} pair(s) examined, "
            f"{self.delta.validations} validation(s), "
            f"{self.delta.repairs} repair(s))"
        )
        for lhs, rhs in self.delta.fds_removed:
            lines.append(f"    - {FD(lhs, rhs & ~lhs).to_str(self.columns)}")
        for lhs, rhs in self.delta.fds_added:
            lines.append(f"    + {FD(lhs, rhs & ~lhs).to_str(self.columns)}")
        if self.schema_changed:
            lines.append(f"  schema changed: {self.migration.summary()}")
        else:
            lines.append("  schema unchanged")
        lines.append(f"  fidelity: {self.fidelity}")
        lines.append(
            f"  timings: maintenance {self.maintenance_seconds:.3f}s, "
            f"refresh {self.refresh_seconds:.3f}s"
        )
        return "\n".join(lines)


class IncrementalNormalizer:
    """Maintains a normalized schema under batched inserts and deletes."""

    def __init__(
        self,
        data: RelationInstance | Iterable[RelationInstance],
        algorithm: str = "hyfd",
        target: str = "bcnf",
        closure_algorithm: str = "optimized",
        null_equals_null: bool = True,
        exact_distinct: bool = False,
        score_features: tuple[str, ...] = (
            "length",
            "value",
            "position",
            "duplication",
        ),
        budget: Budget | None = None,
        journal_path: str | Path | None = None,
        defer_initial_run: bool = False,
    ) -> None:
        inputs = (
            [data] if isinstance(data, RelationInstance) else list(data)
        )
        if not inputs:
            raise InputError("no input relations given")
        names = [instance.name for instance in inputs]
        if len(set(names)) != len(names):
            raise InputError("input relation names must be unique")
        self.algorithm = algorithm
        self.target = target
        self.closure_algorithm = closure_algorithm
        self.null_equals_null = null_equals_null
        self.exact_distinct = exact_distinct
        self.score_features = tuple(score_features)
        self.budget = budget
        self.journal_path = journal_path
        self._order = names
        self._live: dict[str, LiveRelation] = {
            instance.name: LiveRelation(instance, null_equals_null)
            for instance in inputs
        }
        self._covers: dict[str, IncrementalCover] = {}
        self._closure_cache: dict = {}
        self.applied_batches = 0
        self.result: NormalizationResult | None = None
        if not defer_initial_run:
            self._initial_run()
            self._write_journal()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _initial_run(self) -> None:
        """Discover covers once, from scratch, and seed the maintenance."""
        normalizer = Normalizer(
            algorithm=self.algorithm,
            decider=AutoDecider(),
            target=self.target,
            closure_algorithm=self.closure_algorithm,
            null_equals_null=self.null_equals_null,
            exact_distinct=self.exact_distinct,
            score_features=self.score_features,
            budget=self.budget,
            degrade=False,
        )
        normalizer.closure_cache = self._closure_cache
        self.result = normalizer.run(
            [self._live[name].snapshot_instance() for name in self._order]
        )
        for name in self._order:
            live = self._live[name]
            self._covers[name] = IncrementalCover(
                live.arity,
                self.result.discovered_fds[name],
                HyUCC(null_equals_null=self.null_equals_null).discover(
                    live.snapshot_instance()
                ),
                self.null_equals_null,
            )

    def config(self) -> dict:
        """The knob set the journal validates resumes against."""
        return {
            "algorithm": self.algorithm,
            "target": self.target,
            "closure_algorithm": self.closure_algorithm,
            "null_equals_null": self.null_equals_null,
            "exact_distinct": self.exact_distinct,
            "score_features": list(self.score_features),
        }

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        assert self.result is not None
        return self.result.schema

    def ddl(self) -> str:
        """The current normalized schema as SQL DDL."""
        assert self.result is not None
        return schema_to_ddl(self.result.schema, self.result.instances)

    def fd_cover(self, name: str) -> FDSet:
        """The maintained minimal FD cover of one original relation."""
        return self._covers[name].fds()

    def key_cover(self, name: str) -> list[int]:
        """The maintained minimal UCCs of one original relation."""
        return self._covers[name].uccs()

    def live(self, name: str) -> LiveRelation:
        return self._live[name]

    def relation_names(self) -> list[str]:
        return list(self._order)

    # ------------------------------------------------------------------
    # The batch loop
    # ------------------------------------------------------------------
    def apply_batch(self, batch: ChangeBatch) -> BatchOutcome:
        """Apply one change batch; returns the outcome (report + plan)."""
        assert self.result is not None
        name = self._resolve_relation(batch)
        live = self._live[name]
        cover = self._covers[name]
        outcome = BatchOutcome(
            relation=name,
            batch_index=self.applied_batches,
            columns=live.columns,
        )

        # 1. Report: which constraints of the *current* schema does the
        # batch break?  (The schema will evolve to absorb them anyway.)
        monitor = ConstraintMonitor(self.result)
        for row in batch.inserts:
            outcome.violations.extend(
                monitor.route_universal_row(name, tuple(row), apply=False)
            )

        # 2. Maintain data structures and covers (governed).
        started = time.perf_counter()
        governor = (
            Governor(self.budget)
            if self.budget is not None and not self.budget.unbounded
            else None
        )
        with activate(governor):
            if batch.deletes:
                positions = sorted(
                    live.position_of(row_id) for row_id in batch.deletes
                )
                delete_delta = cover.apply_delete(live.encoding, positions)
                live.delete_ids(batch.deletes)
                outcome.deletes_applied = len(positions)
                self._merge_delta(outcome.delta, delete_delta)
            if batch.inserts:
                start, _ = live.insert_rows(batch.inserts)
                insert_delta = cover.apply_insert(
                    live.encoding, start, live.pli_cache()
                )
                outcome.inserts_applied = len(batch.inserts)
                self._merge_delta(outcome.delta, insert_delta)
        outcome.maintenance_seconds = time.perf_counter() - started

        # 3. Refresh the normalized schema from the maintained covers.
        old_schema = self.result.schema
        started = time.perf_counter()
        self._refresh()
        outcome.refresh_seconds = time.perf_counter() - started

        # 4. Diff into a migration plan.
        outcome.migration = MigrationPlan.diff(
            old_schema,
            self.result.schema,
            self._origins(),
            self.result.instances,
        )
        outcome.schema_changed = not outcome.migration.is_empty
        if self.result.fidelity is not None and self.result.fidelity.degraded:
            outcome.fidelity = "degraded"

        self.applied_batches += 1
        self._write_journal()
        return outcome

    def _resolve_relation(self, batch: ChangeBatch) -> str:
        if batch.relation is not None:
            if batch.relation not in self._live:
                raise InputError(
                    f"batch targets unknown relation {batch.relation!r}; "
                    f"known: {self._order}"
                )
            return batch.relation
        if len(self._order) == 1:
            return self._order[0]
        raise InputError(
            "batch must name a relation when the engine manages several: "
            f"{self._order}"
        )

    @staticmethod
    def _merge_delta(into: CoverDelta, other: CoverDelta) -> None:
        into.fds_removed.extend(other.fds_removed)
        into.fds_added.extend(other.fds_added)
        into.uccs_removed.extend(other.uccs_removed)
        into.uccs_added.extend(other.uccs_added)
        into.pairs_examined += other.pairs_examined
        into.validations += other.validations
        into.repairs += other.repairs

    def _refresh(self) -> None:
        """Re-run the pipeline tail with the maintained covers plugged in."""
        precomputed = PrecomputedFDs(
            {name: self._covers[name].fds() for name in self._order}
        )
        normalizer = Normalizer(
            algorithm=precomputed,
            decider=AutoDecider(),
            target=self.target,
            closure_algorithm=self.closure_algorithm,
            null_equals_null=self.null_equals_null,
            exact_distinct=self.exact_distinct,
            score_features=self.score_features,
            budget=self.budget,
            degrade=False,
        )
        normalizer.closure_cache = self._closure_cache
        self.result = normalizer.run(
            [self._live[name].snapshot_instance() for name in self._order]
        )

    def _origins(self) -> dict[str, str]:
        """Map each final relation to the original it was decomposed from."""
        assert self.result is not None
        origin = {name: name for name in self.result.originals}
        for step in self.result.steps:
            source = origin.get(step.parent)
            if source is not None:
                origin[step.r1] = source
                origin[step.r2] = source
        return {
            name: origin[name]
            for name in self.result.instances
            if name in origin
        }

    def _write_journal(self) -> None:
        if self.journal_path is None:
            return
        from repro.incremental.journal import save_journal

        save_journal(self, self.journal_path)
