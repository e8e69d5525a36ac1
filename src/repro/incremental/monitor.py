"""Constraint monitoring against a frozen normalization result.

Part of the incremental subsystem, where
:class:`~repro.incremental.engine.IncrementalNormalizer` uses it to
report which discovered constraints an incoming batch breaks *before*
the schema is evolved to accommodate the batch.

Once a dataset is normalized, *new* data must respect the constraints
the decomposition established — primary keys, foreign keys, and the
functional dependencies that were promoted to keys.

:class:`ConstraintMonitor` wraps a finished
:class:`~repro.core.result.NormalizationResult` and offers:

* :meth:`check_insert` — validate rows destined for one normalized
  relation against its primary key and outgoing foreign keys,
* :meth:`route_universal_row` — split a row of the *original*
  (denormalized) relation into the per-relation tuples the normalized
  schema stores, reporting every discovered FD the new row violates
  (i.e. where the data-driven constraint turns out to be semantically
  false for the evolving data),
* :meth:`apply` — ingest previously validated rows.

Result instances may share column storage with the pipeline's inputs
(see :meth:`~repro.core.normalize.Normalizer.run`), so every write goes
through :meth:`~repro.model.instance.RelationInstance.append_rows`,
which copies on first write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.result import NormalizationResult
from repro.model.instance import RelationInstance

__all__ = ["ConstraintMonitor", "ConstraintViolation"]

Row = tuple[Any, ...]


@dataclass(frozen=True, slots=True)
class ConstraintViolation:
    """One broken constraint, with enough context to act on it."""

    relation: str
    kind: str  # "primary-key" | "foreign-key" | "functional-dependency" | "null-key"
    message: str
    row: Row

    def to_str(self) -> str:
        return f"[{self.relation}] {self.kind}: {self.message}"


class ConstraintMonitor:
    """Validates and routes new data against a normalization result."""

    def __init__(self, result: NormalizationResult) -> None:
        self._result = result
        self._instances = result.instances
        # Primary-key value index per relation, kept current on apply().
        self._pk_index: dict[str, set[Row]] = {}
        for name, instance in self._instances.items():
            pk = instance.relation.primary_key
            if pk:
                self._pk_index[name] = set(self._project_rows(instance, pk))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _project_rows(instance: RelationInstance, columns) -> list[Row]:
        data = [instance.column(col) for col in columns]
        return list(zip(*data)) if data else []

    @staticmethod
    def _project_row(instance: RelationInstance, row: Row, columns) -> Row:
        positions = {col: i for i, col in enumerate(instance.columns)}
        return tuple(row[positions[col]] for col in columns)

    # ------------------------------------------------------------------
    # Per-relation validation
    # ------------------------------------------------------------------
    def check_insert(
        self, relation_name: str, rows: list[Row]
    ) -> list[ConstraintViolation]:
        """Validate rows for one normalized relation (no mutation)."""
        if relation_name not in self._instances:
            raise KeyError(f"unknown relation {relation_name!r}")
        instance = self._instances[relation_name]
        relation = instance.relation
        violations: list[ConstraintViolation] = []

        pk = relation.primary_key
        seen_new: set[Row] = set()
        for row in rows:
            if len(row) != instance.arity:
                raise ValueError(
                    f"row width {len(row)} does not match relation "
                    f"{relation_name!r} arity {instance.arity}"
                )
            if pk:
                key = self._project_row(instance, row, pk)
                if any(value is None for value in key):
                    violations.append(
                        ConstraintViolation(
                            relation_name,
                            "null-key",
                            f"NULL in primary key {pk}",
                            row,
                        )
                    )
                elif key in self._pk_index[relation_name] or key in seen_new:
                    violations.append(
                        ConstraintViolation(
                            relation_name,
                            "primary-key",
                            f"duplicate key {key!r} for {pk}",
                            row,
                        )
                    )
                else:
                    seen_new.add(key)
            for fk in relation.foreign_keys:
                target = self._instances.get(fk.ref_relation)
                if target is None:
                    continue
                value = self._project_row(instance, row, fk.columns)
                existing = set(self._project_rows(target, fk.ref_columns))
                if value not in existing:
                    violations.append(
                        ConstraintViolation(
                            relation_name,
                            "foreign-key",
                            f"{fk.to_str()} dangling value {value!r}",
                            row,
                        )
                    )
        return violations

    def apply(self, relation_name: str, rows: list[Row]) -> None:
        """Insert rows previously validated with :meth:`check_insert`."""
        violations = self.check_insert(relation_name, rows)
        if violations:
            raise ValueError(
                "refusing to apply rows with violations: "
                + "; ".join(v.to_str() for v in violations)
            )
        instance = self._instances[relation_name]
        instance.append_rows(rows)
        pk = instance.relation.primary_key
        if pk:
            self._pk_index[relation_name].update(
                self._project_row(instance, row, pk) for row in rows
            )

    # ------------------------------------------------------------------
    # Universal-row routing
    # ------------------------------------------------------------------
    def route_universal_row(
        self, original_name: str, row: Row, apply: bool = False
    ) -> list[ConstraintViolation]:
        """Split a row of the original relation across the normalized schema.

        Every normalized relation receives the row's projection onto its
        columns.  A projection whose primary-key value already exists
        with *different* dependent values means the new row violates a
        discovered FD — the constraint held on the old data only.  With
        ``apply=True`` and no violations, all projections are inserted
        (dimension projections are skipped when identical rows exist).
        """
        original = self._result.originals.get(original_name)
        if original is None:
            raise KeyError(f"unknown original relation {original_name!r}")
        if len(row) != original.arity:
            raise ValueError(
                f"row width {len(row)} does not match original arity "
                f"{original.arity}"
            )
        positions = {col: i for i, col in enumerate(original.columns)}

        violations: list[ConstraintViolation] = []
        pending: list[tuple[str, Row]] = []
        for name in self._descendants_of(original_name):
            instance = self._instances[name]
            projected = tuple(row[positions[col]] for col in instance.columns)
            pk = instance.relation.primary_key
            if pk:
                key = self._project_row(instance, projected, pk)
                match = self._lookup_by_key(instance, pk, key)
                if match is None:
                    pending.append((name, projected))
                elif match != projected:
                    violations.append(
                        ConstraintViolation(
                            name,
                            "functional-dependency",
                            f"key {key!r} maps to {match!r} but the new row "
                            f"implies {projected!r}",
                            projected,
                        )
                    )
                # identical row: nothing to insert
            else:
                pending.append((name, projected))

        if apply and not violations:
            for name, projected in pending:
                instance = self._instances[name]
                instance.append_rows([projected])
                pk = instance.relation.primary_key
                if pk:
                    self._pk_index[name].add(
                        self._project_row(instance, projected, pk)
                    )
        return violations

    def _descendants_of(self, original_name: str) -> list[str]:
        """Final relations produced by decomposing ``original_name``.

        With multiple input relations, a universal row of one original
        must only be routed into that original's fragments.
        """
        alive = {original_name}
        for step in self._result.steps:
            if step.parent in alive:
                alive.discard(step.parent)
                alive.add(step.r1)
                alive.add(step.r2)
        return [name for name in self._instances if name in alive]

    def _lookup_by_key(
        self, instance: RelationInstance, pk, key: Row
    ) -> Row | None:
        if key not in self._pk_index.get(instance.name, set()):
            return None
        key_columns = [instance.column(col) for col in pk]
        for index, existing in enumerate(zip(*key_columns)):
            if existing == key:
                return instance.row(index)
        return None
