"""Result objects of a normalization run: log, timings, reconstruction.

:class:`NormalizationResult` carries everything a caller needs after
:func:`repro.core.normalize.normalize`:

* the final relation instances (with primary/foreign keys assigned),
* the decomposition log — one :class:`DecompositionStep` per split,
  including the ranked alternatives the decider saw,
* per-component timings and FD statistics (the paper's Table 3
  columns),
* :meth:`NormalizationResult.reconstruct` — the lossless-join guarantee
  made executable: natural-joining the parts back along the recorded
  foreign keys reproduces the original relation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.instance import RelationInstance
from repro.model.schema import Schema

__all__ = ["DecompositionStep", "NormalizationResult", "PipelineStats"]


@dataclass(slots=True)
class DecompositionStep:
    """One schema decomposition, as the decider saw it."""

    parent: str
    parent_columns: tuple[str, ...]
    r1: str
    r2: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]
    chosen_rank: int
    num_candidates: int
    score: float

    def to_str(self) -> str:
        lhs = ",".join(self.lhs)
        rhs = ",".join(self.rhs)
        return (
            f"{self.parent}: split on {lhs} -> {rhs} "
            f"(rank {self.chosen_rank + 1}/{self.num_candidates}, "
            f"score {self.score:.3f}) => {self.r1} + {self.r2}"
        )


@dataclass(slots=True)
class PipelineStats:
    """Per-input-relation statistics — the paper's Table 3 columns.

    Normalize fills the counts and seconds as the input's stages run:
    discovery and closure up front, keys and violations at its first
    visit.
    """

    relation: str
    num_attributes: int
    num_records: int
    num_fds: int = 0
    num_fd_keys: int = 0
    avg_rhs_before_closure: float = 0.0
    avg_rhs_after_closure: float = 0.0
    fd_discovery_seconds: float = 0.0
    closure_seconds: float = 0.0
    key_derivation_seconds: float = 0.0
    violation_detection_seconds: float = 0.0


@dataclass(slots=True)
class NormalizationResult:
    """Everything produced by one Normalize run."""

    instances: dict[str, RelationInstance]
    steps: list[DecompositionStep]
    stats: list[PipelineStats]
    timings: dict[str, float] = field(default_factory=dict)
    originals: dict[str, RelationInstance] = field(default_factory=dict)
    stopped_relations: list[str] = field(default_factory=list)
    #: the minimal FDs discovered per *input* relation (before closure);
    #: reusable via PrecomputedFDs / save_fdset
    discovered_fds: dict = field(default_factory=dict)
    #: fidelity report of a resource-governed run (None for ungoverned
    #: runs); see :class:`repro.runtime.degrade.FidelityReport`
    fidelity: object = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The final schema (relations with their key constraints)."""
        return Schema(instance.relation for instance in self.instances.values())

    @property
    def total_values(self) -> int:
        """Total stored cells across the final relations.

        The paper reports normalization shrinking the address example
        from 36 to 27 values; compare with ``original_values``.
        """
        return sum(instance.num_values for instance in self.instances.values())

    @property
    def original_values(self) -> int:
        return sum(instance.num_values for instance in self.originals.values())

    def to_str(self) -> str:
        """Human-readable summary: schema, then the decomposition log."""
        lines = [self.schema.to_str()]
        if self.steps:
            lines.append("")
            lines.append("Decomposition log:")
            lines.extend(f"  {step.to_str()}" for step in self.steps)
        lines.append("")
        lines.append(
            f"values: {self.original_values} -> {self.total_values}"
        )
        if self.fidelity is not None:
            lines.append("")
            lines.append(self.fidelity.to_str())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Lossless-join reconstruction
    # ------------------------------------------------------------------
    def reconstruct(self, original_name: str) -> RelationInstance:
        """Rebuild an input relation by replaying decompositions backwards.

        Each decomposition is undone by joining ``R1`` with ``R2`` on the
        split FD's LHS.  The result has the original's column order, so
        equality with the input can be checked directly.
        """
        if original_name not in self.originals:
            raise ValueError(f"unknown original relation {original_name!r}")
        current = dict(self.instances)
        for step in reversed(self.steps):
            left = current.pop(step.r1)
            right = current.pop(step.r2)
            current[step.parent] = _join(
                left, right, step.lhs, step.parent, step.parent_columns
            )
        return current[original_name]


def _join(
    left: RelationInstance,
    right: RelationInstance,
    on: tuple[str, ...],
    name: str,
    column_order: tuple[str, ...],
) -> RelationInstance:
    """Natural join on ``on`` columns; ``right``'s join key is unique."""
    from repro.model.schema import Relation

    right_key_cols = [right.column(col) for col in on]
    right_rows: dict[tuple, tuple] = {}
    for index, key in enumerate(zip(*right_key_cols)):
        right_rows[key] = right.row(index)

    left_key_cols = [left.column(col) for col in on]
    left_positions = {col: i for i, col in enumerate(left.columns)}
    right_positions = {col: i for i, col in enumerate(right.columns)}

    rows = []
    for index, key in enumerate(zip(*left_key_cols)):
        match = right_rows.get(key)
        if match is None:
            raise ValueError(
                f"dangling foreign key {key!r} while reconstructing {name!r}"
            )
        left_row = left.row(index)
        combined = []
        for col in column_order:
            if col in left_positions:
                combined.append(left_row[left_positions[col]])
            else:
                combined.append(match[right_positions[col]])
        rows.append(tuple(combined))
    return RelationInstance.from_rows(Relation(name, column_order), rows)
