"""Live relation state: the delta-maintained encoding and row ids.

A :class:`LiveRelation` owns the mutable state of one original relation
under a stream of change batches:

* the data itself: a dictionary encoding with its decode tables, grown
  append-only via
  :meth:`~repro.structures.encoding.EncodedRelation.extend` and
  compacted on delete (:meth:`LiveRelation.snapshot_instance` hands the
  pipeline a :class:`~repro.model.instance.RelationInstance` of it), and
* the stable row ids that change batches address deletes with.

It keeps no partitions: the cover builds a
:class:`~repro.structures.partitions.PLICache` over :attr:`encoding`
only for a batch whose candidates need validation.

Positions vs. ids: encodings speak row *positions* (0-based, dense);
change batches speak row *ids* (stable).  The ``row_ids`` list maps
position → id and is the single source of truth for the translation.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.runtime.errors import InputError
from repro.structures.encoding import DecodedColumn, EncodedRelation

__all__ = ["LiveRelation"]

Row = tuple[Any, ...]


class LiveRelation:
    """The mutable state of one original relation under change batches."""

    def __init__(
        self, instance: RelationInstance, null_equals_null: bool = True
    ) -> None:
        # A bare relation: no keys/FKs (originals enter the pipeline
        # bare).  The encoding is this object's own, so callers'
        # instances are never mutated.
        self.relation = Relation(instance.name, instance.columns)
        self.encoding = EncodedRelation.encode(
            instance.columns_data, null_equals_null
        )
        num_rows = self.encoding.num_rows
        self.row_ids: list[int] = list(range(num_rows))
        self.next_row_id = num_rows
        self._positions: dict[int, int] = {
            row_id: pos for pos, row_id in enumerate(self.row_ids)
        }

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.relation.name

    @property
    def columns(self) -> tuple[str, ...]:
        return self.relation.columns

    @property
    def arity(self) -> int:
        return self.relation.arity

    @property
    def num_rows(self) -> int:
        return self.encoding.num_rows

    def position_of(self, row_id: int) -> int:
        try:
            return self._positions[row_id]
        except KeyError:
            raise InputError(
                f"relation {self.name!r} has no live row with id {row_id}"
            ) from None

    def snapshot_instance(self) -> RelationInstance:
        """A bare, independent instance of the current data (for pipelines).

        Its codes are the maintained ones renumbered by first occurrence,
        with the ids of deleted values dropped, so it holds what
        encoding the decoded rows from scratch would give.
        """
        encoding = self.encoding
        return RelationInstance(
            Relation(self.name, self.columns),
            [
                DecodedColumn(codes, table)
                for codes, table in zip(encoding.codes, encoding.tables)
            ],
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert_rows(self, rows: Sequence[Row]) -> tuple[int, list[int]]:
        """Append rows; returns ``(first_position, assigned_row_ids)``."""
        arity = self.arity
        for row in rows:
            if len(row) != arity:
                raise InputError(
                    f"insert row width {len(row)} does not match relation "
                    f"{self.name!r} arity {arity}"
                )
        start = self.num_rows
        if not rows:
            return start, []
        self.encoding.extend(list(zip(*rows)))
        assigned: list[int] = []
        for _ in rows:
            row_id = self.next_row_id
            self.next_row_id += 1
            self._positions[row_id] = len(self.row_ids)
            self.row_ids.append(row_id)
            assigned.append(row_id)
        return start, assigned

    def delete_ids(self, row_ids: Sequence[int]) -> list[int]:
        """Remove rows by stable id; returns their (pre-delete) positions."""
        positions = sorted(self.position_of(row_id) for row_id in row_ids)
        if not positions:
            return positions
        doomed = set(positions)
        self.encoding.remove_rows(positions)
        self.row_ids = [
            row_id
            for pos, row_id in enumerate(self.row_ids)
            if pos not in doomed
        ]
        self._positions = {
            row_id: pos for pos, row_id in enumerate(self.row_ids)
        }
        return positions
