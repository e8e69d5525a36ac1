"""Live relation state: delta-maintained encoding, PLIs, and row ids.

A :class:`LiveRelation` owns the mutable state of one original relation
under a stream of change batches:

* the data itself: a dictionary encoding with its decode tables, grown
  append-only via
  :meth:`~repro.structures.encoding.EncodedRelation.extend` and
  compacted on delete (:meth:`LiveRelation.snapshot_instance` hands the
  pipeline a :class:`~repro.model.instance.RelationInstance` of it),
* one :class:`MutableColumnPartition` per attribute — the cluster map
  behind the single-attribute stripped partitions, updated in O(Δ) on
  append and rebuilt lazily after a delete (a delete shifts every
  later row position, so an O(n) pass is unavoidable *somewhere*; it
  happens at most once per batch, on materialization),
* the stable row ids that change batches address deletes with, and
* a :class:`~repro.structures.partitions.PLICache` refreshed per batch
  from the maintained encoding and singles, for cover validation.

Positions vs. ids: partitions and encodings speak row *positions*
(0-based, dense); change batches speak row *ids* (stable).  The
``row_ids`` list maps position → id and is the single source of truth
for the translation.
"""

from __future__ import annotations

from array import array
from typing import Any, Sequence

from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.runtime.errors import InputError
from repro.structures.encoding import DecodedColumn, EncodedRelation
from repro.structures.partitions import PLICache, StrippedPartition

__all__ = ["LiveRelation", "MutableColumnPartition"]

Row = tuple[Any, ...]


class MutableColumnPartition:
    """Value-id → row-position clusters of one column, delta-updatable.

    Appends extend the affected clusters in O(Δ); deletes flag the map
    for a lazy O(n) rebuild (positions shift).  :meth:`to_stripped`
    materializes the CSR :class:`StrippedPartition` with the same
    cluster order as
    :meth:`StrippedPartition.from_value_ids` — first-occurrence order,
    NULL cluster last — so partitions built either way are identical.
    """

    __slots__ = ("groups", "_dirty")

    def __init__(self) -> None:
        self.groups: dict[int, list[int]] = {}
        self._dirty = True

    def append_codes(self, codes: Sequence[int], start: int) -> None:
        """Account for rows ``start..len(codes)-1`` appended to the column."""
        if self._dirty:
            return  # a rebuild will see the new rows anyway
        groups = self.groups
        for position in range(start, len(codes)):
            code = codes[position]
            group = groups.get(code)
            if group is None:
                groups[code] = [position]
            else:
                group.append(position)

    def mark_dirty(self) -> None:
        """Invalidate after a delete (every later position shifted)."""
        self._dirty = True

    def rebuild(self, codes: Sequence[int]) -> None:
        groups: dict[int, list[int]] = {}
        for position, code in enumerate(codes):
            group = groups.get(code)
            if group is None:
                groups[code] = [position]
            else:
                group.append(position)
        self.groups = groups
        self._dirty = False

    def to_stripped(
        self, codes: Sequence[int], null_code: int | None
    ) -> StrippedPartition:
        """Materialize the CSR stripped partition (rebuilding if dirty)."""
        if self._dirty:
            self.rebuild(codes)
        groups = self.groups
        null_group = groups.get(null_code) if null_code is not None else None
        row_data = array("i")
        offsets = array("i", [0])
        for code, cluster in groups.items():
            if len(cluster) > 1 and cluster is not null_group:
                row_data.extend(cluster)
                offsets.append(len(row_data))
        if null_group is not None and len(null_group) > 1:
            row_data.extend(null_group)
            offsets.append(len(row_data))
        return StrippedPartition._from_csr(row_data, offsets, len(codes))


class LiveRelation:
    """The mutable state of one original relation under change batches."""

    def __init__(
        self, instance: RelationInstance, null_equals_null: bool = True
    ) -> None:
        # A bare relation: no keys/FKs (originals enter the pipeline
        # bare).  The encoding is this object's own, so callers'
        # instances are never mutated.
        self.relation = Relation(instance.name, instance.columns)
        self.null_equals_null = null_equals_null
        self.encoding = EncodedRelation.encode(
            instance.columns_data, null_equals_null
        )
        num_rows = self.encoding.num_rows
        self.row_ids: list[int] = list(range(num_rows))
        self.next_row_id = num_rows
        self._positions: dict[int, int] = {
            row_id: pos for pos, row_id in enumerate(self.row_ids)
        }
        self.partitions = [
            MutableColumnPartition() for _ in range(self.arity)
        ]
        self._cache: PLICache | None = None
        self._cache_stale = False

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
        for attr, partition in enumerate(self.partitions):
            partition.append_codes(self.encoding.codes[attr], start)
        assigned: list[int] = []
        for _ in rows:
            row_id = self.next_row_id
            self.next_row_id += 1
            self._positions[row_id] = len(self.row_ids)
            self.row_ids.append(row_id)
            assigned.append(row_id)
        self._cache_stale = True
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
        for partition in self.partitions:
            partition.mark_dirty()
        self._cache_stale = True
        return positions

    # ------------------------------------------------------------------
    # Partitions / PLI cache
    # ------------------------------------------------------------------
    def single_partitions(self) -> list[StrippedPartition]:
        """Materialize every single-attribute stripped partition."""
        return [
            partition.to_stripped(
                self.encoding.codes[attr], self.encoding.null_codes[attr]
            )
            for attr, partition in enumerate(self.partitions)
        ]

    def pli_cache(self) -> PLICache:
        """The relation's PLI cache, refreshed to the current data."""
        if self._cache is None:
            self._cache = PLICache(
                None,
                self.null_equals_null,
                encoding=self.encoding,
                singles=self.single_partitions(),
            )
            self._cache_stale = False
        elif self._cache_stale:
            self._cache.refresh(self.encoding, self.single_partitions())
            self._cache_stale = False
        return self._cache
