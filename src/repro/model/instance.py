"""In-memory columnar relation instances.

A :class:`RelationInstance` couples a :class:`~repro.model.schema.Relation`
with its rows, stored column-major.  Column-major storage is what FD
discovery wants (PLIs are built per column) and what the paper's scoring
features want (max value length, distinct counts per attribute set).

``None`` represents SQL NULL throughout.  For FD discovery we follow the
Metanome convention ``NULL == NULL`` (configurable at the PLI layer);
for normalization, Algorithm 4 refuses to promote a NULL-containing LHS
to a key.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from repro.model.attributes import bits_of, full_mask, iter_bits
from repro.model.schema import Relation
from repro.runtime.governor import in_blocks

__all__ = ["RelationInstance"]

Row = tuple[Any, ...]


class RelationInstance:
    """A relation schema plus its data, stored column-major."""

    __slots__ = (
        "relation",
        "columns_data",
        "_encodings",
        "_data_version",
        "_owns_columns",
    )

    def __init__(self, relation: Relation, columns_data: Sequence[list]) -> None:
        if len(columns_data) != relation.arity:
            raise ValueError(
                f"relation {relation.name!r} has {relation.arity} columns but "
                f"{len(columns_data)} data columns were given"
            )
        lengths = {len(column) for column in columns_data}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self.relation = relation
        self.columns_data: list[list] = [list(column) for column in columns_data]
        self._encodings: dict[bool, Any] = {}
        self._data_version = 0
        self._owns_columns = True

    @classmethod
    def _sharing(
        cls, relation: Relation, columns_data: list, encodings: dict[bool, Any]
    ) -> "RelationInstance":
        """An instance over existing column objects and encodings, uncopied.

        The columns stay shared until :meth:`append_rows` copies them.
        """
        self = cls.__new__(cls)
        self.relation = relation
        self.columns_data = columns_data
        self._encodings = {nen: (0, encoding) for nen, encoding in encodings.items()}
        self._data_version = 0
        self._owns_columns = False
        return self

    # ------------------------------------------------------------------
    # Columnar value encoding (the PLI hot path's substrate)
    # ------------------------------------------------------------------
    def encoded(self, null_equals_null: bool = True):
        """Dictionary-encode all columns once; memoized per NULL semantics.

        Returns the shared :class:`~repro.structures.encoding.EncodedRelation`
        that PLI construction, validation, and sampling all index instead
        of re-deriving value ids from the raw Python objects.  The memo
        is invalidated when rows are appended in place (the row-count
        check, kept for callers that mutate ``columns_data`` directly)
        and when :meth:`invalidate_caches` bumps the data version — the
        incremental engine does the latter after deletes, where the row
        count alone could miss a same-size delete+insert batch.
        """
        from repro.structures.encoding import EncodedRelation

        cached = self._encodings.get(null_equals_null)
        if (
            cached is not None
            and cached[0] == self._data_version
            and cached[1].num_rows == self.num_rows
        ):
            return cached[1]
        encoding = EncodedRelation.encode(self.columns_data, null_equals_null)
        self._encodings[null_equals_null] = (self._data_version, encoding)
        return encoding

    def _shared_encodings(self, indices: Sequence[int]) -> dict[bool, Any]:
        """Column subsets of the memoized encodings that still describe the
        data, over the same code vectors (see ``EncodedRelation.project``)."""
        return {
            nen: encoding.project(indices)
            for nen, (version, encoding) in self._encodings.items()
            if version == self._data_version and encoding.num_rows == self.num_rows
        }

    def invalidate_caches(self) -> None:
        """Drop memoized encodings after an in-place data mutation."""
        self._data_version += 1
        self._encodings.clear()

    def install_encoding(self, null_equals_null: bool, encoding: Any) -> None:
        """Adopt an incrementally-maintained encoding as the current memo.

        The incremental engine maintains an
        :class:`~repro.structures.encoding.EncodedRelation` under
        appends/deletes itself; installing it here lets every
        ``encoded()`` consumer (PLI cache, validation, sampling) reuse
        it instead of re-encoding from the raw values.
        """
        self._encodings[null_equals_null] = (self._data_version, encoding)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, relation: Relation, rows: Iterable[Row]) -> "RelationInstance":
        """Build an instance from row tuples."""
        columns_data: list[list] = [[] for _ in range(relation.arity)]
        for row in rows:
            if len(row) != relation.arity:
                raise ValueError(
                    f"row width {len(row)} does not match arity {relation.arity}"
                )
            for index, value in enumerate(row):
                columns_data[index].append(value)
        return cls(relation, columns_data)

    @classmethod
    def from_encoded(
        cls, relation: Relation, encoding: Any, decode_tables: Sequence[list]
    ) -> "RelationInstance":
        """Build an instance around an existing encoding (what
        :func:`~repro.io.csv_io.read_csv` returns).

        ``columns_data`` becomes lazy
        :class:`~repro.structures.encoding.DecodedColumn` views over the
        encoding's code vectors and the ingester's id → value tables, so
        the raw values are never materialized as per-row Python lists —
        the whole point of the streaming CSV path.  The encoding is
        installed as the memo for its NULL semantics; a request for the
        *other* semantics re-encodes from the lazy columns, which decode
        to the original values and therefore produce the exact ids a
        list-backed instance would.

        Bypasses ``__init__`` deliberately: its ``list(column)`` copy
        would defeat the laziness.  The views are read-only;
        :meth:`append_rows` replaces them with lists on the first write.
        """
        from repro.structures.encoding import DecodedColumn

        if encoding.arity != relation.arity:
            raise ValueError(
                f"relation {relation.name!r} has {relation.arity} columns but "
                f"the encoding has {encoding.arity}"
            )
        columns = [
            DecodedColumn(codes, table)
            for codes, table in zip(encoding.codes, decode_tables)
        ]
        return cls._sharing(
            relation, columns, {encoding.null_equals_null: encoding}
        )

    # ------------------------------------------------------------------
    # Basic accessors
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
        if not self.columns_data:
            return 0
        return len(self.columns_data[0])

    @property
    def num_values(self) -> int:
        """Total number of stored cells (the paper counts dataset size this way)."""
        return self.num_rows * self.arity

    def column(self, name_or_index: str | int) -> list:
        """Return one data column by name or position."""
        if isinstance(name_or_index, str):
            name_or_index = self.relation.column_index(name_or_index)
        return self.columns_data[name_or_index]

    def row(self, index: int) -> Row:
        return tuple(column[index] for column in self.columns_data)

    def iter_rows(self) -> Iterator[Row]:
        return zip(*self.columns_data) if self.columns_data else iter(())

    # ------------------------------------------------------------------
    # Projection and deduplication (the decomposition step needs both)
    # ------------------------------------------------------------------
    def project(
        self, mask: int, name: str | None = None, dedup: bool = False
    ) -> "RelationInstance":
        """Project onto the attributes in ``mask``; optionally deduplicate rows.

        Column order is preserved.  ``dedup=True`` produces the paper's
        ``R2`` side of a decomposition (distinct ``X ∪ Y`` rows).
        Without ``dedup`` the projection has this instance's rows (the
        paper's ``R1``), so it shares the column objects and a column
        subset of each memoized encoding instead of copying them.
        """
        indices = bits_of(mask)
        new_columns = tuple(self.columns[i] for i in indices)
        new_relation = Relation(name or self.name, new_columns)
        source = [self.columns_data[i] for i in indices]
        if not dedup:
            return RelationInstance._sharing(
                new_relation, source, self._shared_encodings(indices)
            )
        seen: set[Row] = set()
        kept: list[Row] = []
        for row in zip(*source) if source else ():
            if row not in seen:
                seen.add(row)
                kept.append(row)
        return RelationInstance.from_rows(new_relation, kept)

    # ------------------------------------------------------------------
    # Statistics used by the scoring features (paper §7)
    # ------------------------------------------------------------------
    def has_null_in(self, mask: int) -> bool:
        """True iff any column in ``mask`` contains a NULL (None) value."""
        for i in iter_bits(mask):
            column = self.columns_data[i]
            # Lazy decoded columns answer from their (small) decode
            # table instead of scanning every cell.
            flag = getattr(column, "has_null", None)
            if flag is None:
                flag = any(value is None for value in column)
            if flag:
                return True
        return False

    def null_mask(self) -> int:
        """Bitmask of the columns that contain a NULL (see :meth:`has_null_in`)."""
        mask = 0
        for index in range(self.arity):
            if self.has_null_in(1 << index):
                mask |= 1 << index
        return mask

    def max_value_length(self, mask: int) -> int:
        """Longest value in the (concatenated) columns of ``mask``.

        The paper's value score concatenates multi-attribute values; an
        empty relation or mask yields 0.  NULL counts as the empty string.
        """
        indices = bits_of(mask)
        if not indices or self.num_rows == 0:
            return 0
        longest = 0
        columns = [self.columns_data[i] for i in indices]
        for block in in_blocks(zip(*columns), "scoring"):
            for row in block:
                length = sum(len(str(value)) for value in row if value is not None)
                if length > longest:
                    longest = length
        return longest

    def distinct_count(self, mask: int) -> int:
        """Exact number of distinct value combinations in ``mask``."""
        indices = bits_of(mask)
        if not indices:
            return 1 if self.num_rows else 0
        columns = [self.columns_data[i] for i in indices]
        return len(set(zip(*columns)))

    def iter_projected_rows(self, mask: int) -> Iterator[Row]:
        """Yield the value combinations of the ``mask`` columns, row by row."""
        columns = [self.columns_data[i] for i in bits_of(mask)]
        if not columns:
            return iter(())
        return zip(*columns)

    def full_mask(self) -> int:
        return full_mask(self.arity)

    def rename(self, name: str) -> "RelationInstance":
        """Return a shallow copy with a new relation name (same constraints).

        The copy gets its own :class:`~repro.model.schema.Relation` but
        shares this instance's column objects and memoized encodings, so
        nothing is copied or encoded again.  The encodings are carried as
        full-width :meth:`~repro.structures.encoding.EncodedRelation.project`
        views, which refuse ``extend``.
        """
        relation = Relation(
            name,
            self.relation.columns,
            primary_key=self.relation.primary_key,
            foreign_keys=list(self.relation.foreign_keys),
        )
        return RelationInstance._sharing(
            relation,
            list(self.columns_data),
            self._shared_encodings(range(self.arity)),
        )

    def append_rows(self, rows: Sequence[Row]) -> None:
        """Append rows in place, copying shared column storage first.

        Instances made by :meth:`rename`, :meth:`project` without
        ``dedup`` and :meth:`from_encoded` share their columns with
        another instance (or hold read-only lazy views).  The first
        append gives this instance private lists, so the instance it was
        derived from never changes.  Memoized encodings are dropped.
        """
        for row in rows:
            if len(row) != self.arity:
                raise ValueError(
                    f"row width {len(row)} does not match arity {self.arity}"
                )
        if not rows:
            return
        if not self._owns_columns:
            self.columns_data = [list(column) for column in self.columns_data]
            self._owns_columns = True
        for row in rows:
            for column, value in zip(self.columns_data, row):
                column.append(value)
        self.invalidate_caches()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RelationInstance({self.name!r}, {self.arity} cols, "
            f"{self.num_rows} rows)"
        )
