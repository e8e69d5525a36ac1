"""In-memory columnar relation instances.

A :class:`RelationInstance` couples a :class:`~repro.model.schema.Relation`
with its rows, stored column-major as dictionary codes: one int32 code
vector per column plus one decode table per column, which lists each
value that occurs exactly once, in first-occurrence order (a value's id
is its position in the table).  Column-major codes are what FD
discovery wants (PLIs are built per column from them) and what the
paper's scoring features want (value lengths and distinct counts per
attribute set).  Every statistic below is read from the codes and
tables; values are decoded only where a caller asks for them.

``None`` represents SQL NULL throughout.  For FD discovery we follow the
Metanome convention ``NULL == NULL`` (configurable at the PLI layer);
for normalization, Algorithm 4 refuses to promote a NULL-containing LHS
to a key.

Values that compare equal across types (``1``, ``1.0``, ``True``) share
one id, as they always have for discovery, and therefore decode to the
first of them seen in the column.  A CSV cannot produce this: every CSV
cell is a ``str``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from repro.model.attributes import bits_of, full_mask, iter_bits
from repro.model.schema import Relation
from repro.runtime.governor import in_blocks
from repro.structures.encoding import DecodedColumn, EncodedRelation

__all__ = ["RelationInstance"]

Row = tuple[Any, ...]


class RelationInstance:
    """A relation schema plus its data, stored as dictionary codes.

    Instances are immutable except :meth:`append_rows`.  :meth:`rename`
    and the non-dedup :meth:`project` share the code vectors and decode
    tables of the instance they come from; an encoding that may be
    shared carries no value dictionaries, and :meth:`append_rows` copies
    such an encoding before its first write.
    """

    __slots__ = ("relation", "_encoding", "_distinct_nulls")

    def __init__(self, relation: Relation, columns_data: Sequence[Sequence]) -> None:
        if len(columns_data) != relation.arity:
            raise ValueError(
                f"relation {relation.name!r} has {relation.arity} columns but "
                f"{len(columns_data)} data columns were given"
            )
        lengths = {len(column) for column in columns_data}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self.relation = relation
        self._encoding = EncodedRelation.encode(columns_data, True)
        self._distinct_nulls: EncodedRelation | None = None

    @classmethod
    def _over(cls, relation: Relation, encoding: EncodedRelation) -> "RelationInstance":
        self = cls.__new__(cls)
        self.relation = relation
        self._encoding = encoding
        self._distinct_nulls = None
        return self

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, relation: Relation, rows: Iterable[Row]) -> "RelationInstance":
        """Build an instance from row tuples."""
        rows = list(rows)
        for row in rows:
            if len(row) != relation.arity:
                raise ValueError(
                    f"row width {len(row)} does not match arity {relation.arity}"
                )
        columns = list(zip(*rows)) if rows else [()] * relation.arity
        return cls(relation, columns)

    @classmethod
    def from_encoded(
        cls, relation: Relation, encoding: EncodedRelation
    ) -> "RelationInstance":
        """Build an instance around a finished ``null_equals_null=True``
        encoding with its decode tables (what
        :func:`~repro.io.csv_io.read_csv` streams into), uncopied."""
        if encoding.arity != relation.arity:
            raise ValueError(
                f"relation {relation.name!r} has {relation.arity} columns but "
                f"the encoding has {encoding.arity}"
            )
        return cls._over(relation, encoding)

    # ------------------------------------------------------------------
    # Columnar value encoding (the PLI hot path's substrate)
    # ------------------------------------------------------------------
    def encoded(self, null_equals_null: bool = True) -> EncodedRelation:
        """The dictionary encoding PLI construction, validation and
        sampling index.

        ``null_equals_null=True`` is the instance's own storage.  The
        ``False`` view gives every NULL a fresh id in row order
        (:meth:`~repro.structures.encoding.EncodedRelation.with_distinct_nulls`)
        and is memoized.
        """
        if null_equals_null:
            return self._encoding
        if self._distinct_nulls is None:
            self._distinct_nulls = self._shared().with_distinct_nulls()
        return self._distinct_nulls

    def _shared(self) -> EncodedRelation:
        """This instance's encoding, marked as read by someone else.

        Dropping the value dictionaries is the mark: the next
        :meth:`append_rows` then copies the code vectors instead of
        growing vectors another instance (or view) reads.
        """
        if self._encoding.value_ids is not None:
            self._encoding = self._encoding.project(range(self.arity))
        return self._encoding

    def _view(self, relation: Relation, indices: Sequence[int]) -> "RelationInstance":
        """An instance of ``relation`` over the columns at ``indices``,
        sharing this instance's codes (and its ``False`` view)."""
        view = RelationInstance._over(relation, self._shared().project(indices))
        if self._distinct_nulls is not None:
            view._distinct_nulls = self._distinct_nulls.project(indices)
        return view

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
        return self._encoding.num_rows

    @property
    def num_values(self) -> int:
        """Total number of stored cells (the paper counts dataset size this way)."""
        return self.num_rows * self.arity

    @property
    def columns_data(self) -> tuple[DecodedColumn, ...]:
        """Every column as a read-only :class:`DecodedColumn` view."""
        encoding = self._encoding
        return tuple(map(DecodedColumn, encoding.codes, encoding.tables))

    def _index(self, name_or_index: str | int) -> int:
        if isinstance(name_or_index, str):
            return self.relation.column_index(name_or_index)
        return name_or_index

    def column(self, name_or_index: str | int) -> DecodedColumn:
        """Return one data column (a read-only view) by name or position."""
        index = self._index(name_or_index)
        return DecodedColumn(self._encoding.codes[index], self._encoding.tables[index])

    def decode_table(self, name_or_index: str | int) -> list:
        """Each value of one column once, in first-occurrence order
        (``None`` for NULL).  Read-only: it is the column's storage."""
        return self._encoding.tables[self._index(name_or_index)]

    def row(self, index: int) -> Row:
        encoding = self._encoding
        return tuple(
            table[codes[index]] for codes, table in zip(encoding.codes, encoding.tables)
        )

    def iter_rows(self) -> Iterator[Row]:
        return self.iter_projected_rows(self.full_mask())

    # ------------------------------------------------------------------
    # Projection and deduplication (the decomposition step needs both)
    # ------------------------------------------------------------------
    def project(
        self, mask: int, name: str | None = None, dedup: bool = False
    ) -> "RelationInstance":
        """Project onto the attributes in ``mask``; optionally deduplicate rows.

        Column order is preserved.  Without ``dedup`` the projection has
        this instance's rows (the paper's ``R1``), so it shares the code
        vectors instead of copying them.  ``dedup=True`` produces the
        paper's ``R2`` side of a decomposition: the first row of each
        distinct code tuple, in row order, encoded afresh.
        """
        indices = bits_of(mask)
        new_relation = Relation(
            name or self.name, tuple(self.columns[i] for i in indices)
        )
        if not dedup:
            return self._view(new_relation, indices)
        encoding = self._encoding
        kept = dict.fromkeys(zip(*[encoding.codes[i] for i in indices]))
        columns = list(zip(*kept)) if kept else [()] * len(indices)
        return RelationInstance(
            new_relation,
            [
                DecodedColumn(codes, encoding.tables[i])
                for codes, i in zip(columns, indices)
            ],
        )

    # ------------------------------------------------------------------
    # Statistics used by the scoring features (paper §7)
    # ------------------------------------------------------------------
    def has_null_in(self, mask: int) -> bool:
        """True iff any column in ``mask`` contains a NULL (None) value."""
        null_codes = self._encoding.null_codes
        return any(null_codes[i] is not None for i in iter_bits(mask))

    def null_mask(self) -> int:
        """Bitmask of the columns that contain a NULL (see :meth:`has_null_in`)."""
        mask = 0
        for index, null_code in enumerate(self._encoding.null_codes):
            if null_code is not None:
                mask |= 1 << index
        return mask

    def max_value_length(self, mask: int) -> int:
        """Longest value in the (concatenated) columns of ``mask``.

        The paper's value score concatenates multi-attribute values; an
        empty relation or mask yields 0.  NULL counts as the empty string.
        Each distinct value's length is taken once, from the decode
        table; the rows only add up per-code lengths.
        """
        indices = bits_of(mask)
        if not indices or self.num_rows == 0:
            return 0
        encoding = self._encoding
        per_row = []
        for i in indices:
            lengths = [
                0 if value is None else len(str(value))
                for value in encoding.tables[i]
            ]
            per_row.append(map(lengths.__getitem__, encoding.codes[i]))
        longest = 0
        for block in in_blocks(map(sum, zip(*per_row)), "scoring"):
            longest = max(longest, max(block))
        return longest

    def distinct_count(self, mask: int) -> int:
        """Exact number of distinct value combinations in ``mask``."""
        indices = bits_of(mask)
        if not indices:
            return 1 if self.num_rows else 0
        return len(set(zip(*[self._encoding.codes[i] for i in indices])))

    def iter_projected_rows(self, mask: int) -> Iterator[Row]:
        """Yield the value combinations of the ``mask`` columns, row by row."""
        encoding = self._encoding
        columns = [
            map(encoding.tables[i].__getitem__, encoding.codes[i])
            for i in bits_of(mask)
        ]
        if not columns:
            return iter(())
        return zip(*columns)

    def full_mask(self) -> int:
        return full_mask(self.arity)

    def rename(self, name: str) -> "RelationInstance":
        """Return a copy with a new relation name (same constraints).

        The copy gets its own :class:`~repro.model.schema.Relation` but
        shares this instance's codes, so nothing is copied or encoded
        again.
        """
        relation = Relation(
            name,
            self.relation.columns,
            primary_key=self.relation.primary_key,
            foreign_keys=list(self.relation.foreign_keys),
        )
        return self._view(relation, range(self.arity))

    def append_rows(self, rows: Sequence[Row]) -> None:
        """Append rows in place, extending this instance's own encoding.

        An encoding without value dictionaries may be read by another
        instance (:meth:`rename`, :meth:`project` without ``dedup``, or
        the one this instance came from), so the first append copies it;
        the instances it was shared with never change.
        """
        for row in rows:
            if len(row) != self.arity:
                raise ValueError(
                    f"row width {len(row)} does not match arity {self.arity}"
                )
        if not rows:
            return
        if self._encoding.value_ids is None:
            self._encoding = self._encoding.copy()
        self._encoding.extend(list(zip(*rows)))
        self._distinct_nulls = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RelationInstance({self.name!r}, {self.arity} cols, "
            f"{self.num_rows} rows)"
        )
