"""Columnar dictionary encoding — the shared substrate of the PLI hot path.

Every consumer of record-level value comparisons (PLI construction, HyFD
validation, the sampler, agree-set computation) needs the same thing: a
dense integer id per distinct value, per column, with the configured
NULL semantics baked in.  Historically each consumer re-derived those
ids from the raw Python objects; this module computes them **once per
relation instance** and hands out flat ``array('i')`` vectors that
everything else indexes.

Encoding rules (identical to the classic ``column_value_ids`` helper):

* ids are assigned in first-occurrence order, densely from 0,
* with ``null_equals_null=True`` all NULLs of a column share one id
  (recorded as :attr:`EncodedRelation.null_codes` so partition builders
  can keep the NULL cluster in its conventional last position),
* with ``null_equals_null=False`` every NULL receives a fresh id, so no
  two NULL rows ever agree and NULL rows are stripped as singletons.

One function, :func:`_encode_into`, assigns every id:
:meth:`EncodedRelation.encode`, :meth:`EncodedRelation.extend` and
:class:`ChunkedEncoder` all run it.  Beside the value → id dictionary
it keeps a *decode table* per column (id → value, ``None`` for a NULL
id), which is what :class:`~repro.model.instance.RelationInstance`
reads values back from: an instance stores nothing but its codes and
these tables.

The module deliberately imports nothing from :mod:`repro.model` so the
model layer can depend on it without cycles.

For the incremental engine (``repro.incremental``) an encoding is also
*maintainable*: :meth:`EncodedRelation.extend` grows the per-column
dictionaries append-only (new values get fresh ids, existing values
reuse their id), and :meth:`EncodedRelation.remove_rows` compacts the
code vectors after a delete.  Removal never recycles ids, so
``cardinalities`` counts ids *assigned*, which after deletes may exceed
the number of distinct values still live — all id consumers only rely
on equal-value ⇔ equal-id within a column, which both operations
preserve.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from typing import Any

from repro import kernels

__all__ = [
    "ChunkedEncoder",
    "DecodedColumn",
    "EncodedRelation",
    "encode_column",
]


def encode_column(
    values: Sequence[Any], null_equals_null: bool = True
) -> tuple[array, int, int | None]:
    """Dictionary-encode one column.

    Returns ``(codes, cardinality, null_code)`` where ``codes`` is an
    ``array('i')`` of dense value ids, ``cardinality`` the number of ids
    assigned, and ``null_code`` the shared NULL id (``None`` when the
    column has no NULLs or NULLs are pairwise distinct).
    """
    encoding = EncodedRelation.encode([values], null_equals_null)
    return encoding.codes[0], encoding.cardinalities[0], encoding.null_codes[0]


def _encode_into(
    values: Iterable[Any],
    codes: array,
    ids: dict[Any, int],
    table: list,
    next_id: int,
    null_code: int | None,
    null_equals_null: bool,
) -> tuple[int, int | None]:
    """Append the ids of ``values`` to ``codes``; the one id assigner.

    ``ids`` (value → id) and ``table`` (id → value) grow append-only:
    a value seen before reuses its id, a new one gets ``next_id``.
    Returns the new ``(next_id, null_code)``.
    """
    append = codes.append
    get = ids.get
    for value in values:
        code = get(value)
        if code is None:
            if value is None and null_equals_null:
                code = null_code
                if code is None:
                    code = null_code = next_id
                    next_id += 1
                    table.append(None)
            else:
                code = next_id
                next_id += 1
                if value is not None:
                    ids[value] = code
                table.append(value)
        append(code)
    return next_id, null_code


class EncodedRelation:
    """All columns of one relation instance, dictionary-encoded.

    ``codes[attr][row]`` is the dense value id of cell ``(row, attr)``
    and ``tables[attr][id]`` the value behind an id.  Built via
    :meth:`encode` (or streamed by :class:`ChunkedEncoder`), it is the
    storage of a :class:`~repro.model.instance.RelationInstance`;
    instances derived from it with the same rows share a
    :meth:`project` of it.
    """

    __slots__ = (
        "codes",
        "cardinalities",
        "null_codes",
        "num_rows",
        "arity",
        "null_equals_null",
        "value_ids",
        "tables",
    )

    def __init__(
        self,
        codes: list[array],
        cardinalities: list[int],
        null_codes: list[int | None],
        num_rows: int,
        null_equals_null: bool,
        value_ids: list[dict[Any, int]] | None = None,
        tables: list[list] | None = None,
    ) -> None:
        self.codes = codes
        self.cardinalities = cardinalities
        self.null_codes = null_codes
        self.num_rows = num_rows
        self.arity = len(codes)
        self.null_equals_null = null_equals_null
        self.value_ids = value_ids
        self.tables = tables

    @classmethod
    def encode(
        cls, columns_data: Sequence[Sequence[Any]], null_equals_null: bool = True
    ) -> "EncodedRelation":
        """Encode every column of a column-major table."""
        arity = len(columns_data)
        encoding = cls(
            [array("i") for _ in range(arity)],
            [0] * arity,
            [None] * arity,
            0,
            null_equals_null,
            value_ids=[{} for _ in range(arity)],
            tables=[[] for _ in range(arity)],
        )
        encoding.extend(columns_data)
        return encoding

    def project(self, indices: Sequence[int]) -> "EncodedRelation":
        """The encoding of the columns at ``indices`` over the same rows.

        The result shares this encoding's code vectors and decode tables
        instead of copying them.  It is built without value
        dictionaries, so :meth:`extend` refuses it: appending to it
        would grow vectors that this encoding still reads.
        """
        tables = self.tables
        return EncodedRelation(
            [self.codes[i] for i in indices],
            [self.cardinalities[i] for i in indices],
            [self.null_codes[i] for i in indices],
            self.num_rows,
            self.null_equals_null,
            value_ids=None,
            tables=None if tables is None else [tables[i] for i in indices],
        )

    def copy(self) -> "EncodedRelation":
        """A private copy that :meth:`extend` accepts: its own code
        vectors and decode tables, and value dictionaries read back from
        the tables."""
        tables = [list(table) for table in self.tables]
        return EncodedRelation(
            [array("i", codes) for codes in self.codes],
            list(self.cardinalities),
            list(self.null_codes),
            self.num_rows,
            self.null_equals_null,
            value_ids=[
                {value: code for code, value in enumerate(table) if value is not None}
                for table in tables
            ],
            tables=tables,
        )

    def with_distinct_nulls(self) -> "EncodedRelation":
        """This ``null_equals_null=True`` encoding under NULL ≠ NULL.

        Each NULL gets a fresh id in row order, and every other id is
        renumbered by first occurrence, so the codes are what
        :meth:`encode` gives the decoded values with
        ``null_equals_null=False``.  Columns without NULLs share their
        code vector.  The result keeps no dictionaries or tables.
        """
        codes: list[array] = []
        cardinalities: list[int] = []
        for column, cardinality, null_code in zip(
            self.codes, self.cardinalities, self.null_codes
        ):
            if null_code is not None:
                fresh = array("i")
                cardinality, _ = _encode_into(
                    (None if code == null_code else code for code in column),
                    fresh, {}, [], 0, None, False,
                )
                column = fresh
            codes.append(column)
            cardinalities.append(cardinality)
        return EncodedRelation(
            codes, cardinalities, [None] * self.arity, self.num_rows, False
        )

    # ------------------------------------------------------------------
    # Incremental maintenance (repro.incremental)
    # ------------------------------------------------------------------
    def extend(self, new_columns: Sequence[Sequence[Any]]) -> None:
        """Append rows, growing the per-column dictionaries append-only.

        ``new_columns`` is the column-major suffix (one sequence per
        attribute, all the same length).  Existing values reuse their
        id; new values get the next dense id.  Under
        ``null_equals_null=False`` every appended NULL still receives a
        fresh id, so NULL rows continue to agree with nothing.
        """
        if self.value_ids is None:
            raise ValueError(
                "encoding was built without retained dictionaries; "
                "use EncodedRelation.encode()"
            )
        if len(new_columns) != self.arity:
            raise ValueError(
                f"expected {self.arity} columns, got {len(new_columns)}"
            )
        delta = len(new_columns[0]) if new_columns else 0
        if any(len(column) != delta for column in new_columns):
            raise ValueError("ragged appended columns")
        for attr, column in enumerate(new_columns):
            self.cardinalities[attr], self.null_codes[attr] = _encode_into(
                column,
                self.codes[attr],
                self.value_ids[attr],
                self.tables[attr],
                self.cardinalities[attr],
                self.null_codes[attr],
                self.null_equals_null,
            )
        self.num_rows += delta

    def remove_rows(self, positions: Sequence[int]) -> None:
        """Compact the code vectors, dropping the given row positions.

        Ids are not recycled: the dictionaries and decode tables keep
        their entries, so a later :meth:`extend` re-inserting a removed
        value reuses its old id.  ``cardinalities`` therefore stays the
        assigned-id count.
        """
        doomed = set(positions)
        if not doomed:
            return
        if any(pos < 0 or pos >= self.num_rows for pos in doomed):
            raise ValueError("row position out of range")
        keep = [row for row in range(self.num_rows) if row not in doomed]
        for attr, codes in enumerate(self.codes):
            self.codes[attr] = array("i", (codes[row] for row in keep))
        self.num_rows = len(keep)

    def agree_set(self, left: int, right: int) -> int:
        """Bitmask of the attributes on which rows ``left``/``right`` agree.

        This is *the* shared agree-set helper: the sampler, HyFD
        validation, and HyUCC all delegate here instead of re-implementing
        the loop on their own probe copies.
        """
        agree = 0
        bit = 1
        for codes in self.codes:
            if codes[left] == codes[right]:
                agree |= bit
            bit <<= 1
        return agree

    def agree_sets_batch(
        self, lefts: Sequence[int], rights: Sequence[int]
    ) -> dict[int, int]:
        """Distinct agree masks of many row pairs in one kernel dispatch.

        Maps each distinct ``agree_set(lefts[i], rights[i])`` to the
        number of pairs that have it, keyed in order of first
        occurrence; the counts sum to ``len(lefts)``.  On the numpy
        backend (batches of ``kernels.SMALL_INPUT_THRESHOLD`` pairs or
        more) the comparison runs column-at-a-time over the whole batch
        with the masks packed into uint64 bitset words.
        """
        kernels.record("agree_pairs", len(lefts))
        return kernels.for_size(len(lefts)).agree_pairs(self.codes, lefts, rights)

    def agree_sets_vs(self, left: int, rights: Sequence[int]) -> dict[int, int]:
        """:meth:`agree_sets_batch` of one row against many others."""
        kernels.record("agree_pairs", len(rights))
        return kernels.for_size(len(rights)).agree_one_to_many(
            self.codes, left, rights
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EncodedRelation({self.arity} cols, {self.num_rows} rows, "
            f"null_equals_null={self.null_equals_null})"
        )


class DecodedColumn(Sequence):
    """A read-only view of one encoded column, decoding on access.

    Backed by the column's code vector and its decode table
    (``table[code]`` is the value, ``None`` for a NULL code).  It
    supports ``len``, indexing and iteration, which is what
    :attr:`~repro.model.instance.RelationInstance.columns_data` hands
    out; there is no way to write through it.  Repeated values decode to
    the *same* object (the table entry), so even a full
    ``list(column)`` copy holds one object per distinct value.
    """

    __slots__ = ("_codes", "_table")

    def __init__(self, codes: Sequence[int], table: list) -> None:
        self._codes = codes
        self._table = table

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            table = self._table
            return [table[code] for code in self._codes[index]]
        return self._table[self._codes[index]]

    def __iter__(self):
        return map(self._table.__getitem__, self._codes)


class ChunkedEncoder:
    """Streaming construction of an :class:`EncodedRelation`.

    Callers feed row-major chunks via :meth:`add_rows`; each chunk is
    appended column by column through :meth:`EncodedRelation.extend`,
    so ids are assigned exactly as :meth:`EncodedRelation.encode` would
    assign them to the whole table, and no chunk's rows outlive the
    call.  :meth:`finish` hands the encoding (codes, dictionaries and
    decode tables) over without a copy.
    """

    __slots__ = ("_encoding", "_finished")

    def __init__(self, arity: int, null_equals_null: bool = True) -> None:
        self._encoding = EncodedRelation.encode(
            [() for _ in range(arity)], null_equals_null
        )
        self._finished = False

    def add_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Encode one chunk of rows (each row ``arity`` values wide)."""
        if rows:
            self._encoding.extend(list(zip(*rows)))

    def finish(self) -> EncodedRelation:
        """Seal the stream and hand back the finished encoding."""
        if self._finished:
            raise ValueError("ChunkedEncoder.finish() called twice")
        self._finished = True
        return self._encoding
