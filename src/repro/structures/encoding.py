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

The module deliberately imports nothing from :mod:`repro.model` so the
model layer can depend on it without cycles.

The code vectors are in-heap ``array('i')`` buffers.
:class:`ChunkedEncoder` is the streaming construction path: callers
feed row chunks, codes are appended to the column buffers, and
per-column *decode tables* (id → value) let
:class:`~repro.model.instance.RelationInstance` expose the raw values
lazily via :class:`DecodedColumn` without ever holding the source rows
whole in the heap.

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
from collections.abc import Sequence
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
    codes, ids, next_id, null_code = _encode_column_state(values, null_equals_null)
    return codes, next_id, null_code


def _encode_column_state(
    values: Sequence[Any], null_equals_null: bool
) -> tuple[array, dict[Any, int], int, int | None]:
    """Encode one column and keep the value → id dictionary.

    The retained state (``ids``, ``next_id``, ``null_code``) is what
    :meth:`EncodedRelation.extend` needs to encode appended rows
    consistently with the existing codes.
    """
    codes = array("i", bytes(4 * len(values)))
    ids: dict[Any, int] = {}
    next_id = 0
    null_code: int | None = None
    for row, value in enumerate(values):
        if value is None:
            if null_equals_null:
                if null_code is None:
                    null_code = next_id
                    next_id += 1
                codes[row] = null_code
            else:
                codes[row] = next_id
                next_id += 1
            continue
        assigned = ids.get(value)
        if assigned is None:
            assigned = next_id
            ids[value] = assigned
            next_id += 1
        codes[row] = assigned
    return codes, ids, next_id, null_code


class EncodedRelation:
    """All columns of one relation instance, dictionary-encoded.

    ``codes[attr][row]`` is the dense value id of cell ``(row, attr)``.
    Instances are built via :meth:`encode` (or streamed by
    :class:`ChunkedEncoder`) and cached on the owning
    :class:`~repro.model.instance.RelationInstance`; instances derived
    from it with the same rows share a :meth:`project` of it.
    """

    __slots__ = (
        "codes",
        "cardinalities",
        "null_codes",
        "num_rows",
        "arity",
        "null_equals_null",
        "value_ids",
    )

    def __init__(
        self,
        codes: list[array],
        cardinalities: list[int],
        null_codes: list[int | None],
        num_rows: int,
        null_equals_null: bool,
        value_ids: list[dict[Any, int]] | None = None,
    ) -> None:
        self.codes = codes
        self.cardinalities = cardinalities
        self.null_codes = null_codes
        self.num_rows = num_rows
        self.arity = len(codes)
        self.null_equals_null = null_equals_null
        self.value_ids = value_ids

    @classmethod
    def encode(
        cls, columns_data: Sequence[Sequence[Any]], null_equals_null: bool = True
    ) -> "EncodedRelation":
        """Encode every column of a column-major table."""
        num_rows = len(columns_data[0]) if columns_data else 0
        codes: list[array] = []
        cardinalities: list[int] = []
        null_codes: list[int | None] = []
        value_ids: list[dict[Any, int]] = []
        for column in columns_data:
            col_codes, ids, cardinality, null_code = _encode_column_state(
                column, null_equals_null
            )
            codes.append(col_codes)
            cardinalities.append(cardinality)
            null_codes.append(null_code)
            value_ids.append(ids)
        return cls(
            codes, cardinalities, null_codes, num_rows, null_equals_null, value_ids
        )

    def project(self, indices: Sequence[int]) -> "EncodedRelation":
        """The encoding of the columns at ``indices`` over the same rows.

        The result shares this encoding's code vectors instead of
        copying them.  It is built without value dictionaries, so
        :meth:`extend` refuses it: appending to it would grow vectors
        that this encoding still reads.
        """
        return EncodedRelation(
            [self.codes[i] for i in indices],
            [self.cardinalities[i] for i in indices],
            [self.null_codes[i] for i in indices],
            self.num_rows,
            self.null_equals_null,
            value_ids=None,
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
            codes = self.codes[attr]
            ids = self.value_ids[attr]
            next_id = self.cardinalities[attr]
            null_code = self.null_codes[attr]
            for value in column:
                if value is None:
                    if self.null_equals_null:
                        if null_code is None:
                            null_code = next_id
                            next_id += 1
                        codes.append(null_code)
                    else:
                        codes.append(next_id)
                        next_id += 1
                    continue
                assigned = ids.get(value)
                if assigned is None:
                    assigned = next_id
                    ids[value] = assigned
                    next_id += 1
                codes.append(assigned)
            self.cardinalities[attr] = next_id
            self.null_codes[attr] = null_code
        self.num_rows += delta

    def remove_rows(self, positions: Sequence[int]) -> None:
        """Compact the code vectors, dropping the given row positions.

        Ids are not recycled: the dictionaries keep their entries, so a
        later :meth:`extend` re-inserting a removed value reuses its old
        id.  ``cardinalities`` therefore stays the assigned-id count.
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
    ) -> list[int]:
        """Agree masks for many row pairs in one kernel dispatch.

        ``masks[i]`` equals ``agree_set(lefts[i], rights[i])``; on the
        numpy backend (batches of ``kernels.SMALL_INPUT_THRESHOLD`` pairs
        or more) the comparison runs column-at-a-time over the whole
        batch with the masks packed into uint64 bitset words.
        """
        kernels.record("agree_pairs", len(lefts))
        return kernels.for_size(len(lefts)).agree_pairs(self.codes, lefts, rights)

    def agree_sets_vs(self, left: int, rights: Sequence[int]) -> list[int]:
        """Agree masks of one row against many others (incremental engine)."""
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
    """A lazily-decoded view of one encoded column.

    Backed by the column's code vector and its decode table (``table[code]`` is the original value, ``None``
    for NULL codes).  Supports exactly what the read paths of
    :class:`~repro.model.instance.RelationInstance` need — ``len``,
    indexing, iteration — so a chunk-ingested instance never needs the
    raw values materialized as a Python list.  Repeated values decode to
    the *same* object (the table entry), so even a full ``list(column)``
    copy holds one object per distinct value.
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

    @property
    def has_null(self) -> bool:
        """True iff any cell is NULL (answered from the decode table)."""
        return any(value is None for value in self._table)

    @property
    def distinct_values(self) -> list:
        """Every value that occurs, once: the decode table (``None`` for NULL)."""
        return self._table


class ChunkedEncoder:
    """Streaming construction of an :class:`EncodedRelation`.

    Callers feed row-major chunks via :meth:`add_rows`; each value runs
    through the same append-only dictionary progression as
    :func:`_encode_column_state` (parity by construction) and its code
    is appended to the column's buffer.  The buffers *are* the finished
    columns: :meth:`finish` hands them over without a copy.

    Per-column decode tables (id → value) are maintained alongside so
    :meth:`~repro.model.instance.RelationInstance.from_encoded` can
    expose the raw values lazily.
    """

    __slots__ = (
        "arity",
        "null_equals_null",
        "num_rows",
        "_ids",
        "_next_ids",
        "_null_codes",
        "_buffers",
        "_tables",
        "_finished",
    )

    def __init__(self, arity: int, null_equals_null: bool = True) -> None:
        self.arity = arity
        self.null_equals_null = null_equals_null
        self.num_rows = 0
        self._ids: list[dict[Any, int]] = [{} for _ in range(arity)]
        self._next_ids = [0] * arity
        self._null_codes: list[int | None] = [None] * arity
        self._buffers = [array("i") for _ in range(arity)]
        self._tables: list[list] = [[] for _ in range(arity)]
        self._finished = False

    def add_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Encode one chunk of rows (each row ``arity`` values wide).

        Works column by column over the chunk, so each column's ids are
        still assigned in first-occurrence order.
        """
        null_equals_null = self.null_equals_null
        for attr, column in enumerate(zip(*rows)):
            ids = self._ids[attr]
            get = ids.get
            table = self._tables[attr]
            append = self._buffers[attr].append
            next_id = self._next_ids[attr]
            for value in column:
                code = get(value)
                if code is None:
                    if value is None and null_equals_null:
                        code = self._null_codes[attr]
                        if code is None:
                            code = self._null_codes[attr] = next_id
                            next_id += 1
                            table.append(None)
                    else:
                        code = next_id
                        next_id += 1
                        if value is not None:
                            ids[value] = code
                        table.append(value)
                append(code)
            self._next_ids[attr] = next_id
        self.num_rows += len(rows)

    def finish(self) -> EncodedRelation:
        """Seal the stream and hand back the finished encoding."""
        if self._finished:
            raise ValueError("ChunkedEncoder.finish() called twice")
        self._finished = True
        return EncodedRelation(
            self._buffers,
            self._next_ids,
            self._null_codes,
            self.num_rows,
            self.null_equals_null,
            value_ids=self._ids,
        )

    def decode_tables(self) -> list[list]:
        """Per-column id → value tables (``None`` entries for NULL ids)."""
        return self._tables
