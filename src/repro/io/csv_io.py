"""CSV input and output for relation instances.

The paper's tool consumes plain relational files through the Metanome
framework; this module is our equivalent.  Values are read as strings;
empty fields become NULL (``None``) unless ``empty_as_null=False``.

:func:`read_csv` accepts three kinds of sources:

* a path (``str`` / :class:`~pathlib.Path`) — the classic batch case,
* ``bytes`` / ``bytearray`` — an in-memory document, e.g. an HTTP
  request body received by ``repro serve`` (no temp file needed),
* a file-like object — anything with ``.read()``; binary streams are
  decoded exactly like paths, text streams are consumed as-is.

Real-world CSV is hostile: ragged rows, byte-order marks, bytes that
are not valid UTF-8, empty files, duplicate header names.
:func:`read_csv` turns each of these into a structured
:class:`~repro.runtime.errors.InputError` carrying the source, row, and
column context — or repairs them under an explicit ``on_error`` policy:

* ``"strict"`` (default) — any defect raises :class:`InputError`,
* ``"pad"``    — ragged rows are padded with NULLs / truncated to the
  header width; undecodable bytes become U+FFFD replacement characters,
* ``"skip"``   — ragged rows are dropped; undecodable bytes are
  replaced as under ``"pad"``.

Duplicate column names in the header are always an :class:`InputError`:
two columns with the same name cannot be addressed by the FD model, and
silently renaming one would make the discovered cover refer to a column
the input never declared.

A UTF-8 byte-order mark is always stripped (``utf-8-sig``): it is a
transparent encoding artifact, not a data defect.

Every :func:`read_csv` is **chunked ingestion**: rows are parsed in
fixed-size chunks of :data:`CHUNK_ROWS` and dictionary-encoded
incrementally through a
:class:`~repro.structures.encoding.ChunkedEncoder`.  The raw row text
is never held whole in the Python heap: the returned instance keeps one
``int32`` code per cell plus one decode-table entry per distinct value,
and decodes cells lazily.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
from pathlib import Path

from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.runtime.errors import InputError

__all__ = ["CHUNK_ROWS", "read_csv", "write_csv"]

_POLICIES = ("strict", "pad", "skip")

#: rows parsed and encoded per ingestion chunk
CHUNK_ROWS = 4096

#: the type union read_csv accepts; documented rather than enforced —
#: anything with ``.read()`` counts as a stream
Source = "str | Path | bytes | bytearray | io.IOBase"


def _source_label(source, name: str | None) -> tuple[str, str]:
    """(error-context label, default relation name) of a source."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        return str(path), path.stem
    stream_name = getattr(source, "name", None)
    if isinstance(stream_name, str) and stream_name:
        return stream_name, Path(stream_name).stem
    return f"<{type(source).__name__}>", "relation"


def read_csv(
    source,
    name: str | None = None,
    delimiter: str = ",",
    has_header: bool = True,
    empty_as_null: bool = True,
    on_error: str = "strict",
) -> RelationInstance:
    """Read a CSV source into a :class:`RelationInstance`.

    ``source`` is a path, ``bytes``, or a file-like object (see the
    module docstring).  Without a header row, columns are named
    ``col_0 … col_{n-1}``.  The relation name defaults to the file stem
    for paths (``relation`` for in-memory sources).  ``on_error``
    selects the malformed-input policy.

    Rows are parsed :data:`CHUNK_ROWS` at a time and fed to a
    :class:`~repro.structures.encoding.ChunkedEncoder`; the returned
    instance decodes its cells lazily from the codes and the per-column
    decode tables.
    """
    from repro.structures.encoding import ChunkedEncoder

    if on_error not in _POLICIES:
        raise InputError(
            f"unknown on_error policy {on_error!r}; choose from {_POLICIES}"
        )
    errors = "strict" if on_error == "strict" else "replace"
    label, default_name = _source_label(source, name)
    try:
        with _open_rows(source, delimiter, errors, label) as reader:
            first = next(reader, None)
            if first is None:
                raise InputError(
                    "input is empty; cannot infer a schema", file=label
                )
            if has_header:
                header = tuple(first)
                carried: list[str] | None = None
                first_line = 2
            else:
                header = tuple(f"col_{index}" for index in range(len(first)))
                carried = first
                first_line = 1
            if not header:
                raise InputError(
                    "header row has no columns", file=label, row=1
                )
            if len(set(header)) != len(header):
                seen: set[str] = set()
                duplicates = sorted(
                    {
                        column
                        for column in header
                        if column in seen or seen.add(column)
                    }
                )
                raise InputError(
                    "duplicate column names in header; rename the columns so "
                    "every one is unique",
                    file=label,
                    row=1,
                    duplicates=duplicates,
                )
            relation = Relation(name or default_name, header)
            width = len(header)
            encoder = ChunkedEncoder(width, null_equals_null=True)
            if carried is not None:
                reader = itertools.chain([carried], reader)
            line_number = first_line - 1
            while chunk := list(itertools.islice(reader, CHUNK_ROWS)):
                batch = []
                for row in chunk:
                    line_number += 1
                    if len(row) != width:
                        if on_error == "skip":
                            continue
                        if on_error != "pad":
                            raise InputError(
                                f"expected {width} fields, got {len(row)}",
                                file=label,
                                row=line_number,
                                columns=width,
                            )
                        row = _pad(row, width)
                    if empty_as_null and "" in row:
                        row = [value if value != "" else None for value in row]
                    batch.append(row)
                encoder.add_rows(batch)
    except UnicodeDecodeError as exc:
        raise InputError(
            f"not valid UTF-8 ({exc.reason}); re-encode the file or use "
            "on_error='pad'/'skip' to substitute replacement characters",
            file=label,
            byte_offset=exc.start,
        ) from None
    except csv.Error as exc:
        raise InputError(f"malformed CSV: {exc}", file=label) from None
    return RelationInstance.from_encoded(relation, encoder.finish())


def _pad(row: list[str], width: int) -> list[str]:
    """Repair a ragged row to ``width`` fields (pad with NULLs / truncate)."""
    if len(row) < width:
        return row + [""] * (width - len(row))
    return row[:width]


@contextlib.contextmanager
def _open_rows(source, delimiter: str, errors: str, label: str):
    """Yield a *lazy* CSV row iterator over any supported source kind.

    Path sources keep the file handle open and decode as the reader
    advances (so decode errors surface mid-iteration — the caller maps
    them); in-memory sources are decoded in one piece up front.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            # utf-8-sig transparently strips a leading BOM if present.
            handle = path.open(newline="", encoding="utf-8-sig", errors=errors)
        except FileNotFoundError:
            raise InputError("input file not found", file=label) from None
        try:
            yield csv.reader(handle, delimiter=delimiter)
        finally:
            handle.close()
        return
    if isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        # File-like: one .read() drains it.  A text stream yields str
        # (already decoded by the caller's choice of codec); a binary
        # stream yields bytes and goes through the same decode path as
        # on-disk files.
        try:
            data = source.read()
        except AttributeError:
            raise InputError(
                f"unsupported CSV source {type(source).__name__!r}; "
                "expected a path, bytes, or a file-like object"
            ) from None
    if isinstance(data, (bytes, bytearray)):
        try:
            text = bytes(data).decode("utf-8-sig", errors=errors)
        except UnicodeDecodeError as exc:
            raise InputError(
                f"not valid UTF-8 ({exc.reason}); re-encode the input or "
                "use on_error='pad'/'skip' to substitute replacement "
                "characters",
                file=label,
                byte_offset=exc.start,
            ) from None
    else:
        # A text stream opened with a default codec still carries the
        # BOM as a character; strip it like utf-8-sig would.
        text = data.lstrip("\ufeff")
    yield csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)


def write_csv(
    instance: RelationInstance,
    path: str | Path,
    delimiter: str = ",",
    null_as: str = "",
) -> None:
    """Write an instance to CSV (header row included, NULL as ``null_as``)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(instance.columns)
        for row in instance.iter_rows():
            writer.writerow([null_as if value is None else value for value in row])
